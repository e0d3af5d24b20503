package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/spec"
)

// The sync_* registry family end to end: chunked checkpoint state-sync
// under constrained bandwidth and small chunks still recovers the crashed
// server and commits everything; the forged-snapshot cells reject every
// Byzantine offer and recover from honest peers with safety intact.
func TestSyncRegistryEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("sync entries simulate 120 s horizons; skipped under -short")
	}
	for _, entry := range []string{"sync_transfer", "sync_forged"} {
		entry := entry
		t.Run(entry, func(t *testing.T) {
			scs, err := EntryScenarios(entry, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range runShared(t, scs) {
				if res.Invariant != nil {
					t.Fatalf("%s (%s) violates safety invariants: %v",
						entry, res.Scenario.Name, res.Invariant)
				}
				if res.Committed == 0 {
					t.Fatalf("%s (%s) committed nothing", entry, res.Scenario.Name)
				}
				if res.CheckpointSeals == 0 {
					t.Fatalf("%s (%s) sealed no checkpoints", entry, res.Scenario.Name)
				}
				if res.SyncInstalls == 0 {
					t.Fatalf("%s (%s): crashed server recovered without state-sync — "+
						"the transfer path was not exercised", entry, res.Scenario.Name)
				}
				if res.CkptDigest == 0 {
					t.Fatalf("%s (%s): no cross-server checkpoint digest", entry, res.Scenario.Name)
				}
			}
		})
	}
}

// syncForgedScenario surrounds a recovering honest server with
// forge-snapshot Byzantine peers: servers 2..4 of 5 corrupt every snapshot
// they serve, honest server 1 is crashed until its gap is pruned
// everywhere, so its recovery MUST go through state-sync and its offers
// overwhelmingly come from forgers. Used by both the post-fix test (every
// forged offer rejected, recovery completes honestly) and the sabotage
// test (with the header-bind check disabled the forgery installs and the
// safety checker must catch it).
func syncForgedScenario(t *testing.T, seed int64) Scenario {
	return fromSpec(t, spec.ScenarioSpec{
		Name:      fmt.Sprintf("sync-forged-gauntlet seed=%d", seed),
		Algorithm: spec.AlgHashchain, Servers: 5, Rate: 400,
		SendFor: spec.Duration(20 * time.Second), Horizon: spec.Duration(60 * time.Second),
		Seed:               seed,
		CheckpointInterval: 4,
		Prune:              true,
		Byzantine: &spec.ByzantineSpec{
			Faulty:    3,
			Behaviors: []string{spec.BehaviorForgeSnapshot},
		},
		Faults: &spec.FaultSpec{Events: []spec.FaultEventSpec{
			{At: spec.Duration(3 * time.Second), Action: spec.FaultCrash, Nodes: []int{1}},
			{At: spec.Duration(13 * time.Second), Action: spec.FaultRestart, Nodes: []int{1}},
		}},
	})
}

// Post-fix behavior on the forged gauntlet: the recovering server verifies
// every snapshot offer against the checkpoint commitment bound into the
// 2f+1-certified block header, rejects the forgeries (SyncRejected > 0 —
// the seed is pinned so a forger demonstrably served it first), completes
// recovery from an honest peer, and no safety invariant breaks.
func TestSyncForgedSnapshotRejected(t *testing.T) {
	res := Run(syncForgedScenario(t, 1))
	if res.Invariant != nil {
		t.Fatalf("safety violated despite header binding: %v", res.Invariant)
	}
	if res.Committed == 0 {
		t.Fatal("committed nothing")
	}
	if res.SyncInstalls == 0 {
		t.Fatal("recovering server never state-synced; the gauntlet is vacuous")
	}
	if res.SyncRejected == 0 {
		t.Fatal("no forged offer was rejected — the recovering server never " +
			"contacted a forger, so this scenario does not prove the defense")
	}
}

// Non-vacuity: with the requester-side header-bind verification sabotaged
// (exactly the pre-fix trust model — install whatever a peer serves), the
// SAME run installs a forged snapshot and the invariant checker flags the
// smuggled bogus elements. If this test fails, either the forgery preset
// no longer produces locally-installable snapshots or the safety checker
// went blind below the prune horizon.
func TestSyncSabotagedHeaderBindInstallsForgery(t *testing.T) {
	res := runBroken(syncForgedScenario(t, 1), func(d *shard.Deployment) {
		for _, sd := range d.Shards {
			for _, node := range sd.Ledger.Nodes {
				node.Cons.BreakHeaderBindForTest()
			}
		}
	})
	if res.SyncInstalls == 0 {
		t.Fatal("recovering server never state-synced; the sabotage run is vacuous")
	}
	if res.SyncRejected != 0 {
		t.Fatalf("sabotaged requester still rejected %d offers — the sabotage hook is dead",
			res.SyncRejected)
	}
	if res.Invariant == nil {
		t.Fatal("forged snapshot installed without tripping any safety invariant — " +
			"the vulnerability this PR closes would be invisible")
	}
	if msg := res.Invariant.Error(); !strings.Contains(msg, "bogus") {
		t.Fatalf("violation does not mention the smuggled bogus elements: %v", res.Invariant)
	}
}
