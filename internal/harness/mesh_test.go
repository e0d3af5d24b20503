package harness

import (
	"fmt"
	"testing"

	"repro/internal/shard"
	"repro/internal/spec"
)

// The mesh-transport acceptance gates (ISSUE 8 / DESIGN.md §13). The
// headline claims — >=2x fewer messages per committed element than
// broadcast at n=50, and liveness under the lossy fault plan — are
// enforced here at a non-trivial scale, NOT -short-skipped; the sabotage
// test at the bottom proves the liveness checks would catch a starved
// overlay.

// TestMeshMessageReduction runs the mesh_vs_broadcast entry's two cells —
// the identical n=50 workload on broadcast and on the fanout-8 mesh — and
// requires the mesh to commit with safety intact at no more than half the
// messages per committed element.
func TestMeshMessageReduction(t *testing.T) {
	cells, err := EntryScenarios("mesh_vs_broadcast", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("mesh_vs_broadcast has %d cells, want 2", len(cells))
	}
	results := runShared(t, cells)
	for i, res := range results {
		if res.Invariant != nil {
			t.Fatalf("%s violates safety: %v", cells[i].Name, res.Invariant)
		}
		if res.Committed == 0 {
			t.Fatalf("%s committed nothing", cells[i].Name)
		}
	}
	bcast, mesh := results[0], results[1]
	if mesh.Gossip.Originated == 0 || mesh.Gossip.Delivered == 0 {
		t.Fatalf("mesh cell shows no gossip traffic (%+v) — transport not wired", mesh.Gossip)
	}
	bcastPer := float64(bcast.NetMsgs) / float64(bcast.Committed)
	meshPer := float64(mesh.NetMsgs) / float64(mesh.Committed)
	t.Logf("msgs/commit: broadcast %.1f (%d msgs, %d committed), mesh %.1f (%d msgs, %d committed), ratio %.2fx",
		bcastPer, bcast.NetMsgs, bcast.Committed, meshPer, mesh.NetMsgs, mesh.Committed, bcastPer/meshPer)
	if meshPer > bcastPer/2 {
		t.Fatalf("mesh uses %.1f msgs/commit, broadcast %.1f — reduction %.2fx is under the required 2x",
			meshPer, bcastPer, bcastPer/meshPer)
	}
	// The workloads must actually be comparable: same committed ballpark.
	if mesh.Committed < bcast.Committed*8/10 {
		t.Fatalf("mesh committed %d vs broadcast %d — the transports are not running the same workload",
			mesh.Committed, bcast.Committed)
	}
}

// TestMeshLivenessUnderLoss pins 3 seeds of the mesh_chaos lossy cell
// (2% drop, duplication, reordering, a mid-run delay spike — over the
// bounded-fanout overlay): every seed must keep committing with safety
// intact. Digest redundancy (~fanout disjoint paths per message) plus
// point-to-point consensus catch-up is the liveness argument.
func TestMeshLivenessUnderLoss(t *testing.T) {
	cells, err := EntryScenarios("mesh_chaos", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	lossy := cells[0]
	for _, seed := range []int64{1, 2, 3} {
		sc := lossy
		sc.Seed = seed
		sc.Name = ""
		res := Run(sc)
		if res.Invariant != nil {
			t.Fatalf("seed %d: lossy mesh run violates safety: %v", seed, res.Invariant)
		}
		if res.Committed == 0 {
			t.Fatalf("seed %d: lossy mesh run committed nothing — gossip did not survive loss", seed)
		}
		t.Logf("seed %d: injected %d committed %d, gossip %+v", seed, res.Injected, res.Committed, res.Gossip)
	}
}

// TestMeshRegistryEntries is the mesh counterpart of
// TestScaleRegistryEntries: every mesh_* cell runs end to end at reduced
// scale, commits, passes safety, and actually exercises the overlay.
// Under -short it runs one cell: mesh_chaos's partition that heals, the one
// mesh fault path no other short test reaches (the golden fingerprints run
// cell 0 of each entry).
func TestMeshRegistryEntries(t *testing.T) {
	// One request for the whole family, so the worker pool overlaps the
	// n=50 cells of different entries.
	var cells []Scenario
	var labels []string
	for _, entry := range []string{"mesh_scale", "mesh_vs_broadcast", "mesh_chaos", "mesh_shards"} {
		scs, err := EntryScenarios(entry, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for i, sc := range scs {
			if testing.Short() && (entry != "mesh_chaos" || i != 1) {
				continue
			}
			cells = append(cells, sc)
			labels = append(labels, fmt.Sprintf("%s cell %d (%s)", entry, i, sc.Name))
		}
	}
	for i, res := range runShared(t, cells) {
		if res.Invariant != nil {
			t.Fatalf("%s violates safety: %v", labels[i], res.Invariant)
		}
		if res.Committed == 0 {
			t.Fatalf("%s committed nothing", labels[i])
		}
		if cells[i].Transport == spec.TransportMesh && res.Gossip.Delivered == 0 {
			t.Fatalf("%s shows no gossip deliveries — overlay not in the path", labels[i])
		}
	}
}

// TestMeshBrokenExpiryStallsCommits sabotages the relay queue expiry so
// every flush drains nothing: the overlay starves, consensus can make no
// progress, and the Committed>0 checks the sweeps rely on must trip. If
// this run still commits, those checks are vacuous for mesh cells.
func TestMeshBrokenExpiryStallsCommits(t *testing.T) {
	cells, err := EntryScenarios("mesh_vs_broadcast", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	mesh := cells[1]
	res := runBroken(mesh, func(d *shard.Deployment) {
		for _, sd := range d.Shards {
			sd.Ledger.Mesh.BreakExpiryForTest()
		}
	})
	if res.Committed != 0 {
		t.Fatalf("starved overlay still committed %d elements — the Committed>0 liveness checks are vacuous for mesh cells", res.Committed)
	}
}
