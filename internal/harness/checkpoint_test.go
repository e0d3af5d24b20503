package harness

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// ckptRecoveryScenario is the recovery-equivalence cell: pruning
// checkpoints every 4 epochs while node 3 is crashed long enough that its
// peers seal and prune past its gap — on restart the missing blocks are
// unservable and the node must recover via checkpoint state-sync.
func ckptRecoveryScenario(t *testing.T, seed int64) Scenario {
	return fromSpec(t, spec.ScenarioSpec{
		Name:      fmt.Sprintf("ckpt-recovery seed=%d", seed),
		Algorithm: spec.AlgHashchain, Servers: 4, Rate: 400,
		SendFor: spec.Duration(20 * time.Second), Horizon: spec.Duration(60 * time.Second),
		Seed:               seed,
		CheckpointInterval: 4,
		Prune:              true,
		Faults: &spec.FaultSpec{Events: []spec.FaultEventSpec{
			{At: spec.Duration(3 * time.Second), Action: spec.FaultCrash, Nodes: []int{3}},
			{At: spec.Duration(13 * time.Second), Action: spec.FaultRestart, Nodes: []int{3}},
		}},
	})
}

// Crash + restart + checkpoint state-sync is deterministic: across seeds,
// sequentially and on any worker count, the run is byte-identical — and
// non-vacuous: every seed must actually exercise a state-sync install
// (the crashed node's gap was pruned everywhere) under active pruning.
func TestCheckpointRecoveryDeterminism(t *testing.T) {
	seeds := []int64{1, 2, 3}
	scs := make([]Scenario, len(seeds))
	for i, seed := range seeds {
		scs[i] = ckptRecoveryScenario(t, seed)
	}
	sequential := make([][]byte, len(scs))
	for i, sc := range scs {
		res := Run(sc)
		if res.Invariant != nil {
			t.Fatalf("seed %d violates safety invariants: %v", sc.Seed, res.Invariant)
		}
		if res.Committed == 0 {
			t.Fatalf("seed %d committed nothing", sc.Seed)
		}
		if res.CheckpointSeals == 0 {
			t.Fatalf("seed %d sealed no checkpoints — pruning never ran", sc.Seed)
		}
		if res.SyncInstalls == 0 {
			t.Fatalf("seed %d: restarted node recovered without state-sync — "+
				"the recovery path was not exercised", sc.Seed)
		}
		sequential[i] = resultFingerprint(t, res)
	}
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		parallel := RunMany(scs)
		SetWorkers(0)
		for i, res := range parallel {
			if got := resultFingerprint(t, res); string(got) != string(sequential[i]) {
				t.Fatalf("workers=%d: seed %d diverges from sequential run\nseq: %s\npar: %s",
					workers, scs[i].Seed, sequential[i], got)
			}
		}
	}
}

// The recovery-equivalence claim, stated on raw server state: after a
// crash, a restart and a checkpoint state-sync, the recovered node's
// Setchain state is identical to a peer that never crashed — same epoch
// history (hash for hash over the retained overlap), same checkpoint
// chain content, same replicated set. The harness-level invariant check
// asserts this too; this test pins it directly against the deployment so
// a checker regression cannot mask a recovery bug.
func TestRecoveredNodeMatchesNeverCrashedPeer(t *testing.T) {
	sc := ckptRecoveryScenario(t, 7).withDefaults()
	s := sim.New(sc.Seed)
	opts, lcfg := deployConfig(sc)
	rec := metrics.New(s, sc.Level, sc.Servers, opts.F, 0)
	d := core.Deploy(s, sc.Servers, lcfg, opts, rec)
	sc.Faults.Install(s, d.Ledger.Net)
	gen := workload.New(d, rec, workload.Config{
		Rate: sc.Rate, Duration: sc.SendFor, TrackIDs: true,
	})
	d.Start()
	gen.Start()
	s.RunUntil(sc.Horizon)
	d.Stop()

	crashed, peer := d.Servers[3], d.Servers[0]
	if crashed.SyncInstalls() == 0 {
		t.Fatal("node 3 never state-synced; the scenario does not exercise recovery")
	}
	if peer.SyncInstalls() != 0 {
		t.Fatal("never-crashed peer state-synced; comparison baseline is not clean")
	}

	cs, ps := crashed.Get(), peer.Get()
	if got, want := cs.PrunedEpochs+uint64(len(cs.History)), ps.PrunedEpochs+uint64(len(ps.History)); got != want {
		t.Fatalf("recovered node reached epoch %d, peer %d", got, want)
	}
	// Epoch-by-epoch equality over the retained overlap, aligned by
	// absolute number.
	lo, hi := max(cs.PrunedEpochs, ps.PrunedEpochs), cs.PrunedEpochs+uint64(len(cs.History))
	for num := lo + 1; num <= hi; num++ {
		ce := cs.History[num-1-cs.PrunedEpochs]
		pe := ps.History[num-1-ps.PrunedEpochs]
		if string(ce.Hash) != string(pe.Hash) {
			t.Fatalf("epoch %d hash differs between recovered node and peer", num)
		}
	}
	// Checkpoint chains: same length, same content (seal heights may
	// legitimately differ — checkpoint.Same ignores them).
	ccks, pcks := cs.Checkpoints, ps.Checkpoints
	if len(ccks) != len(pcks) {
		t.Fatalf("recovered node sealed %d checkpoints, peer %d", len(ccks), len(pcks))
	}
	for i := range ccks {
		if !ccks[i].Same(pcks[i]) {
			t.Fatalf("checkpoint %d content diverges: %+v vs %+v", i+1, ccks[i], pcks[i])
		}
	}
	// The replicated set: identical membership.
	if cs.TheSet.Len() != ps.TheSet.Len() {
		t.Fatalf("set sizes differ: recovered %d, peer %d", cs.TheSet.Len(), ps.TheSet.Len())
	}
	for id := range ps.TheSet.All() {
		if !cs.TheSet.Has(id) {
			t.Fatalf("element %x missing from recovered node's set", id[:4])
		}
	}
	// Bounded memory under pruning: tombstones were actually dropped and
	// the retained tombstone count is a small fraction of everything ever
	// committed (without pruning every committed tx key lingers forever).
	for i, node := range d.Ledger.Nodes {
		pool := node.Pool
		if pool.TombstonesPruned() == 0 {
			t.Fatalf("node %d pruned no mempool tombstones", i)
		}
		if kept, pruned := pool.TombstonedKeys(), pool.TombstonesPruned(); uint64(kept) > pruned {
			t.Fatalf("node %d keeps %d tombstones but pruned only %d — retention is not bounded",
				i, kept, pruned)
		}
	}
}

// With no faults, pruning is purely an internal memory optimization: a
// run with Prune on must produce identical measurements — every
// throughput/efficiency/latency figure, the ledger height metric, the
// seal count — as the same run retaining full history. (Checkpoint
// sealing itself stays enabled in both so the seal CPU charges line up;
// only the retention policy differs.) The simulator's raw event count is
// the one place the runs may legitimately part: a pruned server drops
// stale proofs at or below its horizon BEFORE charging signature
// verification, so a pruned run can schedule fewer CPU events (never
// more) when proofs straggle in after their epoch's seal.
func TestPruneIsObservationallyIdentical(t *testing.T) {
	sp := spec.ScenarioSpec{
		Name: "prune-equiv", Algorithm: spec.AlgHashchain, Servers: 4, Rate: 400,
		SendFor: spec.Duration(10 * time.Second), Horizon: spec.Duration(30 * time.Second), Seed: 5,
		CheckpointInterval: 4,
	}
	keep := Run(fromSpec(t, sp))
	sp.Prune = true
	prunedRes := Run(fromSpec(t, sp))

	if keep.Invariant != nil || prunedRes.Invariant != nil {
		t.Fatalf("invariants violated: keep=%v pruned=%v", keep.Invariant, prunedRes.Invariant)
	}
	if keep.CheckpointSeals == 0 || keep.CheckpointSeals != prunedRes.CheckpointSeals {
		t.Fatalf("seal counts differ: keep=%d pruned=%d", keep.CheckpointSeals, prunedRes.CheckpointSeals)
	}
	if prunedRes.Events > keep.Events {
		t.Fatalf("pruning ADDED simulator work: %d events vs %d retained",
			prunedRes.Events, keep.Events)
	}
	// Blank out the permitted differences before fingerprinting: the Prune
	// flag itself and the event-count saving explained above.
	prunedRes.Scenario.Prune = false
	prunedRes.Events = keep.Events
	if a, b := resultFingerprint(t, keep), resultFingerprint(t, prunedRes); string(a) != string(b) {
		t.Fatalf("pruning changed observable results\nkeep:   %s\npruned: %s", a, b)
	}
}

// The soak_* registry family runs end to end (smoke at full scale, the
// long cells reduced), commits, seals checkpoints, recovers where its
// fault plan crashes nodes, and holds every invariant with the heap under
// the declared ceiling.
func TestSoakRegistryEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("soak entries simulate long horizons; skipped under -short")
	}
	cases := []struct {
		entry string
		scale float64
	}{
		{"soak_smoke", 1},
		{"soak_steady", 0.1},
		{"soak_chaos", 0.1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.entry, func(t *testing.T) {
			scs, err := EntryScenarios(tc.entry, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range RunMany(scs) {
				if res.Invariant != nil {
					t.Fatalf("%s violates safety invariants: %v", tc.entry, res.Invariant)
				}
				if res.Committed == 0 {
					t.Fatalf("%s committed nothing", tc.entry)
				}
				if res.CheckpointSeals == 0 {
					t.Fatalf("%s sealed no checkpoints", tc.entry)
				}
				if res.HeapLiveMB < 0 {
					t.Fatalf("%s skipped the heap measurement despite a ceiling", tc.entry)
				}
				if res.HeapViolation {
					t.Fatalf("%s live heap %.0f MiB exceeds its %d MiB ceiling",
						tc.entry, res.HeapLiveMB, res.Scenario.HeapCeilingMB)
				}
				if tc.entry == "soak_smoke" && res.SyncInstalls == 0 {
					t.Fatal("soak_smoke: crashed node recovered without state-sync")
				}
			}
		})
	}
}
