package harness

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/shard"
	"repro/internal/sim"
)

type timedResult struct {
	res  *Result
	wall time.Duration
}

func timedRun(t *testing.T, sc Scenario, iw int) timedResult {
	t.Helper()
	start := time.Now()
	res := runAtWorkers(sc, iw)
	wall := time.Since(start)
	if res.Invariant != nil {
		t.Fatalf("%s (IntraWorkers=%d) violates safety: %v", sc.Name, iw, res.Invariant)
	}
	return timedResult{res: res, wall: wall}
}

// The byte-identity contract of partitioned execution (DESIGN.md §12):
// IntraWorkers is an executor knob, never a semantics knob. The sweep below
// runs every scale_*, chaos_*, and soak_smoke registry cell at worker
// counts 1, 2, and NumCPU and requires byte-identical fingerprints —
// metrics (totals, efficiency checkpoints, series, commit fractions),
// superepoch digest sequences, checkpoint seals, event counts, and
// invariant verdicts. The mutation tests at the bottom sabotage the
// executor on purpose to prove the comparison would catch a real bug.

// pdesCells expands the families the equivalence contract covers, at a
// reduced scale so the whole sweep stays CI-sized. soak cells keep their
// heap ceilings; the sweep runs cells one at a time, so the process-wide
// measurement stays meaningful. The mesh_* families are covered because
// the gossip overlay's dedup caches and relay queues are per-node state
// the partitioned executor must not perturb (DESIGN.md §13) — and the
// fingerprint includes message totals and gossip counters, so a
// transport-level divergence cannot hide behind equal commit metrics.
func pdesCells(t *testing.T, scale float64) []Scenario {
	t.Helper()
	var scs []Scenario
	for _, entry := range []string{
		"scale_tput", "scale_chaos",
		"chaos_crash", "chaos_partition", "chaos_majority", "chaos_lossy",
		"soak_smoke",
		"mesh_scale", "mesh_vs_broadcast", "mesh_chaos", "mesh_shards",
		// The open_* families matter here because their extra randomness
		// (zipf draws, churn timers) and the admission gate's pool-state
		// reads are exactly the kind of order-sensitive state a partitioned
		// executor could perturb (DESIGN.md §14).
		"open_ramp", "open_skew", "open_churn",
		// The sync_* families exercise the chunked state-sync transfer and
		// the catch-up retry backoff — per-node protocol state (chunk
		// counts, retry counters, the jitter RNG) that must be
		// partition-invariant (DESIGN.md §15).
		"sync_transfer", "sync_forged",
	} {
		cells, err := EntryScenarios(entry, scale)
		if err != nil {
			t.Fatal(err)
		}
		if raceBuild {
			// One cell per family keeps `go test -race -short` of this
			// package inside go test's default timeout.
			cells = cells[:1]
		}
		scs = append(scs, cells...)
	}
	return scs
}

// pdesFingerprint is the byte-identity key of the sweep: the production
// Fingerprint, which already normalizes IntraWorkers away — the one
// Scenario field allowed (required, even) to differ between the runs
// being compared.
func pdesFingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	return Fingerprint(res)
}

// runAtWorkers runs the cell with the given IntraWorkers setting.
func runAtWorkers(sc Scenario, iw int) *Result {
	sc.IntraWorkers = iw
	return Run(sc)
}

// TestIntraRunEquivalenceSweep is the headline test: every covered registry
// cell, IntraWorkers 1 vs 2 vs NumCPU, byte-identical results. Each distinct
// width runs once: on a host with at most two CPUs that is 1 vs 2. The
// sequential side is the cell as the registry builds it, read from the
// shared memo. It is NOT -short-skipped — CI's race job runs it at full
// worker width (one cell per family), because this is the first
// shared-memory concurrency inside a single run.
func TestIntraRunEquivalenceSweep(t *testing.T) {
	widths := []int{2}
	if n := runtime.NumCPU(); n > 2 {
		widths = append(widths, n)
	}
	scs := pdesCells(t, 0.1)
	for i, seq := range runShared(t, scs) {
		sc := scs[i]
		if seq.Invariant != nil {
			t.Fatalf("cell %d (%s): sequential run violates safety: %v", i, sc.Name, seq.Invariant)
		}
		if seq.Committed == 0 {
			t.Fatalf("cell %d (%s): sequential run committed nothing", i, sc.Name)
		}
		want := pdesFingerprint(t, seq)
		for _, iw := range widths {
			res := runAtWorkers(sc, iw)
			if got := pdesFingerprint(t, res); string(got) != string(want) {
				t.Fatalf("cell %d (%s): IntraWorkers=%d diverges from sequential\nseq: %s\ngot: %s",
					i, sc.Name, iw, want, got)
			}
			if res.Events != seq.Events {
				t.Fatalf("cell %d (%s): IntraWorkers=%d executed %d events, sequential %d",
					i, sc.Name, iw, res.Events, seq.Events)
			}
		}
	}
}

// Hashchain Light runs partitioned: its batches ride on the hash-batches,
// so no server reads state another partition writes. fig2left's Light cell
// gets a World at IntraWorkers 2 and matches the sequential run.
func TestIntraRunLightPartitioned(t *testing.T) {
	cells, err := EntryScenarios("fig2left", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sc := cells[1]
	if want := "Hashchain Light c=500"; sc.Spec.Label() != want {
		t.Fatalf("fig2left cell 1 is %q, want %q", sc.Spec.Label(), want)
	}
	seq := runAtWorkers(sc, 1)
	if seq.Committed == 0 {
		t.Fatal("the sequential run committed nothing")
	}
	sc.IntraWorkers = 2
	partitioned := false
	par := runBroken(sc, func(engine runner, _ *shard.Deployment) {
		_, partitioned = engine.(*sim.World)
	})
	if !partitioned {
		t.Fatal("Hashchain Light at IntraWorkers 2 ran on one queue")
	}
	if got, want := pdesFingerprint(t, par), pdesFingerprint(t, seq); string(got) != string(want) {
		t.Fatalf("IntraWorkers=2 diverges from sequential\nseq: %s\ngot: %s", want, got)
	}
	if par.Events != seq.Events {
		t.Fatalf("IntraWorkers=2 executed %d events, sequential %d", par.Events, seq.Events)
	}
}

// A deliberately broken home fence — partitions running past pending
// injections and fault events — must be caught by the fingerprint
// comparison, or the sweep above is vacuous. The run still terminates and
// still passes safety (it is a valid schedule of a DIFFERENT scenario
// interleaving); only byte-identity breaks.
func TestIntraRunBrokenFenceDiverges(t *testing.T) {
	cells, err := EntryScenarios("scale_tput", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sc := cells[1] // S=2: sharded, cross-partition traffic, two partitions
	want := pdesFingerprint(t, runShared(t, cells[1:2])[0])

	sc.IntraWorkers = 2
	broken := runBroken(sc, func(engine runner, _ *shard.Deployment) {
		engine.(*sim.World).BreakHomeFenceForTest()
	})
	if got := pdesFingerprint(t, broken); string(got) == string(want) {
		t.Fatalf("sabotaged executor (home fence removed) still matches the sequential fingerprint — the equivalence sweep is vacuous")
	}
}

// The speedup claim at paper scale: the S=8 scale_tput cell at
// IntraWorkers=8 vs 1. Byte-identity is asserted unconditionally; the
// >=4x wall-clock ratio needs 8 real cores, so hosts with fewer skip.
func TestIntraRunSpeedupPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale cell; skipped under -short")
	}
	if runtime.NumCPU() < 8 {
		t.Skipf("have %d CPUs, need 8 for the wall-clock claim", runtime.NumCPU())
	}
	cells, err := EntryScenarios("scale_tput", 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := cells[3] // S=8
	w1 := timedRun(t, sc, 1)
	w8 := timedRun(t, sc, 8)
	if got, want := pdesFingerprint(t, w8.res), pdesFingerprint(t, w1.res); string(got) != string(want) {
		t.Fatalf("IntraWorkers=8 diverges from sequential at paper scale\nseq: %s\ngot: %s", want, got)
	}
	speedup := w1.wall.Seconds() / w8.wall.Seconds()
	t.Logf("S=8 paper-scale wall-clock: IW=1 %.2fs, IW=8 %.2fs, speedup %.2fx", w1.wall.Seconds(), w8.wall.Seconds(), speedup)
	if speedup < 4 {
		t.Fatalf("IntraWorkers=8 speedup %.2fx < 4x on %d CPUs", speedup, runtime.NumCPU())
	}
}
