package harness

import (
	"testing"
	"time"

	"repro/internal/spec"
)

// resultFingerprint delegates to the production Fingerprint (which the
// intra-run PDES probe in cmd/setchain-bench also uses), keeping one
// definition of the byte-identity contract.
func resultFingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	return Fingerprint(res)
}

// The parallel executor must yield byte-identical results to the
// sequential path for a fixed seed, regardless of worker count.
func TestRunManyMatchesSequential(t *testing.T) {
	cell := func(alg string, rate float64, seed int64) Scenario {
		return fromSpec(t, spec.ScenarioSpec{Algorithm: alg, Rate: rate, Seed: seed,
			SendFor: spec.Duration(8 * time.Second), Horizon: spec.Duration(30 * time.Second)})
	}
	scs := []Scenario{
		cell(spec.AlgHashchain, 600, 7),
		cell(spec.AlgCompresschain, 600, 7),
		cell(spec.AlgVanilla, 300, 7),
		cell(spec.AlgHashchain, 600, 8),
	}
	sequential := make([][]byte, len(scs))
	for i, sc := range scs {
		sequential[i] = resultFingerprint(t, Run(sc))
	}
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		parallel := RunMany(scs)
		SetWorkers(0)
		if len(parallel) != len(scs) {
			t.Fatalf("workers=%d: results = %d, want %d", workers, len(parallel), len(scs))
		}
		for i, res := range parallel {
			if got := resultFingerprint(t, res); string(got) != string(sequential[i]) {
				t.Fatalf("workers=%d: cell %d diverges from sequential run\nseq: %s\npar: %s",
					workers, i, sequential[i], got)
			}
		}
	}
}

// Re-running the same scenario must be deterministic (the simulator draws
// randomness only from the scenario seed), and different seeds must
// actually change the event schedule.
func TestRunDeterministicPerSeed(t *testing.T) {
	sc := fromSpec(t, spec.ScenarioSpec{Algorithm: spec.AlgHashchain, Rate: 500,
		SendFor: spec.Duration(6 * time.Second), Horizon: spec.Duration(20 * time.Second), Seed: 42})
	a, b := Run(sc), Run(sc)
	if a.Events != b.Events || a.Committed != b.Committed {
		t.Fatalf("same seed diverged: events %d vs %d, committed %d vs %d",
			a.Events, b.Events, a.Committed, b.Committed)
	}
	sc.Seed = 43
	c := Run(sc)
	if c.Events == a.Events && c.Committed == a.Committed && c.Blocks == a.Blocks {
		t.Log("seed change produced identical counters (possible but unlikely); not failing")
	}
}

func TestWorkersOverride(t *testing.T) {
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("default Workers() = %d, want >= 1", Workers())
	}
	t.Setenv("SETCHAIN_WORKERS", "5")
	if Workers() != 5 {
		t.Fatalf("Workers() = %d with SETCHAIN_WORKERS=5", Workers())
	}
}

// The automatic worker count must shrink for memory-heavy cells (a
// paper-scale cell materializes millions of elements) and stay at the
// CPU-derived default for small ones; explicit overrides bypass the cap.
func TestAutoWorkersCapsMemoryHeavyCells(t *testing.T) {
	small := []Scenario{fromSpec(t, spec.ScenarioSpec{Algorithm: spec.AlgHashchain, Rate: 500,
		SendFor: spec.Duration(10 * time.Second)})}
	if got := autoWorkers(small); got < 1 {
		t.Fatalf("autoWorkers(small) = %d, want >= 1", got)
	}
	// 150k el/s for 50 s = 7.5M elements: two of them exceed the in-flight
	// budget, so only one such cell may run at a time.
	cell := fromSpec(t, spec.ScenarioSpec{Algorithm: spec.AlgHashchain, Collector: 500, Rate: 150000})
	huge := []Scenario{cell, cell}
	if got := autoWorkers(huge); got != 1 {
		t.Fatalf("autoWorkers(huge) = %d, want 1 (two 7.5M-element cells exceed the budget)", got)
	}
}
