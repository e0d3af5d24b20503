package harness

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/spec"
)

// Harness tests run at reduced scale: rates and send windows shrink
// together, which preserves saturation relationships against the ledger
// capacity (a rate above an algorithm's ceiling remains above it).
//
// Under -short the slowest stress tests shrink their send window further
// (sending rates stay put, so every above-ceiling relationship the
// assertions rely on is preserved) and the whole package finishes in a few
// seconds.

// EntryScenarios expands a registry entry into its executable scenarios
// at the given scale.
func EntryScenarios(name string, scale float64) ([]Scenario, error) {
	e, ok := spec.Get(name)
	if !ok {
		return nil, fmt.Errorf("no registry entry %q", name)
	}
	if len(e.Cells) == 0 {
		return nil, fmt.Errorf("entry %q is analytic: it has no simulation cells", name)
	}
	return FromSpecs(e.Cells, scale)
}

// entryCells returns the cells of a registry entry fixed at compile time.
func entryCells(t *testing.T, name string) []spec.ScenarioSpec {
	t.Helper()
	e, ok := spec.Get(name)
	if !ok {
		t.Fatalf("no registry entry %q", name)
	}
	return e.Cells
}

// shortWindow returns the full window, or the reduced one under -short.
func shortWindow(full, short time.Duration) time.Duration {
	if testing.Short() {
		return short
	}
	return full
}

// fromSpec converts a spec literal the way every run does — spec.WithDefaults
// fills it, FromSpec translates it — failing the test on a bad spec.
func fromSpec(t *testing.T, sp spec.ScenarioSpec) Scenario {
	t.Helper()
	sc, err := FromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// runBroken runs sc the way Run does, except that sabotage gets the
// deployment between Deploy and the run: a sabotage test breaks the
// instance it deployed, and no other.
func runBroken(sc Scenario, sabotage func(d *shard.Deployment)) *Result {
	sc = sc.withDefaults()
	s, d, gen := Deploy(sc)
	sabotage(d)
	return drive(sc, s, d, gen)
}

func TestAlgSpecLabels(t *testing.T) {
	cases := map[string]AlgSpec{
		"Vanilla":                 {Alg: core.Vanilla},
		"Compresschain c=100":     {Alg: core.Compresschain, Collector: 100},
		"Hashchain c=500":         {Alg: core.Hashchain, Collector: 500},
		"Hashchain Light c=500":   {Alg: core.Hashchain, Collector: 500, Light: true},
		"Compresschain Light c=5": {Alg: core.Compresschain, Collector: 5, Light: true},
	}
	for want, spec := range cases {
		if got := spec.Label(); got != want {
			t.Fatalf("label = %q, want %q", got, want)
		}
	}
}

func TestAnalyticalThroughputMatchesModel(t *testing.T) {
	if v := (AlgSpec{Alg: core.Vanilla}).AnalyticalThroughput(10); v < 950 || v > 960 {
		t.Fatalf("Vanilla analytic = %v, want ~955", v)
	}
	if v := (AlgSpec{Alg: core.Hashchain, Collector: 500}).AnalyticalThroughput(10); v < 147000 || v > 149000 {
		t.Fatalf("Hashchain c=500 analytic = %v, want ~147857", v)
	}
}

func TestRunUnstressedReachesFullEfficiency(t *testing.T) {
	// 300 el/s Hashchain c=100 is far below every ceiling: everything must
	// commit within the 2×SendFor window.
	res := Run(fromSpec(t, spec.ScenarioSpec{Algorithm: spec.AlgHashchain, Rate: 300,
		SendFor: spec.Duration(20 * time.Second), Horizon: spec.Duration(80 * time.Second), Servers: 4}))
	if res.Injected == 0 {
		t.Fatal("nothing injected")
	}
	if res.Committed != res.Injected {
		t.Fatalf("committed %d of %d", res.Committed, res.Injected)
	}
	if res.Eff100 < 0.999 {
		t.Fatalf("eff@2x = %v, want 1.0", res.Eff100)
	}
	if len(res.Series) == 0 {
		t.Fatal("no throughput series")
	}
	if _, ok := res.CommitFrac[50]; !ok {
		t.Fatal("50% commit time missing despite full commit")
	}
}

// Every element Server.Add accepts reaches the ledger, even on a stream of
// elements up to 2 MB against a 0.5 MiB block. A transaction larger than a
// block is refused at pool admission (Reap stops at the first transaction
// that does not fit, so one that fits no block would hold back every pool
// behind it), so an element whose own transaction exceeds a block is
// refused at Add, with an error its client sees and counted in Rejected,
// and a Compresschain batch closes before its transaction would exceed a
// block. Before, Add accepted all 500 and Vanilla committed 494,
// Compresschain 486, with safety reading ok: the rest were lost silently.
// Hashchain's batches travel off the ledger and refuse nothing.
func TestOversizedTxDoesNotStallTheLedger(t *testing.T) {
	for _, alg := range []string{spec.AlgVanilla, spec.AlgCompresschain, spec.AlgHashchain} {
		res := Run(fromSpec(t, spec.ScenarioSpec{Name: "hol", Algorithm: alg, Servers: 4, Rate: 50,
			SendFor: spec.Duration(10 * time.Second), Horizon: spec.Duration(60 * time.Second),
			Workload: &spec.WorkloadSpec{SizeMin: 100, SizeMax: 2_000_000, SizeMean: 50_000, SizeStdDev: 150_000}}))
		t.Logf("%s: %d injected, %d refused, %d committed", alg, res.Injected, res.Rejected, res.Committed)
		if res.Injected+res.Rejected != 500 || res.Committed != res.Injected || res.Invariant != nil {
			t.Errorf("%s: committed %d of %d accepted, %d refused; want every accepted element of 500 committed (safety: %v)",
				alg, res.Committed, res.Injected, res.Rejected, res.Invariant)
		}
		if alg == spec.AlgHashchain && res.Rejected != 0 {
			t.Errorf("hashchain refused %d elements, want none", res.Rejected)
		}
	}
}

func TestRunStressedVanillaShowsLowEfficiency(t *testing.T) {
	// 5000 el/s against Vanilla's ~955 el/s capacity: the paper's Fig. 3a
	// "very low efficiency" case. Scaled to a 15 s window (8 s under
	// -short; the 5x overload makes the assertion insensitive to it).
	send := shortWindow(15*time.Second, 8*time.Second)
	res := Run(fromSpec(t, spec.ScenarioSpec{Algorithm: spec.AlgVanilla, Rate: 5000,
		SendFor: spec.Duration(send), Horizon: spec.Duration(3 * send)}))
	if res.Eff50 > 0.3 {
		t.Fatalf("stressed Vanilla eff@send-end = %v, want << 1", res.Eff50)
	}
	if res.Committed == 0 {
		t.Fatal("stressed Vanilla committed nothing at all")
	}
}

func TestAlgorithmOrderingUnderLoad(t *testing.T) {
	// The paper's central result at 5,000 el/s (Fig. 1 left / Table 2):
	// Vanilla << Compresschain << Hashchain in average throughput to the
	// end of sending.
	send := shortWindow(20*time.Second, 10*time.Second)
	run := func(alg string) *Result {
		return Run(fromSpec(t, spec.ScenarioSpec{Algorithm: alg, Rate: 5000,
			SendFor: spec.Duration(send), Horizon: spec.Duration(3 * send)}))
	}
	rv, rc, rh := run(spec.AlgVanilla), run(spec.AlgCompresschain), run(spec.AlgHashchain)
	if !(rv.AvgTput < rc.AvgTput && rc.AvgTput < rh.AvgTput) {
		t.Fatalf("ordering violated: V=%.0f C=%.0f H=%.0f", rv.AvgTput, rc.AvgTput, rh.AvgTput)
	}
	// Hashchain should be at least 4x Compresschain here (paper: 4183 vs
	// 996) and Compresschain at least 3x Vanilla (996 vs 171).
	if rh.AvgTput < 3*rc.AvgTput {
		t.Fatalf("Hashchain %f not >> Compresschain %f", rh.AvgTput, rc.AvgTput)
	}
	if rc.AvgTput < 2*rv.AvgTput {
		t.Fatalf("Compresschain %f not >> Vanilla %f", rc.AvgTput, rv.AvgTput)
	}
}

func TestNetworkDelayReducesEfficiency(t *testing.T) {
	// Fig. 3c: adding 100 ms to every message slows consensus and reduces
	// efficiency under stress.
	send := shortWindow(15*time.Second, 8*time.Second)
	sp := spec.ScenarioSpec{Algorithm: spec.AlgCompresschain, Rate: 5000,
		SendFor: spec.Duration(send), Horizon: spec.Duration(3 * send)}
	base := Run(fromSpec(t, sp))
	sp.NetworkDelay = spec.Duration(100 * time.Millisecond)
	delayed := Run(fromSpec(t, sp))
	if delayed.Eff100 >= base.Eff100 {
		t.Fatalf("delay did not hurt efficiency: %v vs %v", delayed.Eff100, base.Eff100)
	}
	if delayed.Blocks >= base.Blocks {
		t.Fatalf("delay did not slow the ledger: %d vs %d blocks", delayed.Blocks, base.Blocks)
	}
}

func TestHashchainCeilingAblation(t *testing.T) {
	// Fig. 2 (left) in miniature: with hash-reversal on, Hashchain commits
	// near its CPU ceiling; the Light variant far exceeds it at the same
	// (high) sending rate.
	// 40k el/s is 2x the ~20k validation ceiling but well below the Light
	// variant's ~150k ceiling, so the gap is unambiguous even with a short
	// send window.
	send := shortWindow(15*time.Second, 8*time.Second)
	sp := spec.ScenarioSpec{Algorithm: spec.AlgHashchain, Collector: 500, Rate: 40000,
		SendFor: spec.Duration(send), Horizon: spec.Duration(4 * send)}
	heavy := Run(fromSpec(t, sp))
	sp.Light = true
	light := Run(fromSpec(t, sp))
	if light.Eff50 <= heavy.Eff50 {
		t.Fatalf("Light (%.2f) not better than full (%.2f) at 25k el/s",
			light.Eff50, heavy.Eff50)
	}
	// In a short window the ~4 s commit pipeline dominates eff@send-end;
	// the ceiling-free variant must still clear everything by 1.5x.
	if light.Eff75 < 0.99 {
		t.Fatalf("Light eff@1.5x = %v, want ~1 (no validation ceiling)", light.Eff75)
	}
	// The validation ceiling (~20k el/s < the 25k send rate) must visibly
	// depress the full variant at send-end even at this small scale.
	if heavy.Eff50 > 0.8*light.Eff50 {
		t.Fatalf("full Hashchain eff@send-end %.2f not depressed vs Light %.2f",
			heavy.Eff50, light.Eff50)
	}
}

func TestScaleShrinksRun(t *testing.T) {
	sc, err := FromSpecScaled(spec.ScenarioSpec{Algorithm: spec.AlgHashchain, Rate: 1000,
		Horizon: spec.Duration(300 * time.Second)}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(sc)
	// 1000 el/s * 0.1 for 5 s => ~500 elements.
	if res.Injected < 400 || res.Injected > 600 {
		t.Fatalf("scaled injection = %d, want ~500", res.Injected)
	}
}

// The run-time scale gets the spec layer's rule: finite and >= 0, with 0
// meaning 1. A negative or NaN scale used to convert into a cell that sent
// nothing and passed every check.
func TestFromSpecScaledValidatesScale(t *testing.T) {
	cell := entryCells(t, "chaos_crash")[0]
	for _, bad := range []float64{-1, -0.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := FromSpecScaled(cell, bad); err == nil {
			t.Errorf("FromSpecScaled accepted scale %v", bad)
		}
	}
	zero, err := FromSpecScaled(cell, 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := FromSpecScaled(cell, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, one) {
		t.Errorf("scale 0 and scale 1 convert differently:\n%+v\n%+v", zero, one)
	}
	// The spec is validated at the scale it runs at: a cell exactly at the
	// offered-load bound passes at scale 1 and is refused just above it.
	atBound := spec.ScenarioSpec{Algorithm: spec.AlgVanilla, Servers: 2, Rate: 2e6, SendFor: spec.Duration(100 * time.Second)}
	if _, err := FromSpecScaled(atBound, 1); err != nil {
		t.Errorf("cell at the offered-load bound refused at scale 1: %v", err)
	}
	if _, err := FromSpecScaled(atBound, 1.001); err == nil {
		t.Error("cell past the offered-load bound at run-time scale 1.001 accepted")
	}
	// So is the explicit horizon, which the run-time scale stretches: ten
	// servers idling for 10⁶ blocks, one per consensus.TimeoutCommit, are
	// exactly the idle-consensus bound.
	longHorizon := spec.ScenarioSpec{Algorithm: spec.AlgVanilla, Servers: 10, Rate: 1,
		SendFor: spec.Duration(time.Second), Horizon: spec.Duration(1_000_000 * consensus.TimeoutCommit)}
	if _, err := FromSpecScaled(longHorizon, 1); err != nil {
		t.Errorf("cell at the idle-consensus bound refused at scale 1: %v", err)
	}
	if _, err := FromSpecScaled(longHorizon, 1.001); err == nil {
		t.Error("cell past the idle-consensus bound at run-time scale 1.001 accepted")
	}
}

func TestLatencyStudySmall(t *testing.T) {
	results, err := RunSpecs(entryCells(t, "fig4"), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3 algorithms", len(results))
	}
	stageLats := func(res *Result, st metrics.Stage) []time.Duration {
		lats, _ := res.Recorder.LatencyCDF(st)
		return lats
	}
	for _, res := range results {
		label := res.Scenario.Spec.Label()
		// Commit latency must be populated and the commit CDF must reach
		// (nearly) everything at this low rate.
		lats, reach := res.Recorder.LatencyCDF(metrics.StageCommitted)
		if len(lats) == 0 {
			t.Fatalf("%s: no commit latencies", label)
		}
		if reach < 0.99 {
			t.Fatalf("%s: commit CDF reaches only %.2f", label, reach)
		}
		// Stage ordering: median first-mempool <= median ledger <= median
		// committed.
		med := func(st metrics.Stage) time.Duration {
			return metrics.LatencyQuantile(stageLats(res, st), 0.5)
		}
		if !(med(metrics.StageFirstMempool) <= med(metrics.StageLedger) &&
			med(metrics.StageLedger) <= med(metrics.StageCommitted)) {
			t.Fatalf("%s: stage medians out of order: %v %v %v", label,
				med(metrics.StageFirstMempool), med(metrics.StageLedger),
				med(metrics.StageCommitted))
		}
	}
	// Commit latency below 4 s with probability ~1 for Compresschain and
	// Hashchain (the paper's headline finality claim).
	for _, res := range results[1:] {
		p95 := metrics.LatencyQuantile(stageLats(res, metrics.StageCommitted), 0.95)
		if p95 > 6*time.Second {
			t.Fatalf("%s: p95 commit latency %v, want within seconds", res.Scenario.Spec.Label(), p95)
		}
	}
}

func TestPaperGridMatchesTable1(t *testing.T) {
	g := spec.PaperGrid()
	if len(g.SendingRates) != 4 || len(g.Collectors) != 2 ||
		len(g.ServerCounts) != 3 || len(g.NetworkDelays) != 3 {
		t.Fatalf("grid dimensions wrong: %+v", g)
	}
}

// Fig. 1's cells form three panels by Group — (left) 5,000 el/s with all
// three algorithms, (center) 10,000 el/s at c=100, (right) 10,000 el/s at
// c=500 — and convert to scenarios with those parameters; Table 2 reads the
// same cells.
func TestFig1PanelsShape(t *testing.T) {
	type cell struct {
		Panel   string
		Rate    float64
		Spec    AlgSpec
		Horizon time.Duration
	}
	want := []cell{
		{"left", 5000, AlgSpec{Alg: core.Vanilla}, 350 * time.Second},
		{"left", 5000, AlgSpec{Alg: core.Compresschain, Collector: 100}, 350 * time.Second},
		{"left", 5000, AlgSpec{Alg: core.Hashchain, Collector: 100}, 350 * time.Second},
		{"center", 10000, AlgSpec{Alg: core.Compresschain, Collector: 100}, 350 * time.Second},
		{"center", 10000, AlgSpec{Alg: core.Hashchain, Collector: 100}, 350 * time.Second},
		{"right", 10000, AlgSpec{Alg: core.Compresschain, Collector: 500}, 250 * time.Second},
		{"right", 10000, AlgSpec{Alg: core.Hashchain, Collector: 500}, 250 * time.Second},
	}
	cells := entryCells(t, "fig1")
	scs, err := FromSpecs(cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []cell
	for i, sc := range scs {
		got = append(got, cell{cells[i].Group, sc.Rate, sc.Spec, sc.Horizon})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Fig. 1 cells:\n got: %+v\nwant: %+v", got, want)
	}
	if !reflect.DeepEqual(entryCells(t, "table2"), cells) {
		t.Fatal("table2 cells diverged from fig1")
	}
}
