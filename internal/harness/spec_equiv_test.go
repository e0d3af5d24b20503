package harness

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/spec"
)

// This file pins the spec layer to the executor: a scenario file and the
// registry entry it mirrors run identically, FromSpec drops no field, and
// a Byzantine spec runs the same through Run and through RunSpecs. (What
// each registry cell is and measures is pinned by the generated
// EXPERIMENTS.md and RESULTS.md, and cell 0 of every entry by
// TestGoldenFingerprints.)

// metricsOf projects a Result onto its measurement fields (everything
// except the input scenario and the recorder handle).
func metricsOf(r *Result) map[string]any {
	return map[string]any{
		"injected":   r.Injected,
		"committed":  r.Committed,
		"eff50":      r.Eff50,
		"eff75":      r.Eff75,
		"eff100":     r.Eff100,
		"avgTput":    r.AvgTput,
		"series":     r.Series,
		"commitFrac": r.CommitFrac,
		"analytical": r.Analytical,
		"blocks":     r.Blocks,
		"events":     r.Events,
	}
}

func TestSpecFileMatchesRegistryFig4(t *testing.T) {
	cells, err := spec.LoadFile("../../examples/specs/fig4.json")
	if err != nil {
		t.Fatal(err)
	}
	want := entryCells(t, "fig4")
	if len(cells) != len(want) {
		t.Fatalf("file has %d cells, registry %d", len(cells), len(want))
	}
	for i := range cells {
		if !reflect.DeepEqual(cells[i], want[i].WithDefaults()) {
			t.Fatalf("cell %d diverged:\nfile:     %+v\nregistry: %+v",
				i, cells[i], want[i].WithDefaults())
		}
	}
}

func TestSpecRunMatchesRegistryRun(t *testing.T) {
	// The acceptance check behind `setchain-bench -spec examples/specs/
	// fig4.json`: running the file-loaded spec and the registry entry must
	// yield identical metrics.
	const scale = 0.02
	cells, err := spec.LoadFile("../../examples/specs/fig4.json")
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := RunSpecs(cells, scale)
	if err != nil {
		t.Fatal(err)
	}
	fromRegistry, err := RunSpecs(entryCells(t, "fig4"), scale)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fromFile {
		if !reflect.DeepEqual(metricsOf(fromFile[i]), metricsOf(fromRegistry[i])) {
			t.Fatalf("cell %d: spec-file metrics diverged from registry run:\nfile:     %+v\nregistry: %+v",
				i, metricsOf(fromFile[i]), metricsOf(fromRegistry[i]))
		}
		// Stage CDFs come from the recorder; spot-check the commit stage.
		a, af := fromFile[i].Recorder.LatencyCDF(metrics.StageCommitted)
		b, bf := fromRegistry[i].Recorder.LatencyCDF(metrics.StageCommitted)
		if !reflect.DeepEqual(a, b) || af != bf {
			t.Fatalf("cell %d: commit-stage CDF diverged", i)
		}
	}
}

func TestFromSpecMapsEveryField(t *testing.T) {
	sp := spec.ScenarioSpec{
		Name:         "mapped",
		Algorithm:    spec.AlgHashchain,
		Collector:    500,
		Light:        true,
		Servers:      16,
		Rate:         25000,
		SendFor:      spec.Duration(40 * time.Second),
		Horizon:      spec.Duration(200 * time.Second),
		NetworkDelay: spec.Duration(30 * time.Millisecond),
		Bandwidth:    12.5e6,
		Seed:         7,
		Scale:        0.5,
		Metrics:      spec.MetricsStages,
		Crypto:       spec.CryptoFull,
		Workload:     &spec.WorkloadSpec{SizeMean: 438, SizeStdDev: 753.5, SizeMin: 96, SizeMax: 16384, Tick: spec.Duration(5 * time.Millisecond)},
		Byzantine:    &spec.ByzantineSpec{Faulty: 2, Behaviors: []string{spec.BehaviorWithholdBatches}},
	}
	sc, err := FromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Spec.Alg != core.Hashchain || sc.Spec.Collector != 500 || !sc.Spec.Light ||
		sc.Servers != 16 || sc.Rate != 25000 || sc.SendFor != 40*time.Second ||
		sc.Horizon != 200*time.Second || sc.NetworkDelay != 30*time.Millisecond ||
		sc.Bandwidth != 12.5e6 || sc.Seed != 7 || sc.Scale != 0.5 ||
		sc.Level != metrics.LevelStages || sc.Mode != core.Full ||
		sc.Sizes.Mean != 438 || sc.Tick != 5*time.Millisecond ||
		sc.Byzantine.Faulty != 2 || len(sc.Byzantine.Behaviors) != 1 {
		t.Fatalf("FromSpec dropped fields: %+v", sc)
	}
	// Run-time scaling shrinks explicit horizons.
	scaled, err := FromSpecScaled(sp, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Scale != 0.05 || scaled.Horizon != 20*time.Second {
		t.Fatalf("FromSpecScaled wrong: scale=%v horizon=%v", scaled.Scale, scaled.Horizon)
	}
	if _, err := FromSpec(spec.ScenarioSpec{Algorithm: "nope", Rate: 1}); err == nil {
		t.Fatal("bad algorithm accepted")
	}
}

func TestByzantineScenariosRun(t *testing.T) {
	// Withholding servers sign hashes but never serve batch data, so
	// elements added through them never consolidate: the run must still
	// commit the honest servers' elements.
	sp := spec.ScenarioSpec{
		Algorithm: spec.AlgHashchain, Servers: 7, Rate: 210,
		SendFor: spec.Duration(10 * time.Second), Horizon: spec.Duration(60 * time.Second),
		Byzantine: &spec.ByzantineSpec{Faulty: 1, Behaviors: []string{spec.BehaviorWithholdBatches}},
	}
	withhold := Run(fromSpec(t, sp))
	if withhold.Committed == 0 {
		t.Fatal("withholding server stalled the whole system")
	}
	if withhold.Committed >= withhold.Injected {
		t.Fatalf("withheld batches still committed: %d of %d",
			withhold.Committed, withhold.Injected)
	}

	// A silent (network-down) server is a crash fault well inside the
	// consensus bound for 7 nodes; the system keeps committing.
	silentSpec := sp
	silentSpec.Byzantine = &spec.ByzantineSpec{Faulty: 1, Behaviors: []string{spec.BehaviorSilent}}
	silent := Run(fromSpec(t, silentSpec))
	if silent.Committed == 0 {
		t.Fatal("one silent server of seven stalled the system")
	}

	// The same spec through RunSpecs (the worker pool) runs identically.
	results, err := RunSpecs([]spec.ScenarioSpec{sp}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(metricsOf(results[0]), metricsOf(withhold)) {
		t.Fatalf("spec-layer byzantine run diverged:\nspec:   %+v\ndirect: %+v",
			metricsOf(results[0]), metricsOf(withhold))
	}
}
