package report

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
)

var update = flag.Bool("update", false, "rewrite golden files")

// miniCatalog is a small fixed-seed registry standing in for the real
// one: a throughput entry with a line-plot figure, a grid entry with a
// bar figure, and a stage-latency entry — every rendering path RESULTS.md
// exercises, at a fraction of the runtime.
func miniCatalog() []spec.Entry {
	mini := func(alg string, rate float64, group string) spec.ScenarioSpec {
		return spec.ScenarioSpec{
			Algorithm: alg, Rate: rate, Servers: 4, Group: group,
			SendFor: spec.Duration(4 * time.Second),
			Horizon: spec.Duration(20 * time.Second),
		}
	}
	stages := mini(spec.AlgHashchain, 400, "")
	stages.Metrics = spec.MetricsStages
	defRefs := func(rs []spec.Reference) []spec.Reference {
		for i := range rs {
			rs[i] = rs[i].WithDefaults()
		}
		return rs
	}
	return []spec.Entry{
		{
			Name: "mini_analytic", Title: "Closed-form only", Figure: "—",
			Description: "No cells; must not render measurement tables.",
		},
		{
			Name: "mini_tput", Title: "Throughput pair", Figure: "Fig. T",
			Cells: []spec.ScenarioSpec{
				mini(spec.AlgVanilla, 300, "pair"),
				mini(spec.AlgHashchain, 300, "pair"),
			},
			Refs: defRefs([]spec.Reference{
				{Cell: 0, Metric: spec.MetricAvgTput, Value: 250, Tolerance: 0.3,
					Source: spec.SourceModel, Note: "rate-limited"},
				{Cell: 1, Metric: spec.MetricEff2x, Value: 1, Tolerance: 0.05},
			}),
		},
		{
			Name: "mini_grid", Title: "Grid", Figure: "Fig. G",
			Cells: []spec.ScenarioSpec{
				mini(spec.AlgHashchain, 200, "200 el/s"),
				mini(spec.AlgHashchain, 400, "400 el/s"),
			},
			Refs: defRefs([]spec.Reference{
				{Cell: 1, Metric: spec.MetricEff2x, Value: 1, Tolerance: 0.05,
					Source: spec.SourceRepo},
			}),
		},
		{
			Name: "mini_lat", Title: "Latency", Figure: "Fig. L",
			Cells: []spec.ScenarioSpec{stages},
			Refs: defRefs([]spec.Reference{
				{Cell: 0, Metric: spec.MetricP99CommitS, Value: 4, Tolerance: 0.1,
					Compare: spec.CompareMax, Note: "finality bound"},
			}),
		},
	}
}

// withMiniFigures routes the mini entries through the figure renderers
// (package-level maps keyed by entry name) for the duration of f.
func withMiniFigures(t *testing.T, f func()) {
	t.Helper()
	SeriesEntries["mini_tput"] = true
	barEntries["mini_grid"] = spec.MetricEff2x
	defer func() {
		delete(SeriesEntries, "mini_tput")
		delete(barEntries, "mini_grid")
	}()
	f()
}

// TestGoldenResults pins the full rendering pipeline byte-for-byte:
// collect the mini catalog at two scales on fixed seeds, render, and
// compare against the golden file. Regenerate with
//
//	go test ./internal/report -run TestGoldenResults -update
func TestGoldenResults(t *testing.T) {
	withMiniFigures(t, func() {
		paper, err := Collect(miniCatalog(), 1)
		if err != nil {
			t.Fatal(err)
		}
		paper.Provenance.Git = "v-golden-fixed"
		reduced, err := Collect(miniCatalog(), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := Render(miniCatalog(), paper, reduced, Options{
			GeneratedBy:       "internal/report golden test",
			PaperArtifactPath: "testdata/golden_paper.json",
			ReducedScale:      0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", "golden_results.md")
		if *update {
			if err := os.WriteFile(golden, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
			// The paper-side artifact is golden too: its JSON encoding must
			// be as stable as the rendering.
			blob, err := paper.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("testdata", "golden_paper.json"), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if doc != string(want) {
			t.Fatalf("rendered report drifted from %s (run with -update after verifying the change)\n--- got ---\n%s",
				golden, doc)
		}
		wantBlob, err := os.ReadFile(filepath.Join("testdata", "golden_paper.json"))
		if err != nil {
			t.Fatal(err)
		}
		gotBlob, err := paper.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(gotBlob) != string(wantBlob) {
			t.Fatal("collected artifact JSON drifted from testdata/golden_paper.json (run with -update after verifying)")
		}
	})
}

// Render must refuse artifacts that no longer describe the catalog.
func TestRenderRejectsStaleArtifact(t *testing.T) {
	catalog := miniCatalog()
	paper, err := Collect(catalog, 1)
	if err != nil {
		t.Fatal(err)
	}
	reduced := paper

	missing := append([]spec.Entry(nil), catalog...)
	missing = append(missing, spec.Entry{
		Name: "mini_new", Title: "Added after the artifact", Figure: "—",
		Cells: []spec.ScenarioSpec{{
			Algorithm: spec.AlgVanilla, Rate: 100,
			SendFor: spec.Duration(2 * time.Second),
			Horizon: spec.Duration(10 * time.Second),
		}},
		Refs: []spec.Reference{{Cell: 0, Metric: spec.MetricEff2x, Value: 1,
			Tolerance: 0.1, Compare: spec.CompareBand, Source: spec.SourceRepo}},
	})
	if _, err := Render(missing, paper, reduced, Options{}); err == nil ||
		!strings.Contains(err.Error(), "mini_new") {
		t.Fatalf("missing entry must fail rendering, got %v", err)
	}

	edited := miniCatalog()
	edited[1].Cells[0].Rate = 999 // parameter change invalidates measurements
	if _, err := Render(edited, paper, reduced, Options{}); err == nil ||
		!strings.Contains(err.Error(), "different spec") {
		t.Fatalf("edited cell must fail rendering, got %v", err)
	}

	// A reference whose metric the cell never measured constrains nothing
	// and must fail loudly, not render as an empty row.
	unmeasured := miniCatalog()
	unmeasured[1].Refs = append(unmeasured[1].Refs, spec.Reference{
		Cell: 0, Metric: spec.MetricP50CommitS, Value: 1, Tolerance: 0.1,
		Compare: spec.CompareBand, Source: spec.SourceRepo,
	})
	if _, err := Render(unmeasured, paper, reduced, Options{}); err == nil ||
		!strings.Contains(err.Error(), "not measured") {
		t.Fatalf("unmeasured reference must fail rendering, got %v", err)
	}
}

// ValidateAgainst is setchain-report's check, before any simulation, that
// the committed artifact still covers the catalog: it refuses an artifact
// without a simulated entry's record, and one whose cell ran another spec
// than the registry's defaulted one, naming the entry either way. The
// analytic entry needs no record.
func TestValidateAgainstRefusesStaleArtifact(t *testing.T) {
	catalog := miniCatalog()
	artifact := func() *Artifact {
		a := &Artifact{}
		for _, e := range catalog {
			if len(e.Cells) == 0 {
				continue
			}
			rec := ExperimentRecord{Name: e.Name}
			for i, c := range e.Cells {
				rec.Cells = append(rec.Cells, CellRecord{Index: i, Spec: c.WithDefaults()})
			}
			a.Experiments = append(a.Experiments, rec)
		}
		return a
	}
	if err := ValidateAgainst(catalog, artifact()); err != nil {
		t.Fatalf("an artifact recorded from the catalog refused: %v", err)
	}

	missing := artifact()
	missing.Experiments = slices.DeleteFunc(missing.Experiments,
		func(r ExperimentRecord) bool { return r.Name == "mini_grid" })
	if err := ValidateAgainst(catalog, missing); err == nil || !strings.Contains(err.Error(), `"mini_grid"`) {
		t.Errorf("artifact without mini_grid's record: ValidateAgainst = %v, want an error naming it", err)
	}

	stale := artifact()
	stale.Experiments[0].Cells[1].Spec.Rate = 999
	if err := ValidateAgainst(catalog, stale); err == nil ||
		!strings.Contains(err.Error(), `"mini_tput"`) || !strings.Contains(err.Error(), "different spec") {
		t.Errorf("artifact with an edited mini_tput cell: ValidateAgainst = %v, want a different-spec error naming it", err)
	}
}

// Collect must simulate shared cells once but report them under every
// owning entry.
func TestCollectDeduplicatesSharedCells(t *testing.T) {
	catalog := miniCatalog()[1:3] // mini_tput + mini_grid share no cells
	twin := spec.Entry{
		Name: "mini_twin", Title: "Same cells as mini_grid", Figure: "—",
		Cells: miniCatalog()[2].Cells,
		Refs:  miniCatalog()[2].Refs,
	}
	art, err := Collect(append(catalog, twin), 1)
	if err != nil {
		t.Fatal(err)
	}
	grid, _ := art.Experiment("mini_grid")
	dup, _ := art.Experiment("mini_twin")
	if len(grid.Cells) != 2 || len(dup.Cells) != 2 {
		t.Fatalf("cells: grid %d, twin %d, want 2 and 2", len(grid.Cells), len(dup.Cells))
	}
	for i := range grid.Cells {
		a, b := grid.Cells[i].Measurements, dup.Cells[i].Measurements
		for k, v := range a {
			if b[k] != v {
				t.Fatalf("shared cell %d measurement %s differs: %g vs %g", i, k, v, b[k])
			}
		}
	}
}
