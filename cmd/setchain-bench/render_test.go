package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/spec"
)

var update = flag.Bool("update", false, "rewrite testdata/render/*.txt from this build")

// paperEntries are the registry entries with a figure-specific renderer:
// Table 1–2, Figs. 1–5 and Appendix D.1.
var paperEntries = []string{
	"table1", "table2", "fig1", "fig2left", "fig2right",
	"fig3a", "fig3b", "fig3c", "fig4", "fig5a", "fig5b", "fig5c", "d1",
}

// renderScale keeps all thirteen entries to a few seconds; every renderer
// still prints its full set of titles, labels, rows, bars and curves.
const renderScale = "0.02"

// doneLine is the one line of a run's stdout that carries wall-clock time.
var doneLine = regexp.MustCompile(`(?m)^\[\S+ done in [^\]]*\]$`)

// tableSpec is the -spec document behind the generic results table's
// golden run. Its two cells turn on every optional column whose figures are
// the same on any host: S with the per-shard breakdown, Ckpts/Syncs,
// Faults, Offered/Rej%/Fair and p50/p99 commit, and one of them is
// group-prefixed. Heap MiB is left out: a live-heap reading is the host's.
var tableSpec = filepath.Join("testdata", "render", "table.json")

// TestGoldenRender pins what setchain-bench prints for every paper entry,
// byte for byte: the stdout of `-exp <entry> -scale 0.02` must equal
// testdata/render/<entry>.txt (the "[<entry> done in …]" line blanked).
// The files were written by this test, with -update, against the last
// main.go whose renderers each ran their own study function; a renderer
// refactor that moves a title, a label, a row or a plotted point fails here.
// The "table" case does the same for `-spec testdata/render/table.json`,
// the results table every other entry, -spec and -matrix run prints
// through; table.txt was written before that renderer was last refactored.
// Regenerate with `go test ./cmd/setchain-bench -run TestGoldenRender
// -update` only for a change that is meant to alter the output.
func TestGoldenRender(t *testing.T) {
	runs := [][2]string{{"table", "-spec " + tableSpec}}
	for _, name := range paperEntries {
		runs = append(runs, [2]string{name, "-exp " + name + " -scale " + renderScale})
	}
	for _, run := range runs {
		name := run[0]
		t.Run(name, func(t *testing.T) {
			stdout, stderr, exit := runBench(t, run[1])
			if exit != 0 {
				t.Fatalf("exit %d, stderr %q", exit, stderr)
			}
			got := doneLine.ReplaceAllString(stdout, "[done]")
			path := filepath.Join("testdata", "render", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("stdout differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}

// A Fig. 1 panel's title names the rate its cells ran at, read from the
// results: `-exp fig1 -scale 0` (0 means 1) used to multiply the nominal
// rate by the raw flag and title every panel "rate 0 el/s".
func TestFig1TitleTakesRateFromResults(t *testing.T) {
	result := func(spec harness.AlgSpec, rate float64) *harness.Result {
		return &harness.Result{Scenario: harness.Scenario{Spec: spec, Rate: rate}, Analytical: 955}
	}
	e := spec.Entry{Name: "fig1", Cells: []spec.ScenarioSpec{
		{Group: "left"}, {Group: "left"}, {Group: "right"},
	}}
	var out strings.Builder
	renderFig1(&out, e, []*harness.Result{
		result(harness.AlgSpec{Alg: core.Vanilla}, 5000),
		result(harness.AlgSpec{Alg: core.Hashchain, Collector: 100}, 5000),
		result(harness.AlgSpec{Alg: core.Hashchain, Collector: 500}, 10000),
	})
	for _, want := range []string{
		"Fig. 1 (left): throughput over time — rate 5000 el/s, c=100, 10 servers",
		"Fig. 1 (right): throughput over time — rate 10000 el/s, c=500, 10 servers",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks the title %q:\n%s", want, out.String())
		}
	}
	if n := strings.Count(out.String(), "Fig. 1 ("); n != 2 {
		t.Errorf("%d panels rendered, want 2 (cells sharing a Group form one)", n)
	}
}
