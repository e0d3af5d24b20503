package main

import (
	"encoding/json"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// benchmarkFile is BENCHMARK.json's shape; the contract allows exactly
// these keys.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// declared is what BENCHMARK.json must say, built from this package's tables.
func declared() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 10,
		Workloads:  workloads,
		EndToEnd:   endToEndDefs,
		PerLayer:   perLayerDefs,
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := declared()
	if *update {
		blob, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in bench/; run `go test -run TestBenchmarkJSON -update`")
	}

	// The contract's limits on names, units, bounds and counts.
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	hasSetup := false
	for _, d := range want.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range want.PerLayer {
		name(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, want.EndToEnd...), want.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
}

// Every spec file is a declared workload (or differential), loads,
// validates and converts at full scale.
func TestSpecFilesLoad(t *testing.T) {
	files, err := fs.Glob(specFS, "workloads/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(workloads) {
		t.Errorf("%d files under workloads/, %d workloads declared", len(files), len(workloads))
	}
	for _, w := range workloads {
		if _, err := loadScenario(workloadPath(w.Name), 1, 1); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if _, err := loadScenario(pdesSpec, 1, 1); err != nil {
		t.Error(err)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func defNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// A scaled-down run of all five workloads passes the correctness gate, the
// traced driver reproduces harness.Run on each, and the metrics the two
// passes produce are exactly the declared ones.
func TestSmoke(t *testing.T) {
	// mesh50 sends 5 el/s per client for 2 s; below a scale of about a third
	// a client's share of the scaled window rounds to no element at all.
	scales := map[string]float64{"mesh50": 0.35}
	shared := map[string]float64{"sim.pdes_speedup": 0, "sim.pdes_identical": 0}
	for _, cell := range cells {
		cell(shared)
	}
	h := &host{}
	for _, w := range workloads {
		scale := scales[w.Name]
		if scale == 0 {
			scale = 0.05
		}
		m, err := prepare(w, 1, scale, h)
		if err != nil {
			t.Fatal(err)
		}
		m.repeat()
		for _, f := range m.faults {
			t.Errorf("correctness gate: %v", f)
		}
		if got, want := keys(m.endToEnd()), defNames(endToEndDefs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, declared %v", w.Name, got, want)
		}
		tr, err := tracePass(w, 1, scale)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.drift(m.warm); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		layer := map[string]float64{"core.ckpt_overhead_x": 0, "bench.trace_overhead_share": 0}
		for _, part := range []map[string]float64{shared, m.runtimeMetrics(), tr.counts, tr.timings()} {
			for k, v := range part {
				layer[k] = v
			}
		}
		if got, want := keys(layer), defNames(perLayerDefs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics %v, declared %v", w.Name, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want summary
	}{
		{nil, summary{}},
		{[]float64{3}, summary{3, 3, 3, 1}},
		{[]float64{4, 1, 3}, summary{3, 1, 4, 3}},
		{[]float64{4, 1, 3, 2}, summary{2.5, 1, 4, 4}},
	} {
		if got := summarize(tc.in); got != tc.want {
			t.Errorf("summarize(%v) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	in := []float64{2, 1}
	summarize(in)
	if in[0] != 2 {
		t.Error("summarize reordered its input")
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{name: "root", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "b", parent: 0, start: 50 * ms, end: 70 * ms},
		{name: "a.1", parent: 1, start: 15 * ms, end: 20 * ms},
	}}
	for id, want := range []time.Duration{50 * ms, 25 * ms, 20 * ms, 5 * ms} {
		if got := tr.selfTime(id); got != want {
			t.Errorf("self time of %s = %v, want %v", tr.spans[id].name, got, want)
		}
	}
	// do nests under the open span and closes in order.
	live := newTracer()
	outer := live.do("outer", func() { live.do("inner", func() {}) })
	if inner := live.find("inner"); live.spans[inner].parent != outer || live.spans[outer].parent != -1 {
		t.Errorf("spans nested wrongly: %+v", live.spans)
	}
	if live.selfTime(outer) > live.dur(outer) || live.selfTime(outer) < 0 {
		t.Errorf("self time %v outside the span's %v", live.selfTime(outer), live.dur(outer))
	}

	// The file written is Chrome trace-event JSON with one event per span.
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args map[string]float64
		}
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(tr.spans) {
		t.Fatalf("%d trace events for %d spans", len(doc.TraceEvents), len(tr.spans))
	}
	if ev := doc.TraceEvents[1]; ev.Name != "a" || ev.Ph != "X" || ev.Ts != 10_000 || ev.Dur != 30_000 || ev.Args["self_us"] != 25_000 {
		t.Errorf("span a written as %+v", ev)
	}
}
