// Command setchain-bench regenerates every table and figure of "Setchain
// Algorithms for Blockchain Scalability" on the virtual-time simulator,
// and runs arbitrary declarative scenario files.
//
// Usage:
//
//	setchain-bench -exp all            # everything (minutes at -scale 1)
//	setchain-bench -exp fig1 -scale 0.2
//	setchain-bench -spec examples/specs/fig4.json
//	setchain-bench -spec examples/specs/wan.json -matrix servers=4,8,16
//	setchain-bench -exp fig4 -matrix delay=0s,30ms,100ms
//	setchain-bench -exp chaos_partition          # scheduled partition+heal
//	setchain-bench -exp fig4 -faults examples/specs/partition.json
//	setchain-bench -exp fig4 -matrix drop=0,0.01,0.05
//	setchain-bench -exp scale_tput               # sharded S=1/2/4/8 scaling curve
//	setchain-bench -spec examples/specs/sharded.json -matrix shards=1,2,4,8
//	setchain-bench -list
//
// Sharded scenarios (a "shards" spec field, the shards= matrix key, the
// scale_* registry family) run S independent Setchain instances in one
// shared network with elements routed by id digest (internal/shard);
// fault-plan node ids are then global (shard k's servers are k·n..k·n+n-1)
// and every run adds the cross-shard safety check on top of the per-shard
// one.
//
// Experiments come from the internal/spec registry (rendered into
// EXPERIMENTS.md by cmd/specdoc); -list prints each entry's description.
// -spec runs a JSON scenario document (one object or an array; see
// examples/specs/README.md), and -matrix crosses the cells over extra
// parameter values — repeat the flag for more axes. -matrix composes with
// a single -exp entry too, replacing the entry's custom rendering with
// the generic results table (it does not combine with -exp all).
//
// -faults FILE loads a JSON fault plan (a spec.FaultSpec document: crash/
// restart, partition/heal, per-link drop/duplicate/reorder probabilities
// and delay spikes) and appends its events to every cell being run, on top
// of whatever the cells already schedule. The chaos_* registry entries
// ship ready-made plans; the drop/duplicate/reorder -matrix keys sweep
// uniform link loss without a file. Like -matrix, -faults routes the
// entry through the generic results table.
//
// Every scenario — faulted or not — ends with the internal/invariant
// safety check; any violation is reported and the process exits nonzero.
//
// -scale shrinks sending rates, windows and fault schedules proportionally
// (saturation relationships against the fixed ledger/CPU capacities are
// preserved for rates near or above the ceilings; use 1 for the paper's
// exact workloads).
//
// -workers caps the study executor's worker pool (default GOMAXPROCS);
// independent study cells run concurrently, each simulation still
// single-threaded and deterministic. -artifact FILE writes a versioned
// machine-readable run artifact (internal/report schema: provenance,
// per-experiment wall time, and one record per simulation cell), the
// format cmd/setchain-report reads for RESULTS.md's fidelity tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/spec"
	"repro/internal/textplot"
)

// renderers maps registry entries to their figure-specific renderers:
// pure functions of the entry and its cells' results (nil for an analytic
// entry), in cell order. Entries without one (every entry beyond the
// paper's figures) print the generic results table, so registering an
// experiment is enough to make it runnable. The -list order is the
// registry's.
var renderers = map[string]func(w io.Writer, e spec.Entry, results []*harness.Result){
	"table1":    renderTable1,
	"table2":    renderTable2,
	"fig1":      renderFig1,
	"fig2left":  renderFig2Left,
	"fig2right": renderFig2Right,
	"fig3a":     effChart,
	"fig3b":     effChart,
	"fig3c":     effChart,
	"fig4":      renderFig4,
	"fig5a":     commitChart,
	"fig5b":     commitChart,
	"fig5c":     commitChart,
	"d1":        renderD1,
}

// gridTitles are the chart titles of the Fig. 3 and Fig. 5 grids, which
// share one renderer each.
var gridTitles = map[string]string{
	"fig3a": "Fig. 3a: efficiency vs sending rate (10 servers, no delay)",
	"fig3b": "Fig. 3b: efficiency vs number of servers (10,000 el/s, no delay)",
	"fig3c": "Fig. 3c: efficiency vs network delay (10 servers, 10,000 el/s)",
	"fig5a": "Fig. 5a: commit times vs sending rate (10 servers, no delay)",
	"fig5b": "Fig. 5b: commit times vs number of servers (10,000 el/s)",
	"fig5c": "Fig. 5c: commit times vs network delay (10 servers, 10,000 el/s)",
}

// currentRecord is the -artifact record of the experiment currently
// running (see timed in main).
var currentRecord *report.ExperimentRecord

// matrixFlags accumulates repeated -matrix overrides into axes.
type matrixFlags []spec.Axis

func (m *matrixFlags) String() string {
	var parts []string
	for _, ax := range *m {
		parts = append(parts, ax.Key+"="+strings.Join(ax.Values, ","))
	}
	return strings.Join(parts, " ")
}

func (m *matrixFlags) Set(arg string) error {
	ax, err := spec.ParseAxis(arg)
	if err != nil {
		return err
	}
	*m = append(*m, ax)
	return nil
}

func main() {
	exp := flag.String("exp", "", "registry experiment to run (or 'all'; see -list)")
	specFile := flag.String("spec", "", "run a JSON scenario document instead of a registry experiment")
	var matrix matrixFlags
	flag.Var(&matrix, "matrix", "cross the cells over extra values, e.g. servers=4,8,16 (repeatable)")
	faultsFile := flag.String("faults", "", "apply a JSON fault plan (spec.FaultSpec) on top of every cell")
	scale := flag.Float64("scale", 1.0, "workload scale factor (rates, send windows and fault schedules)")
	list := flag.Bool("list", false, "list experiments with their descriptions")
	workers := flag.Int("workers", 0, "study executor workers (0 = GOMAXPROCS)")
	artifactOut := flag.String("artifact", "", "write a versioned run artifact (results + provenance) to this file")
	flag.Parse()
	// A bad -scale is a usage error (exit 2), caught before anything runs.
	if err := spec.CheckScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "-scale: %v\n", err)
		os.Exit(2)
	}
	harness.SetWorkers(*workers)

	var faultPlan *spec.FaultSpec
	if *faultsFile != "" {
		var err error
		if faultPlan, err = spec.LoadFaultFile(*faultsFile); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
	}

	if *list || (*exp == "" && *specFile == "") {
		printCatalog()
		if *exp == "" && *specFile == "" && !*list {
			os.Exit(2)
		}
		return
	}
	if *exp != "" && *specFile != "" {
		fmt.Fprintln(os.Stderr, "-exp and -spec are mutually exclusive")
		os.Exit(2)
	}

	doc := report.Artifact{
		SchemaVersion: report.SchemaVersion,
		Provenance:    report.Provenance{Tool: "setchain-bench", Scale: *scale},
	}
	timed := func(name, desc string, run func()) {
		doc.Experiments = append(doc.Experiments, report.ExperimentRecord{Name: name})
		currentRecord = &doc.Experiments[len(doc.Experiments)-1]
		t0 := time.Now()
		fmt.Printf("==> %s — %s (scale %.2g)\n\n", name, desc, *scale)
		run()
		wall := time.Since(t0)
		currentRecord.WallSeconds = wall.Seconds()
		currentRecord = nil
		fmt.Printf("\n[%s done in %v]\n\n", name, wall.Round(time.Millisecond))
	}

	switch {
	case *specFile != "":
		cells, err := spec.LoadFile(*specFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		if cells, err = spec.Expand(cells, matrix...); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		cells = withFaults(cells, faultPlan)
		timed(*specFile, "scenario document", func() {
			renderTable(os.Stdout, spec.Entry{Cells: cells}, runCells(cells, *scale))
		})
	case *exp == "all":
		if len(matrix) > 0 || faultPlan != nil {
			fmt.Fprintln(os.Stderr, "-matrix/-faults need a single experiment (or -spec), not -exp all")
			os.Exit(2)
		}
		for _, e := range spec.All() {
			e := e
			timed(e.Name, e.Figure+": "+e.Title, func() { runEntry(e, matrix, faultPlan, *scale) })
		}
	default:
		e, ok := spec.Get(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
			if sugg := spec.SuggestEntries(*exp); len(sugg) > 0 {
				fmt.Fprintf(os.Stderr, "did you mean: %s?\n", strings.Join(sugg, ", "))
			}
			os.Exit(2)
		}
		timed(e.Name, e.Figure+": "+e.Title, func() { runEntry(e, matrix, faultPlan, *scale) })
	}

	if *artifactOut != "" {
		// Seed/mode come from the cells that actually ran (a -spec file may
		// override both), not from the registry catalog; runtime provenance
		// (git subprocess included) is gathered only when actually writing.
		report.StampRuntime(&doc.Provenance)
		doc.Provenance.Seed, doc.Provenance.Mode = report.CellsSeedMode(doc.Experiments)
		if err := doc.WriteFile(*artifactOut); err != nil {
			fmt.Fprintf(os.Stderr, "write artifact: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("run artifact written to %s\n", *artifactOut)
	}

	// Every scenario executed above ran the end-of-run safety check; a
	// violation anywhere is a hard failure regardless of which renderer
	// displayed the run.
	if v := harness.InvariantViolations(); v > 0 {
		fmt.Fprintf(os.Stderr, "SAFETY: %d scenario(s) violated Setchain invariants (see output above)\n", v)
		os.Exit(1)
	}
	// Soak cells declare a heap ceiling; exceeding it is an unbounded-memory
	// regression and fails the run just like a safety violation.
	if v := harness.HeapViolations(); v > 0 {
		fmt.Fprintf(os.Stderr, "MEMORY: %d scenario(s) exceeded their declared heap ceiling (see output above)\n", v)
		os.Exit(1)
	}
}

// withFaults appends a -faults plan's events to every cell, on top of
// whatever the cells already schedule.
func withFaults(cells []spec.ScenarioSpec, fs *spec.FaultSpec) []spec.ScenarioSpec {
	if fs == nil {
		return cells
	}
	out := make([]spec.ScenarioSpec, len(cells))
	for i, c := range cells {
		var events []spec.FaultEventSpec
		if c.Faults != nil {
			events = append(events, c.Faults.Events...)
		}
		events = append(events, fs.Events...)
		c.Faults = &spec.FaultSpec{Events: events}
		out[i] = c
	}
	return out
}

// printCatalog renders the rich -list: every registry entry with the
// figure it reproduces and its description.
func printCatalog() {
	fmt.Println("experiments (from the internal/spec registry; full catalog in EXPERIMENTS.md):")
	for _, e := range spec.All() {
		cells := "analytic"
		if n := len(e.Cells); n > 0 {
			cells = fmt.Sprintf("%d cells", n)
		}
		fmt.Printf("\n  %-10s %s — %s (%s)\n", e.Name, e.Figure, e.Title, cells)
		for _, line := range wrap(e.Description, 66) {
			fmt.Printf("             %s\n", line)
		}
	}
	fmt.Printf("\n  %-10s run everything\n", "all")
	fmt.Println("\nor run a scenario document: -spec file.json [-matrix servers=4,8,16]")
}

// wrap breaks s into lines at most width runes wide on word boundaries.
func wrap(s string, width int) []string {
	var lines []string
	var cur string
	for _, w := range strings.Fields(s) {
		switch {
		case cur == "":
			cur = w
		case len(cur)+1+len(w) <= width:
			cur += " " + w
		default:
			lines = append(lines, cur)
			cur = w
		}
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}

// runEntry runs one registry entry: its cells — crossed with -matrix and
// layered with -faults when given — execute once on the worker pool, and
// the results go to the entry's figure-specific renderer, or to the generic
// results table when it has none or an override changed the cell list.
func runEntry(e spec.Entry, matrix []spec.Axis, faultPlan *spec.FaultSpec, scale float64) {
	overridden := len(matrix) > 0 || faultPlan != nil
	render, ok := renderers[e.Name]
	if !ok || overridden {
		render = renderTable
	}
	if len(e.Cells) == 0 {
		if overridden {
			fmt.Fprintf(os.Stderr, "entry %q is analytic: it has no cells to expand with -matrix/-faults\n", e.Name)
			os.Exit(2)
		}
		render(os.Stdout, e, nil)
		return
	}
	cells, err := spec.Expand(e.Cells, matrix...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	e.Cells = withFaults(cells, faultPlan)
	render(os.Stdout, e, runCells(e.Cells, scale))
}

// runCells executes expanded scenario cells on the worker pool and
// attaches their records — defaulted spec, measurements, invariant verdict
// — to the -artifact experiment currently running.
func runCells(cells []spec.ScenarioSpec, scale float64) []*harness.Result {
	results, err := harness.RunSpecs(cells, scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	if currentRecord != nil {
		currentRecord.Cells = report.FromResults(currentRecord.Name, cells, results).Cells
	}
	return results
}

// renderTable prints the generic results table of any cell list.
func renderTable(w io.Writer, e spec.Entry, results []*harness.Result) {
	cells := e.Cells
	stages := false
	for _, c := range cells {
		if c.Metrics == spec.MetricsStages {
			stages = true
		}
	}
	faulted := false
	for _, c := range cells {
		if c.Faults != nil && len(c.Faults.Events) > 0 {
			faulted = true
		}
	}
	sharded := false
	for _, c := range cells {
		if c.Shards > 1 {
			sharded = true
		}
	}
	ckpt := false
	heap := false
	for _, c := range cells {
		if c.CheckpointInterval > 0 {
			ckpt = true
		}
		if c.HeapCeilingMB > 0 {
			heap = true
		}
	}
	open := false
	for _, c := range cells {
		if c.Admission != nil || c.Open != nil {
			open = true
		}
	}
	headers := []string{"Scenario", "n", "Rate el/s", "Delay",
		"Injected", "Committed", "Avg el/s", "Eff@2x", "Analytic", "Safety"}
	if sharded {
		// n stays the per-shard group size; S is the shard count.
		headers = append(headers, "S")
	}
	if ckpt {
		// Seals are the observer's checkpoint count; syncs count servers
		// that recovered via checkpoint state-sync instead of full replay.
		headers = append(headers, "Ckpts", "Syncs")
	}
	if heap {
		headers = append(headers, "Heap MiB")
	}
	if faulted {
		headers = append(headers, "Faults")
	}
	if open {
		// Offered counts every generation attempt (accepted + rejected);
		// Rej% is the admission gate's shed fraction; Fair is the Jain
		// index over per-client acceptance ratios.
		headers = append(headers, "Offered", "Rej%", "Fair")
	}
	if stages {
		headers = append(headers, "p50 commit", "p99 commit")
	}
	t := &textplot.Table{Title: "Scenario results", Headers: headers}
	for i, res := range results {
		sc := res.Scenario
		label := cells[i].Label()
		if cells[i].Group != "" {
			label = cells[i].Group + " " + label
		}
		safety := "ok"
		if res.Invariant != nil {
			safety = "VIOLATED"
			fmt.Fprintf(os.Stderr, "SAFETY VIOLATION in %q:\n%v\n", label, res.Invariant)
		}
		row := []string{
			label,
			fmt.Sprintf("%d", sc.Servers),
			fmt.Sprintf("%.0f", sc.Rate),
			sc.NetworkDelay.String(),
			fmt.Sprintf("%d", res.Injected),
			fmt.Sprintf("%d", res.Committed),
			fmt.Sprintf("%.0f", res.AvgTput),
			fmt.Sprintf("%.3f", res.Eff100),
			fmt.Sprintf("%.0f", res.Analytical),
			safety,
		}
		if sharded {
			s := sc.Shards
			if s < 1 {
				s = 1
			}
			row = append(row, fmt.Sprintf("%d", s))
		}
		if ckpt {
			row = append(row, fmt.Sprintf("%d", res.CheckpointSeals),
				fmt.Sprintf("%d", res.SyncInstalls))
		}
		if heap {
			h := "-"
			if res.HeapLiveMB >= 0 {
				h = fmt.Sprintf("%.0f/%d", res.HeapLiveMB, sc.HeapCeilingMB)
				if res.HeapViolation {
					h += " OVER"
					fmt.Fprintf(os.Stderr, "HEAP CEILING EXCEEDED in %q: %.0f MiB live > %d MiB ceiling\n",
						label, res.HeapLiveMB, sc.HeapCeilingMB)
				}
			}
			row = append(row, h)
		}
		if faulted {
			row = append(row, cells[i].Faults.Summary())
		}
		if open {
			rej := "-"
			if res.Offered > 0 {
				rej = fmt.Sprintf("%.1f", 100*float64(res.Rejected)/float64(res.Offered))
			}
			row = append(row, fmt.Sprintf("%d", res.Offered), rej,
				fmt.Sprintf("%.3f", res.Fairness))
		}
		if stages {
			p50, p99 := "-", "-"
			if res.Recorder != nil {
				if lats, _ := res.Recorder.LatencyCDF(metrics.StageCommitted); len(lats) > 0 {
					p50 = metrics.LatencyQuantile(lats, 0.50).Round(time.Millisecond).String()
					p99 = metrics.LatencyQuantile(lats, 0.99).Round(time.Millisecond).String()
				}
			}
			row = append(row, p50, p99)
		}
		t.AddRow(row...)
	}
	fmt.Fprint(w, t.Render())
	// Sharded cells get a per-shard breakdown under the table: the
	// aggregate hides router balance and straggler shards.
	for i, res := range results {
		if len(res.PerShard) == 0 {
			continue
		}
		label := cells[i].Label()
		if cells[i].Group != "" {
			label = cells[i].Group + " " + label
		}
		fmt.Fprintf(w, "\n%s — %d superepochs; per shard:\n", label, len(res.SuperDigests))
		for _, st := range res.PerShard {
			fmt.Fprintf(w, "  shard %d: injected %d, committed %d, avg %.0f el/s, %d epochs, %d blocks\n",
				st.Shard, st.Injected, st.Committed, st.AvgTput, st.Epochs, st.Blocks)
		}
	}
}

func renderTable1(w io.Writer, _ spec.Entry, _ []*harness.Result) {
	g := harness.PaperGrid()
	t := &textplot.Table{
		Title:   "Table 1: Parameters for Setchain evaluation",
		Headers: []string{"Name", "Description", "Values"},
	}
	t.AddRow("sending_rate", "Adding rate (el/s)", joinF(g.SendingRates))
	t.AddRow("collector_limit", "Collector size (el)", joinI(g.Collectors))
	t.AddRow("server_count", "Number of servers", joinI(g.ServerCounts))
	t.AddRow("network_delay", "Delay increase (ms)", joinD(g.NetworkDelays))
	fmt.Fprint(w, t.Render())
}

func joinF(vs []float64) string {
	var p []string
	for _, v := range vs {
		p = append(p, fmt.Sprintf("%.0f", v))
	}
	return strings.Join(p, ", ")
}

func joinI(vs []int) string {
	var p []string
	for _, v := range vs {
		p = append(p, fmt.Sprintf("%d", v))
	}
	return strings.Join(p, ", ")
}

func joinD(vs []time.Duration) string {
	var p []string
	for _, v := range vs {
		p = append(p, fmt.Sprintf("%d", v.Milliseconds()))
	}
	return strings.Join(p, ", ")
}

// renderTable2 prints one row per Fig. 1 cell; a cell's Group is its panel.
func renderTable2(w io.Writer, e spec.Entry, results []*harness.Result) {
	t := &textplot.Table{
		Title: "Table 2: Throughput comparison (avg to end of sending) for Fig. 1\n" +
			"paper:  left  V=171  C=996  H=4183 | center C=571 H=2540 | right C=743 H=7369",
		Headers: []string{"Panel", "Algorithm", "Measured el/s", "Analytical el/s"},
	}
	for i, res := range results {
		t.AddRow(e.Cells[i].Group, res.Scenario.Spec.Label(),
			fmt.Sprintf("%.0f", res.AvgTput), fmt.Sprintf("%.0f", res.Analytical))
	}
	fmt.Fprint(w, t.Render())
}

// seriesXY splits a result's throughput curve into plot coordinates.
func seriesXY(res *harness.Result) (xs, ys []float64) {
	for _, pt := range res.Series {
		xs = append(xs, pt.Time.Seconds())
		ys = append(ys, pt.Rate)
	}
	return xs, ys
}

// renderFig1 plots one panel per run of consecutive cells sharing a Group.
// A panel's title takes its rate from the results (the rate that ran, scale
// applied) and its collector size from the largest among its variants
// (Vanilla has none).
func renderFig1(w io.Writer, e spec.Entry, results []*harness.Result) {
	for lo := 0; lo < len(results); {
		hi := lo + 1
		for hi < len(results) && e.Cells[hi].Group == e.Cells[lo].Group {
			hi++
		}
		panel := results[lo:hi]
		collector := 0
		for _, res := range panel {
			collector = max(collector, res.Scenario.Spec.Collector)
		}
		p := &textplot.LinePlot{
			Title: fmt.Sprintf("Fig. 1 (%s): throughput over time — rate %.0f el/s, c=%d, 10 servers",
				e.Cells[lo].Group, panel[0].Scenario.Rate, collector),
			XLabel: "time (s)", YLabel: "el/s (9 s rolling avg)",
			LogY:   true,
			HLines: map[string]float64{},
		}
		for _, res := range panel {
			xs, ys := seriesXY(res)
			p.Add(res.Scenario.Spec.Label(), xs, ys)
			p.HLines["min(rate,analytic) "+res.Scenario.Spec.Label()] = min(res.Scenario.Rate, res.Analytical)
		}
		fmt.Fprint(w, p.Render())
		fmt.Fprintln(w)
		lo = hi
	}
}

func renderFig2Left(w io.Writer, e spec.Entry, results []*harness.Result) {
	p := &textplot.LinePlot{
		Title: "Fig. 2 (left): highest throughput, c=500, 10 servers\n" +
			"paper: Hashchain w/ reversal avg 20,061 el/s; Hashchain Light avg 133,882 el/s",
		XLabel: "time (s)", YLabel: "el/s (9 s rolling avg)",
		LogY: true,
	}
	t := &textplot.Table{Headers: []string{"Variant", "Sending el/s", "Avg to send-end el/s", "Analytical el/s"}}
	for i, res := range results {
		label := e.Cells[i].Label()
		xs, ys := seriesXY(res)
		p.Add(label, xs, ys)
		t.AddRow(label, fmt.Sprintf("%.0f", res.Scenario.Rate),
			fmt.Sprintf("%.0f", res.AvgTput), fmt.Sprintf("%.0f", res.Analytical))
	}
	fmt.Fprint(w, p.Render())
	fmt.Fprintln(w)
	fmt.Fprint(w, t.Render())
}

func renderFig2Right(w io.Writer, _ spec.Entry, _ []*harness.Result) {
	sweep := analysis.BlockSizeSweep()
	p := &textplot.LinePlot{
		Title:  "Fig. 2 (right): analytical throughput vs block size (c=500)",
		XLabel: "block size (MB, doubling)", YLabel: "el/s",
		LogY: true,
	}
	var xs, v, c, h []float64
	for i, pt := range sweep {
		xs = append(xs, float64(i)) // doubling steps, log-x effectively
		v = append(v, pt.Vanilla)
		c = append(c, pt.Compresschain)
		h = append(h, pt.Hashchain)
	}
	p.Add("Vanilla", xs, v)
	p.Add("Compresschain", xs, c)
	p.Add("Hashchain", xs, h)
	fmt.Fprint(w, p.Render())
	t := &textplot.Table{Headers: []string{"Block MB", "Vanilla", "Compresschain", "Hashchain"}}
	for _, pt := range sweep {
		t.AddRow(fmt.Sprintf("%g", pt.BlockMB), fmt.Sprintf("%.0f", pt.Vanilla),
			fmt.Sprintf("%.0f", pt.Compresschain), fmt.Sprintf("%.0f", pt.Hashchain))
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, t.Render())
}

// effChart renders a Fig. 3 grid: one bar group per Group (the varied
// parameter's value), three efficiency checkpoints per variant.
func effChart(w io.Writer, e spec.Entry, results []*harness.Result) {
	groups := map[string]*textplot.BarGroup{}
	var order []string
	for i, res := range results {
		param, label := e.Cells[i].Group, res.Scenario.Spec.Label()
		g, ok := groups[param]
		if !ok {
			g = &textplot.BarGroup{Label: param}
			groups[param] = g
			order = append(order, param)
		}
		g.Bars = append(g.Bars,
			textplot.Bar{Name: label + " @send-end", Value: res.Eff50},
			textplot.Bar{Name: label + " @1.5x", Value: res.Eff75},
			textplot.Bar{Name: label + " @2.0x", Value: res.Eff100},
		)
	}
	chart := &textplot.BarChart{Title: gridTitles[e.Name], Max: 1}
	for _, name := range order {
		chart.Group = append(chart.Group, *groups[name])
	}
	fmt.Fprint(w, chart.Render())
}

func renderFig4(w io.Writer, _ spec.Entry, results []*harness.Result) {
	for _, res := range results {
		data := map[string][]float64{}
		reach := map[string]float64{}
		for st := metrics.StageFirstMempool; st <= metrics.StageCommitted; st++ {
			lats, frac := res.Recorder.LatencyCDF(st)
			var xs []float64
			for _, d := range lats {
				xs = append(xs, d.Seconds())
			}
			data[st.String()] = xs
			reach[st.String()] = frac
		}
		fmt.Fprint(w, textplot.CDF(
			fmt.Sprintf("Fig. 4 (%s): latency CDF to five stages — 10 servers, 1250 el/s, c=100",
				res.Scenario.Spec.Label()),
			72, 18, data, reach))
		commit, _ := res.Recorder.LatencyCDF(metrics.StageCommitted)
		fmt.Fprintf(w, "  commit latency: p50=%v p95=%v p99=%v (paper: finality < 4 s w.p. ~1)\n\n",
			metrics.LatencyQuantile(commit, 0.50).Round(time.Millisecond),
			metrics.LatencyQuantile(commit, 0.95).Round(time.Millisecond),
			metrics.LatencyQuantile(commit, 0.99).Round(time.Millisecond))
	}
}

// commitChart renders a Fig. 5 grid: the time each fraction of the added
// elements had committed, one row per cell.
func commitChart(w io.Writer, e spec.Entry, results []*harness.Result) {
	t := &textplot.Table{
		Title:   gridTitles[e.Name],
		Headers: []string{"Scenario", "Variant", "first", "10%", "20%", "30%", "40%", "50%"},
	}
	for i, res := range results {
		row := []string{e.Cells[i].Group, res.Scenario.Spec.Label()}
		for _, pct := range []int{0, 10, 20, 30, 40, 50} {
			if tm, ok := res.CommitFrac[pct]; ok {
				row = append(row, fmt.Sprintf("%.0fs", tm.Seconds()))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	fmt.Fprint(w, t.Render())
}

func renderD1(w io.Writer, _ spec.Entry, _ []*harness.Result) {
	t := &textplot.Table{
		Title: "Appendix D.1: analytical throughput (n=10, C=0.5 MiB, R=0.8 b/s, le=438, lp=lh=139)\n" +
			"paper: Tv≈955, Tc[100]≈2497, Tc[500]≈3330, Th[100]≈27157, Th[500]≈147857",
		Headers: []string{"Algorithm", "Collector", "Throughput el/s"},
	}
	rows := analysis.D1Table()
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Throughput < rows[j].Throughput })
	for _, r := range rows {
		c := "-"
		if r.Collector > 0 {
			c = fmt.Sprintf("%d", r.Collector)
		}
		t.AddRow(r.Label, c, fmt.Sprintf("%.0f", r.Throughput))
	}
	fmt.Fprint(w, t.Render())
	p := analysis.PaperParams()
	p.CollectorSize = 500
	fmt.Fprintf(w, "\nheadline ratios: Th[500]/Tv = %.0f (paper ~155), Th[500]/Tc[500] = %.0f (paper ~44)\n",
		analysis.HashchainThroughput(p)/analysis.VanillaThroughput(p),
		analysis.HashchainThroughput(p)/analysis.CompresschainThroughput(p))
}
