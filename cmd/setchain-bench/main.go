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
// safety check; any violation, or a cell over its declared heap ceiling,
// makes the process exit nonzero, naming the failing cells last on stderr.
//
// -scale shrinks sending rates, windows and fault schedules proportionally
// (saturation relationships against the fixed ledger/CPU capacities are
// preserved for rates near or above the ceilings; use 1 for the paper's
// exact workloads).
//
// Independent cells run concurrently on up to GOMAXPROCS workers (fewer
// when their elements would not fit in memory side by side), each
// simulation still single-threaded and deterministic. -artifact FILE
// writes a versioned machine-readable run artifact (internal/report schema: provenance,
// per-experiment wall time, and one record per simulation cell), the
// format cmd/setchain-report reads for RESULTS.md's fidelity tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/spec"
)

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
	artifactOut := flag.String("artifact", "", "write a versioned run artifact (results + provenance) to this file")
	flag.Parse()
	// A bad -scale is a usage error (exit 2), caught before anything runs.
	if err := spec.CheckScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "-scale: %v\n", err)
		os.Exit(2)
	}

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
	// overHeap names the cells whose live heap exceeded their ceiling; the
	// safety verdicts live in doc's records.
	var overHeap []string
	timed := func(name, desc string, run func() ([]spec.ScenarioSpec, []*harness.Result)) {
		t0 := time.Now()
		fmt.Printf("==> %s — %s (scale %.2g)\n\n", name, desc, *scale)
		cells, results := run()
		wall := time.Since(t0)
		rec := report.FromResults(name, cells, results)
		rec.WallSeconds = wall.Seconds()
		doc.Experiments = append(doc.Experiments, rec)
		for i, res := range results {
			if res.HeapViolation {
				overHeap = append(overHeap, name+"/"+rec.Cells[i].Label)
			}
		}
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
		timed(*specFile, "scenario document", func() ([]spec.ScenarioSpec, []*harness.Result) {
			results := runCells(cells, *scale)
			renderTable(os.Stdout, spec.Entry{Cells: cells}, results)
			return cells, results
		})
	case *exp == "all":
		if len(matrix) > 0 || faultPlan != nil {
			fmt.Fprintln(os.Stderr, "-matrix/-faults need a single experiment (or -spec), not -exp all")
			os.Exit(2)
		}
		for _, e := range spec.All() {
			e := e
			timed(e.Name, e.Figure+": "+e.Title, func() ([]spec.ScenarioSpec, []*harness.Result) {
				return runEntry(e, matrix, faultPlan, *scale)
			})
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
		timed(e.Name, e.Figure+": "+e.Title, func() ([]spec.ScenarioSpec, []*harness.Result) {
			return runEntry(e, matrix, faultPlan, *scale)
		})
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
	if v := doc.Violations(); len(v) > 0 {
		fmt.Fprintf(os.Stderr, "SAFETY: %d scenario(s) violated Setchain invariants: %s\n", len(v), strings.Join(v, ", "))
		os.Exit(1)
	}
	// Soak cells declare a heap ceiling; exceeding it is an unbounded-memory
	// regression and fails the run just like a safety violation.
	if len(overHeap) > 0 {
		fmt.Fprintf(os.Stderr, "MEMORY: %d scenario(s) exceeded their declared heap ceiling: %s\n", len(overHeap), strings.Join(overHeap, ", "))
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
// results table when it has none or an override changed the cell list. It
// returns the cells that ran and their results (none for an analytic
// entry).
func runEntry(e spec.Entry, matrix []spec.Axis, faultPlan *spec.FaultSpec, scale float64) ([]spec.ScenarioSpec, []*harness.Result) {
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
		return nil, nil
	}
	cells, err := spec.Expand(e.Cells, matrix...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	e.Cells = withFaults(cells, faultPlan)
	results := runCells(e.Cells, scale)
	render(os.Stdout, e, results)
	return e.Cells, results
}

// runCells executes expanded scenario cells on the worker pool.
func runCells(cells []spec.ScenarioSpec, scale float64) []*harness.Result {
	results, err := harness.RunSpecs(cells, scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	return results
}
