// Command setchain-report renders RESULTS.md — the reproduction's
// fidelity report — from two inputs: the committed paper-scale run
// artifact (ARTIFACT_paper.json, measured vs. the registry's
// spec.Reference values) and a fresh reduced-scale run of the whole
// catalog, whose deterministic tables pin simulation behavior exactly
// like EXPERIMENTS.md pins the catalog's parameters. CI regenerates
// both files and fails on any diff.
//
// Wired to go generate via the directives in the repo root's doc.go:
//
//	go generate ./...
//
// Regenerating the paper-scale artifact (minutes; do this whenever the
// registry's cells change or the regression catalog shows material
// drift — Render refuses stale artifacts):
//
//	go run ./cmd/setchain-report -emit-artifact ARTIFACT_paper.json
//
// Adding a NEW registry entry does not require repaying the whole
// catalog: -entries restricts -emit-artifact to the named entries and
// merges their records into the existing artifact file, leaving every
// other entry's committed record untouched. Provenance stays per-run:
// the artifact-level block keeps describing the last full-catalog run,
// and each merged record carries its own git describe when it differs:
//
//	go run ./cmd/setchain-report -emit-artifact ARTIFACT_paper.json -entries scale_tput,scale_chaos
//
// See DESIGN.md §9 for why the committed report runs at reduced scale
// and why git provenance lives in the artifact rather than the report.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/report"
	"repro/internal/spec"
)

// reportScale is the pinned scale of RESULTS.md's regression catalog:
// small enough that go generate stays interactive, large enough that
// every pipeline stage still sees thousands of elements per cell.
const reportScale = 0.1

// emitScale is -emit-artifact's default: the paper's own workload scale.
const emitScale = 1.0

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	paperPath := flag.String("paper", "ARTIFACT_paper.json", "committed paper-scale artifact to compare against")
	scale := flag.Float64("scale", 0, "workload scale (default 0.1 for the report, 1 for -emit-artifact)")
	emit := flag.String("emit-artifact", "", "run the catalog at -scale and write a run artifact here instead of a report")
	entries := flag.String("entries", "", "with -emit-artifact: run only these comma-separated entries and merge their records into the existing artifact")
	flag.Parse()
	if err := spec.CheckScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "setchain-report: -scale: %v\n", err)
		os.Exit(2)
	}

	if *emit != "" {
		emitArtifact(*emit, scaleOr(*scale, emitScale), *entries)
		return
	}
	if *entries != "" {
		fatalf("-entries only applies to -emit-artifact")
	}

	paper, err := report.ReadFile(*paperPath)
	if err != nil {
		fatalf("%v\n(run `go run ./cmd/setchain-report -emit-artifact %s` to create it)", err, *paperPath)
	}
	// Catch a stale artifact before paying for the reduced-scale catalog
	// run; Render re-checks, but by then the sweep is sunk cost.
	if err := report.ValidateAgainst(spec.All(), paper); err != nil {
		fatalf("%v", err)
	}
	reduced, err := report.Collect(spec.All(), scaleOr(*scale, reportScale))
	if err != nil {
		fatalf("run catalog: %v", err)
	}
	doc, err := report.Render(spec.All(), paper, reduced, report.Options{
		GeneratedBy:       "cmd/setchain-report",
		PaperArtifactPath: *paperPath,
		ReducedScale:      scaleOr(*scale, reportScale),
	})
	if err != nil {
		fatalf("%v", err)
	}
	if *out == "" {
		fmt.Print(doc)
	} else if err := os.WriteFile(*out, []byte(doc), 0o644); err != nil {
		fatalf("%v", err)
	}
	// The report records violations, but a safety failure must also stop
	// go generate loudly rather than land as a table cell in a diff.
	if v := reduced.Violations(); len(v) > 0 {
		fatalf("SAFETY: %d scenario(s) violated Setchain invariants: %s", len(v), strings.Join(v, ", "))
	}
}

// emitArtifact runs the catalog and writes a run artifact with full
// provenance (the committed-artifact path; wall-clock context belongs
// here, not in the deterministic report). A non-empty entries list
// restricts the run to those catalog entries and merges the fresh
// records into the artifact already at path, so adding a new registry
// entry does not force re-simulating the whole catalog.
func emitArtifact(path string, scale float64, entries string) {
	catalog := spec.All()
	if entries != "" {
		catalog = selectEntries(catalog, entries)
	}
	art, err := report.Collect(catalog, scale)
	if err != nil {
		fatalf("run catalog: %v", err)
	}
	report.StampRuntime(&art.Provenance)
	violations := art.Violations() // this run's, before any merge
	if entries != "" {
		prev, err := report.ReadFile(path)
		if err != nil {
			fatalf("-entries merges into an existing artifact: %v", err)
		}
		if prev.Provenance.Scale != art.Provenance.Scale {
			fatalf("cannot merge a scale-%g run into a scale-%g artifact",
				art.Provenance.Scale, prev.Provenance.Scale)
		}
		// The merged artifact keeps the previous full run's provenance;
		// the freshly rerun records carry this run's git describe
		// themselves (MergeExperiments).
		art = report.MergeExperiments(prev, art)
	}
	if err := art.WriteFile(path); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("artifact written to %s (%d experiments, %d cells)\n",
		path, len(art.Experiments), art.CellCount())
	if len(violations) > 0 {
		fatalf("SAFETY: %d scenario(s) violated Setchain invariants: %s", len(violations), strings.Join(violations, ", "))
	}
}

// selectEntries resolves a comma-separated entry-name list against the
// catalog, preserving catalog order.
func selectEntries(catalog []spec.Entry, names string) []spec.Entry {
	want := map[string]bool{}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := spec.Get(name); !ok {
			fatalf("unknown entry %q in -entries (use setchain-bench -list)", name)
		}
		want[name] = true
	}
	var out []spec.Entry
	for _, e := range catalog {
		if want[e.Name] {
			out = append(out, e)
		}
	}
	return out
}

func scaleOr(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return v
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "setchain-report: "+format+"\n", args...)
	os.Exit(1)
}
