package report

import (
	"fmt"
	"strings"

	"repro/internal/spec"
	"repro/internal/textplot"
)

// Options configures Render.
type Options struct {
	// GeneratedBy names the generating command in the DO-NOT-EDIT header.
	GeneratedBy string
	// PaperArtifactPath is the committed paper-scale artifact's repo path,
	// for the prose that explains where the fidelity numbers come from.
	PaperArtifactPath string
	// ReducedScale is the scale the regression catalog ran at.
	ReducedScale float64
}

// barEntries maps grid entries to the measurement their bar figure
// shows; entries with stored series get line plots instead.
var barEntries = map[string]string{
	"fig3a":      spec.MetricEff2x,
	"fig3b":      spec.MetricEff2x,
	"fig3c":      spec.MetricEff2x,
	"fig5a":      spec.MetricCommit50pS,
	"fig5b":      spec.MetricCommit50pS,
	"fig5c":      spec.MetricCommit50pS,
	"scale_tput": spec.MetricAvgTput,
}

// barTitles captions the bar figures.
var barTitles = map[string]string{
	spec.MetricEff2x:      "efficiency at the 2.0x checkpoint",
	spec.MetricCommit50pS: "commit time of the 50% fraction (s)",
	// Deliberately NOT captioned "scaling curve": at the regression
	// catalog's reduced scale nothing saturates, so the S=1→8 shape here
	// is a determinism pin; the real scaling curve is the scale-1
	// fidelity table above it.
	spec.MetricAvgTput: "avg committed el/s to the send-end (aggregate across shards)",
}

// Render produces RESULTS.md: the provenance header, a fidelity table
// per entry comparing the paper-scale artifact against the registry's
// reference values, and the reduced-scale regression catalog with
// textplot figures. Output is a pure function of the inputs — no clocks,
// no map iteration — so regeneration at an unchanged commit is
// byte-identical and CI can fail on drift.
//
// It returns an error when the paper artifact does not cover the catalog
// (a missing entry, or a cell whose spec differs from the registry's):
// fidelity numbers must describe the experiments as they are now, so a
// stale artifact has to be regenerated, not silently reported.
func Render(catalog []spec.Entry, paper, reduced *Artifact, opts Options) (string, error) {
	var b strings.Builder
	b.WriteString("# Results\n\n")
	fmt.Fprintf(&b, "<!-- Code generated by %s; DO NOT EDIT.\n", opts.GeneratedBy)
	b.WriteString("     Regenerate with: go generate ./...  (CI fails on drift) -->\n\n")
	b.WriteString("How close this reproduction of *\"Setchain Algorithms for Blockchain\n")
	b.WriteString("Scalability\"* lands to the paper, as data. Two sources feed this file:\n\n")
	fmt.Fprintf(&b, "- **Fidelity tables** compare the committed paper-scale run artifact\n"+
		"  [`%s`](%s) against the typed reference values every registry\n"+
		"  entry carries (`spec.Reference` in `internal/spec/entries.go`). PASS means\n"+
		"  the measured number sits inside the reference's tolerance band; WARN is a\n"+
		"  documented deviation, not a broken build.\n", opts.PaperArtifactPath, opts.PaperArtifactPath)
	fmt.Fprintf(&b, "- **The regression catalog** below it reruns every cell at scale %g during\n"+
		"  `go generate ./...`; simulation is deterministic, so any behavior change\n"+
		"  shows up as a diff in these tables and fails CI's docs-sync check.\n\n",
		opts.ReducedScale)
	b.WriteString("See [EXPERIMENTS.md](EXPERIMENTS.md) for what each entry runs and\n")
	b.WriteString("[DESIGN.md](DESIGN.md) §9 for reference-value semantics and tolerance policy.\n\n")

	renderProvenance(&b, paper, reduced, opts)

	b.WriteString("## Fidelity vs the paper (scale 1)\n\n")
	b.WriteString("Δ is the measured value's relative deviation from the expected one.\n")
	b.WriteString("Sources: `paper` = a number the paper prints; `model` = an Appendix D\n")
	b.WriteString("expectation where the paper is silent; `repo` = this repo's pinned\n")
	b.WriteString("regression anchor for entries beyond the paper.\n\n")
	for _, e := range catalog {
		if len(e.Cells) == 0 {
			continue
		}
		if err := renderFidelity(&b, e, paper); err != nil {
			return "", err
		}
	}

	fmt.Fprintf(&b, "## Regression catalog (scale %g)\n\n", opts.ReducedScale)
	fmt.Fprintf(&b, "Every non-analytic entry, rerun at scale %g with seed %d. These numbers\n",
		opts.ReducedScale, reduced.Provenance.Seed)
	b.WriteString("are regression pins, not paper comparisons: rates and send windows are\n")
	b.WriteString("scaled down, so saturation effects differ from the tables above.\n\n")
	for _, e := range catalog {
		if len(e.Cells) == 0 {
			continue
		}
		if err := renderCatalogEntry(&b, e, reduced); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// renderProvenance writes the conditions table: every number in this file
// is scoped by one of these two columns.
func renderProvenance(b *strings.Builder, paper, reduced *Artifact, opts Options) {
	b.WriteString("## Provenance\n\n")
	safety := func(a *Artifact) string {
		if v := a.Violations(); len(v) > 0 {
			return fmt.Sprintf("**%d VIOLATION(S)**: %s", len(v), strings.Join(v, ", "))
		}
		return fmt.Sprintf("ok (%d cells checked)", a.CellCount())
	}
	git := paper.Provenance.Git
	if git == "" {
		git = "—"
	}
	fmt.Fprintf(b, "| Condition | Paper-scale artifact | Regression catalog |\n")
	fmt.Fprintf(b, "|---|---|---|\n")
	fmt.Fprintf(b, "| emitted by | `%s` | `%s` (under go generate) |\n",
		paper.Provenance.Tool, reduced.Provenance.Tool)
	fmt.Fprintf(b, "| workload scale | %g | %g |\n", paper.Provenance.Scale, reduced.Provenance.Scale)
	fmt.Fprintf(b, "| seed | %d | %d |\n", paper.Provenance.Seed, reduced.Provenance.Seed)
	fmt.Fprintf(b, "| crypto fidelity | %s | %s |\n", paper.Provenance.Mode, reduced.Provenance.Mode)
	fmt.Fprintf(b, "| git (artifact emission) | `%s` | regenerated at every commit |\n", git)
	fmt.Fprintf(b, "| artifact schema | v%d | v%d |\n", paper.SchemaVersion, SchemaVersion)
	fmt.Fprintf(b, "| safety invariants | %s | %s |\n\n", safety(paper), safety(reduced))
	b.WriteString("Measurements are virtual-time quantities: deterministic for a given\n")
	b.WriteString("(code, seed, scale) triple and independent of the worker count, so no\n")
	b.WriteString("wall-clock context appears in this file. Wall-clock numbers come from the\n")
	b.WriteString("benchmark, `bash bench/run.sh` (see bench/README.md).\n\n")
}

// renderFidelity writes one entry's measured-vs-expected table.
func renderFidelity(b *strings.Builder, e spec.Entry, paper *Artifact) error {
	rec, err := artifactRecord(e, paper)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "### %s — %s\n\n", e.Name, e.Figure)
	fmt.Fprintf(b, "%s\n\n", e.Title)
	b.WriteString("| Cell | Metric | Expected | Source | Measured | Δ | Status | Note |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range e.Refs {
		cell := rec.Cells[r.Cell]
		label := cell.Label
		if cell.Group != "" {
			label = cell.Group + " · " + label
		}
		measured, ok := cell.Measurements[r.Metric]
		if !ok {
			// A reference nobody measures constrains nothing; fail as loudly
			// as a stale artifact rather than rendering a vacuous row.
			return fmt.Errorf(
				"entry %q ref on cell %d (%s): metric %q was not measured — fix the reference or the run",
				e.Name, r.Cell, label, r.Metric)
		}
		status := "WARN"
		if r.Pass(measured) {
			status = "PASS"
		}
		fmt.Fprintf(b, "| %s | `%s` | %s | %s | %s | %+.1f%% | %s | %s |\n",
			label, r.Metric, fmtExpected(r), r.Source, fmtMetric(r.Metric, measured),
			100*r.Delta(measured), status, dash(r.Note))
	}
	b.WriteString("\n")
	return nil
}

// renderCatalogEntry writes one entry's reduced-scale measurement table
// and, where configured, its textplot figure.
func renderCatalogEntry(b *strings.Builder, e spec.Entry, reduced *Artifact) error {
	rec, err := artifactRecord(e, reduced)
	if err != nil {
		return err
	}
	fmt.Fprintf(b, "### %s — %s\n\n", e.Name, e.Figure)
	latency := false
	for _, c := range rec.Cells {
		if _, ok := c.Measurements[spec.MetricP99CommitS]; ok {
			latency = true
		}
	}
	header := "| # | Group | Cell | Injected | Committed | Avg el/s | Eff@send | Eff@2x | Safety |"
	rule := "|---|---|---|---|---|---|---|---|---|"
	if latency {
		header += " p50 | p99 |"
		rule += "---|---|"
	}
	b.WriteString(header + "\n" + rule + "\n")
	for _, c := range rec.Cells {
		m := c.Measurements
		safety := "ok"
		if c.Invariant != "ok" {
			safety = "**VIOLATED**"
		}
		fmt.Fprintf(b, "| %d | %s | %s | %.0f | %.0f | %.0f | %.3f | %.3f | %s |",
			c.Index+1, dash(c.Group), c.Label,
			m[spec.MetricInjected], m[spec.MetricCommitted], m[spec.MetricAvgTput],
			m[spec.MetricEffSend], m[spec.MetricEff2x], safety)
		if latency {
			fmt.Fprintf(b, " %s | %s |", optSeconds(m, spec.MetricP50CommitS),
				optSeconds(m, spec.MetricP99CommitS))
		}
		b.WriteString("\n")
	}
	b.WriteString("\n")
	renderFigure(b, e, rec)
	return nil
}

// renderFigure draws the entry's textplot figure: line plots for entries
// with stored series (one per group), bar charts for the grid entries.
func renderFigure(b *strings.Builder, e spec.Entry, rec ExperimentRecord) {
	if SeriesEntries[e.Name] {
		for _, group := range groupOrder(rec) {
			p := &textplot.LinePlot{
				Title:  fmt.Sprintf("%s%s: committed el/s over time", e.Name, groupSuffix(group)),
				XLabel: "virtual time (s)", YLabel: "el/s (9 s window)",
				LogY: true,
			}
			for _, c := range rec.Cells {
				if c.Group != group || len(c.Series) == 0 {
					continue
				}
				var xs, ys []float64
				for _, pt := range c.Series {
					xs = append(xs, pt.T)
					ys = append(ys, pt.Rate)
				}
				p.Add(c.Label, xs, ys)
			}
			if len(p.Series) > 0 {
				fmt.Fprintf(b, "```text\n%s```\n\n", p.Render())
			}
		}
		return
	}
	metric, ok := barEntries[e.Name]
	if !ok {
		return
	}
	chart := &textplot.BarChart{Title: fmt.Sprintf("%s: %s", e.Name, barTitles[metric])}
	if metric == spec.MetricEff2x {
		chart.Max = 1
	}
	for _, group := range groupOrder(rec) {
		g := textplot.BarGroup{Label: group}
		for _, c := range rec.Cells {
			if c.Group != group {
				continue
			}
			if v, ok := c.Measurements[metric]; ok {
				g.Bars = append(g.Bars, textplot.Bar{Name: c.Label, Value: v})
			}
		}
		if len(g.Bars) > 0 {
			chart.Group = append(chart.Group, g)
		}
	}
	if len(chart.Group) > 0 {
		fmt.Fprintf(b, "```text\n%s```\n\n", chart.Render())
	}
}

// ValidateAgainst checks that the artifact still covers the catalog —
// every non-analytic entry present, every cell's defaulted spec matching.
// Callers about to pay for a catalog run (cmd/setchain-report's reduced
// sweep) use it to fail in milliseconds on the tool's primary failure
// mode, a stale committed artifact, instead of after the simulations.
func ValidateAgainst(catalog []spec.Entry, a *Artifact) error {
	for _, e := range catalog {
		if len(e.Cells) == 0 {
			continue
		}
		if _, err := artifactRecord(e, a); err != nil {
			return err
		}
	}
	return nil
}

// artifactRecord finds the entry's record and verifies it still matches
// the registry cell for cell — same count, same defaulted specs — so a
// stale artifact fails generation instead of mislabeling numbers.
func artifactRecord(e spec.Entry, a *Artifact) (ExperimentRecord, error) {
	rec, ok := a.Experiment(e.Name)
	if !ok {
		return ExperimentRecord{}, fmt.Errorf(
			"artifact has no record for entry %q: regenerate it (see DESIGN.md §9)", e.Name)
	}
	if len(rec.Cells) != len(e.Cells) {
		return ExperimentRecord{}, fmt.Errorf(
			"artifact records %d cells for entry %q, registry has %d: regenerate the artifact",
			len(rec.Cells), e.Name, len(e.Cells))
	}
	for i, c := range e.Cells {
		want, err := cellKey(c)
		if err != nil {
			return ExperimentRecord{}, err
		}
		got, err := cellKey(rec.Cells[i].Spec)
		if err != nil {
			return ExperimentRecord{}, err
		}
		if got != want {
			return ExperimentRecord{}, fmt.Errorf(
				"artifact cell %d of entry %q ran a different spec than the registry's: regenerate the artifact",
				i, e.Name)
		}
	}
	return rec, nil
}

// groupOrder lists the record's groups in first-appearance order.
func groupOrder(rec ExperimentRecord) []string {
	var order []string
	seen := map[string]bool{}
	for _, c := range rec.Cells {
		if !seen[c.Group] {
			seen[c.Group] = true
			order = append(order, c.Group)
		}
	}
	return order
}

func groupSuffix(group string) string {
	if group == "" {
		return ""
	}
	return " (" + group + ")"
}

// fmtMetric renders a measured value in its metric's natural unit.
func fmtMetric(metric string, v float64) string {
	switch metric {
	case spec.MetricEffSend, spec.MetricEff15x, spec.MetricEff2x:
		return fmt.Sprintf("%.3f", v)
	case spec.MetricCommitFirstS, spec.MetricCommit50pS,
		spec.MetricP50CommitS, spec.MetricP99CommitS:
		return fmt.Sprintf("%.2f s", v)
	case spec.MetricInjected, spec.MetricCommitted,
		spec.MetricCkptSeals, spec.MetricSyncInstalls:
		return fmt.Sprintf("%.0f", v)
	case spec.MetricMsgsPerCommit:
		return fmt.Sprintf("%.1f msgs/el", v)
	case spec.MetricRejectionRate:
		return fmt.Sprintf("%.1f%%", 100*v)
	case spec.MetricFairness:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.0f el/s", v)
	}
}

// fmtExpected renders a reference's expectation with its band.
func fmtExpected(r spec.Reference) string {
	if r.Compare == spec.CompareMax {
		return fmt.Sprintf("≤ %s (+%.0f%%)", fmtMetric(r.Metric, r.Value), 100*r.Tolerance)
	}
	return fmt.Sprintf("%s ±%.0f%%", fmtMetric(r.Metric, r.Value), 100*r.Tolerance)
}

// optSeconds renders an optional seconds measurement.
func optSeconds(m map[string]float64, key string) string {
	if v, ok := m[key]; ok {
		return fmt.Sprintf("%.2f s", v)
	}
	return "—"
}

func dash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}
