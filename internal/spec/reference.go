package spec

import (
	"fmt"
	"math"
	"slices"
)

// This file types the *expected* side of the reproduction: a Reference
// states what the paper (or, where the paper is silent, the Appendix D
// model or this repo's own pinned baseline) measured for one cell of an
// entry, with an explicit tolerance band. cmd/setchain-report compares
// these against a paper-scale run artifact and renders the deltas into
// RESULTS.md, so "how close do the numbers land" is a reviewable table
// instead of folklore. See DESIGN.md §9 (reference-value semantics).

// Metric names a Reference can target — the closed vocabulary of the
// per-cell measurements a run artifact records (internal/report fills the
// same keys from a harness Result).
const (
	MetricInjected      = "injected"         // elements injected by the workload
	MetricCommitted     = "committed"        // elements committed by the horizon
	MetricAvgTput       = "avg_tput"         // Table 2: committed/s to send-end
	MetricEffSend       = "eff_send"         // efficiency at the send-end
	MetricEff15x        = "eff_1_5x"         // efficiency at 1.5x the send window
	MetricEff2x         = "eff_2x"           // efficiency at 2.0x the send window
	MetricAnalytic      = "analytic"         // Appendix D model value
	MetricCommitFirstS  = "commit_first_s"   // commit time of the first element
	MetricCommit50pS    = "commit_50pct_s"   // commit time of the 50% fraction
	MetricP50CommitS    = "p50_commit_s"     // median commit latency (stages runs)
	MetricP99CommitS    = "p99_commit_s"     // p99 commit latency (stages runs)
	MetricCkptSeals     = "checkpoint_seals" // pruning checkpoints the observer sealed
	MetricSyncInstalls  = "sync_installs"    // servers recovered via checkpoint state-sync
	MetricMsgsPerCommit = "msgs_per_commit"  // network messages per committed element
	MetricOfferedRate   = "offered_rate"     // open-system: offered load in el/s
	MetricRejectionRate = "rejection_rate"   // open-system: rejected/offered fraction
	MetricFairness      = "fairness"         // open-system: Jain index over per-client acceptance
)

// Metrics lists every valid Reference metric name.
var Metrics = []string{
	MetricInjected, MetricCommitted, MetricAvgTput,
	MetricEffSend, MetricEff15x, MetricEff2x, MetricAnalytic,
	MetricCommitFirstS, MetricCommit50pS, MetricP50CommitS, MetricP99CommitS,
	MetricCkptSeals, MetricSyncInstalls, MetricMsgsPerCommit,
	MetricOfferedRate, MetricRejectionRate, MetricFairness,
}

// Reference sources — where the expected value comes from.
const (
	// SourcePaper is a number the paper itself reports (the default).
	SourcePaper = "paper"
	// SourceModel is a value of the Appendix D closed-form model, used
	// where the paper gives no measurement for a cell.
	SourceModel = "model"
	// SourceRepo is a regression anchor pinned from this repo's own
	// paper-scale baseline, for entries beyond the paper (chaos_*, mesh_*).
	SourceRepo = "repo"
)

// Sources lists every valid Reference source.
var Sources = []string{SourcePaper, SourceModel, SourceRepo}

// Reference comparison modes.
const (
	// CompareBand passes while the measured value is inside the two-sided
	// relative band value*(1±tolerance) — the default.
	CompareBand = "band"
	// CompareMax passes while measured <= value*(1+tolerance): for paper
	// claims that are upper bounds ("finality below 4 s").
	CompareMax = "max"
)

// Reference is one expected measurement for one cell of a registry entry:
// the paper's number (or a model/repo anchor), the metric it constrains
// and the tolerance band within which the reproduction counts as faithful.
type Reference struct {
	// Cell indexes the entry's Cells slice.
	Cell int `json:"cell"`
	// Metric is the measurement constrained (see Metrics).
	Metric string `json:"metric"`
	// Value is the expected number, in the metric's natural unit
	// (elements/second, seconds, or a 0..1 efficiency fraction).
	Value float64 `json:"value"`
	// Tolerance is the relative band half-width (0.25 = ±25%).
	Tolerance float64 `json:"tolerance"`
	// Compare selects the comparison mode ("band" default, or "max").
	Compare string `json:"compare,omitempty"`
	// Source is where Value comes from: "paper" (default), "model", "repo".
	Source string `json:"source,omitempty"`
	// Note is a one-line caveat rendered next to the fidelity row.
	Note string `json:"note,omitempty"`
}

// WithDefaults fills the default comparison mode and source.
func (r Reference) WithDefaults() Reference {
	if r.Compare == "" {
		r.Compare = CompareBand
	}
	if r.Source == "" {
		r.Source = SourcePaper
	}
	return r
}

// Validate reports the first problem with the reference, or nil; cells is
// the owning entry's cell count. Call after WithDefaults.
func (r Reference) Validate(cells int) error {
	if r.Cell < 0 || r.Cell >= cells {
		return fmt.Errorf("reference cell %d out of range (entry has %d cells)", r.Cell, cells)
	}
	if !slices.Contains(Metrics, r.Metric) {
		return fmt.Errorf("unknown reference metric %q", r.Metric)
	}
	if r.Value <= 0 || math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
		return fmt.Errorf("reference value must be a positive finite number, got %g", r.Value)
	}
	if r.Tolerance <= 0 || r.Tolerance >= 10 {
		return fmt.Errorf("reference tolerance must be in (0, 10), got %g", r.Tolerance)
	}
	switch r.Compare {
	case CompareBand, CompareMax:
	default:
		return fmt.Errorf("unknown reference compare mode %q (want %q or %q)",
			r.Compare, CompareBand, CompareMax)
	}
	if !slices.Contains(Sources, r.Source) {
		return fmt.Errorf("unknown reference source %q (want one of %v)", r.Source, Sources)
	}
	return nil
}

// Delta returns the measured value's signed relative deviation from the
// reference ((measured-value)/value).
func (r Reference) Delta(measured float64) float64 {
	return (measured - r.Value) / r.Value
}

// Pass reports whether the measured value lands inside the tolerance
// band: two-sided for "band", upper-bounded for "max".
func (r Reference) Pass(measured float64) bool {
	d := r.Delta(measured)
	if r.Compare == CompareMax {
		return d <= r.Tolerance
	}
	return math.Abs(d) <= r.Tolerance
}
