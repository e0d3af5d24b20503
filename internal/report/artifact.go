// Package report turns study results into reviewable reproduction
// evidence: a versioned machine-readable run artifact (results plus
// provenance) and a deterministic Markdown report — per-experiment fidelity tables
// comparing measured numbers against the registry's paper reference
// values (internal/spec.Reference), unicode figures via
// internal/textplot, and a provenance header. cmd/setchain-report
// regenerates RESULTS.md from it under go generate, and
// cmd/setchain-bench emits artifacts with -artifact.
//
// See DESIGN.md §9 (the report layer: reference semantics, tolerance
// policy, artifact schema versioning).
package report

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/spec"
)

// SchemaVersion is the run-artifact schema generation. Versioning rules
// (DESIGN.md §9): adding optional fields keeps the version; renaming,
// removing or re-interpreting a field bumps it. Readers accept any
// version in [1, SchemaVersion] and ignore unknown fields, so older
// tools can read newer artifacts of the same generation and committed
// artifacts stay readable across additive changes.
const SchemaVersion = 1

// Artifact is one benchmark invocation's machine-readable record: what
// ran, under which conditions, and what every cell measured. Following
// the "report conditions and provenance with every number" rule, a
// measurement never travels without the Provenance block that scopes it.
type Artifact struct {
	SchemaVersion int                `json:"schema_version"`
	Provenance    Provenance         `json:"provenance"`
	Experiments   []ExperimentRecord `json:"experiments"`
}

// Provenance records the conditions behind the artifact's numbers.
// Wall-clock fields (Go version, CPU count, git state, timestamps) live
// here and only here: per-cell measurements are pure virtual-time
// quantities, deterministic for a given (seed, scale, code) triple.
type Provenance struct {
	// Tool is the emitting command ("setchain-bench", "setchain-report").
	Tool string `json:"tool"`
	// Git is `git describe --always --dirty` at emission time, empty when
	// unavailable. Generated docs render it from committed artifacts only —
	// embedding HEAD's own hash in a committed file can never round-trip.
	Git       string  `json:"git,omitempty"`
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	CPUs      int     `json:"cpus"`
	Workers   int     `json:"workers"`
	Scale     float64 `json:"scale"`
	// Seed is the cells' common workload seed when they share one, else 0.
	Seed int64 `json:"seed,omitempty"`
	// Mode is "modeled" unless any cell ran full crypto, then "mixed" or
	// "full".
	Mode string `json:"mode"`
}

// ExperimentRecord is one registry entry's (or scenario document's) runs.
type ExperimentRecord struct {
	// Name is the registry entry name or the scenario file path.
	Name string `json:"name"`
	// Git is the `git describe` state this record was (re)emitted at,
	// set only when it differs from the artifact-level Provenance.Git:
	// partial regenerations (setchain-report -emit-artifact -entries)
	// re-run some entries at a newer commit without relabeling the
	// records they did not touch. Empty means the record belongs to the
	// provenance block's own run. Additive optional field — same schema
	// generation (DESIGN.md §9).
	Git string `json:"git,omitempty"`
	// WallSeconds is the wall-clock cost of the whole experiment. Zero in
	// deterministic artifacts (cmd/setchain-report strips it).
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// Cells are the simulation runs, in the entry's cell order.
	Cells []CellRecord `json:"cells,omitempty"`
}

// CellRecord is one simulation run: the defaulted spec it executed and
// everything it measured.
type CellRecord struct {
	// Index is the cell's position in the owning entry.
	Index int `json:"index"`
	// Label and Group mirror the spec's presentation fields.
	Label string `json:"label"`
	Group string `json:"group,omitempty"`
	// Spec is the defaulted scenario that ran.
	Spec spec.ScenarioSpec `json:"spec"`
	// Measurements maps spec metric names (spec.Metrics vocabulary) to
	// measured values. JSON object keys marshal sorted, so encoding is
	// deterministic.
	Measurements map[string]float64 `json:"measurements"`
	// Invariant is "ok" or the end-of-run safety violation's text.
	Invariant string `json:"invariant"`
	// Series is the committed-rate rolling average (9 s window), present
	// only for entries the report plots as time-series figures.
	Series []SeriesPoint `json:"series,omitempty"`
}

// SeriesPoint is one throughput-curve sample.
type SeriesPoint struct {
	// T is the sample time in virtual seconds.
	T float64 `json:"t"`
	// Rate is the rolling-average commit rate in elements/second.
	Rate float64 `json:"rate"`
}

// Experiment returns the named experiment record.
func (a *Artifact) Experiment(name string) (ExperimentRecord, bool) {
	for _, e := range a.Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return ExperimentRecord{}, false
}

// Violations lists "experiment/label" identifiers of every cell whose
// invariant check failed.
func (a *Artifact) Violations() []string {
	var out []string
	for _, e := range a.Experiments {
		for _, c := range e.Cells {
			if c.Invariant != "ok" {
				out = append(out, fmt.Sprintf("%s/%s", e.Name, c.Label))
			}
		}
	}
	return out
}

// CellCount returns the total number of cell records.
func (a *Artifact) CellCount() int {
	n := 0
	for _, e := range a.Experiments {
		n += len(e.Cells)
	}
	return n
}

// Encode renders the artifact as indented JSON with a trailing newline.
// A zero SchemaVersion is stamped with the current generation; an older
// one is refused — re-stamping unmigrated data would lie about its shape.
func (a *Artifact) Encode() ([]byte, error) {
	if a.SchemaVersion == 0 {
		a.SchemaVersion = SchemaVersion
	} else if a.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("artifact: cannot encode schema version %d with a v%d writer (migrate the data first)",
			a.SchemaVersion, SchemaVersion)
	}
	blob, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// Decode parses an artifact. Unknown fields are ignored — a newer writer
// may have added optional fields — but an unknown schema generation is
// an error: field meanings may have changed.
func Decode(blob []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(blob, &a); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if a.SchemaVersion < 1 || a.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("artifact schema version %d not in [1, %d] (regenerate it, or upgrade this tool)",
			a.SchemaVersion, SchemaVersion)
	}
	return &a, nil
}

// WriteFile writes the artifact to path.
func (a *Artifact) WriteFile(path string) error {
	blob, err := a.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// ReadFile loads an artifact from path.
func ReadFile(path string) (*Artifact, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// roundTo trims a float to the given decimal places so artifact JSON and
// rendered tables stay stable under formatting round-trips.
func roundTo(v float64, places int) float64 {
	scale := math.Pow(10, float64(places))
	return math.Round(v*scale) / scale
}

// seconds converts a duration to float seconds rounded to milliseconds.
func seconds(d time.Duration) float64 { return roundTo(d.Seconds(), 3) }
