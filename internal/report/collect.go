package report

import (
	"encoding/json"
	"fmt"
	"os/exec"
	"runtime"
	"strings"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/spec"
)

// This file is the bridge from the executor to the artifact: a harness
// Result becomes a CellRecord of pure virtual-time measurements, and
// Collect runs a whole catalog (deduplicating cells shared between
// entries — the Fig. 5 grids reuse Fig. 3's, Table 2 reuses Fig. 1's)
// into one artifact.

// SeriesEntries names the registry entries whose cells keep their
// throughput-over-time series in the artifact, for the report's
// line-plot figures. The rest stay series-free to keep artifacts small.
var SeriesEntries = map[string]bool{"fig1": true, "fig2left": true}

// Measurements extracts a Result's per-cell measurement map, keyed by
// the spec package's metric vocabulary. Values are rounded (3 decimals
// for rates and seconds, 4 for efficiency fractions) so the artifact's
// JSON is stable under format round-trips.
func Measurements(res *harness.Result) map[string]float64 {
	m := map[string]float64{
		spec.MetricInjected:  float64(res.Injected),
		spec.MetricCommitted: float64(res.Committed),
		spec.MetricAvgTput:   roundTo(res.AvgTput, 3),
		spec.MetricEffSend:   roundTo(res.Eff50, 4),
		spec.MetricEff15x:    roundTo(res.Eff75, 4),
		spec.MetricEff2x:     roundTo(res.Eff100, 4),
		spec.MetricAnalytic:  roundTo(res.Analytical, 3),
	}
	if t, ok := res.CommitFrac[0]; ok {
		m[spec.MetricCommitFirstS] = seconds(t)
	}
	if t, ok := res.CommitFrac[50]; ok {
		m[spec.MetricCommit50pS] = seconds(t)
	}
	if res.Scenario.Level == metrics.LevelStages && res.Recorder != nil {
		if lats, _ := res.Recorder.LatencyCDF(metrics.StageCommitted); len(lats) > 0 {
			m[spec.MetricP50CommitS] = seconds(metrics.LatencyQuantile(lats, 0.50))
			m[spec.MetricP99CommitS] = seconds(metrics.LatencyQuantile(lats, 0.99))
		}
	}
	// Checkpoint counters are deterministic (pure functions of the
	// scenario) and so belong in the artifact; the heap measurement does
	// not — it depends on the host and on concurrently-running cells, so
	// it stays a run-time assertion (harness.Result.HeapLiveMB) only.
	if res.Scenario.CheckpointInterval > 0 {
		m[spec.MetricCkptSeals] = float64(res.CheckpointSeals)
		m[spec.MetricSyncInstalls] = float64(res.SyncInstalls)
	}
	// Message complexity (the mesh transport's headline axis). NetMsgs is
	// deterministic, so the ratio is artifact-worthy on every committed
	// run, broadcast or mesh.
	if res.Committed > 0 {
		m[spec.MetricMsgsPerCommit] = roundTo(float64(res.NetMsgs)/float64(res.Committed), 3)
	}
	// Open-system measurements (DESIGN.md §14). Gated on the open/admission
	// knobs so closed-system cells — every pre-open artifact — keep a
	// byte-identical measurement map.
	if res.Scenario.Admission.Policy != "" || res.Scenario.Open.Enabled() {
		// Scenario.SendFor already carries the scale by the time the
		// executor stores it back into the Result.
		if secs := res.Scenario.SendFor.Seconds(); secs > 0 {
			m[spec.MetricOfferedRate] = roundTo(float64(res.Offered)/secs, 3)
		}
		if res.Offered > 0 {
			m[spec.MetricRejectionRate] = roundTo(float64(res.Rejected)/float64(res.Offered), 4)
		}
		m[spec.MetricFairness] = roundTo(res.Fairness, 4)
	}
	return m
}

// CellFromResult builds one cell record. withSeries keeps the rolling
// throughput curve (entries listed in SeriesEntries).
func CellFromResult(index int, cell spec.ScenarioSpec, res *harness.Result, withSeries bool) CellRecord {
	cell = cell.WithDefaults()
	rec := CellRecord{
		Index:        index,
		Label:        cell.Label(),
		Group:        cell.Group,
		Spec:         cell,
		Measurements: Measurements(res),
		Invariant:    "ok",
	}
	if res.Invariant != nil {
		rec.Invariant = res.Invariant.Error()
	}
	if withSeries {
		for _, pt := range res.Series {
			rec.Series = append(rec.Series, SeriesPoint{
				T:    roundTo(pt.Time.Seconds(), 3),
				Rate: roundTo(pt.Rate, 3),
			})
		}
	}
	return rec
}

// FromResults builds an experiment record from an entry's cells and
// their results (aligned by index, as RunSpecs returns them).
func FromResults(name string, cells []spec.ScenarioSpec, results []*harness.Result) ExperimentRecord {
	e := ExperimentRecord{Name: name}
	withSeries := SeriesEntries[name]
	for i, res := range results {
		e.Cells = append(e.Cells, CellFromResult(i, cells[i], res, withSeries))
	}
	return e
}

// GitDescribe returns `git describe --always --dirty` for artifact
// provenance, or "" outside a work tree — shared by the emitting
// commands so their artifacts agree on the field's meaning.
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// StampRuntime fills the wall-clock context fields — git state, Go
// toolchain, host, worker count — in one place for every artifact
// emitter, so the two commands cannot drift in what the fields mean.
// Run-defining fields (Tool, Scale, Seed, Mode) stay the caller's. The
// worker count is GOMAXPROCS, the most harness.RunMany uses.
func StampRuntime(p *Provenance) {
	p.Git = GitDescribe()
	p.GoVersion = runtime.Version()
	p.GOOS = runtime.GOOS
	p.GOARCH = runtime.GOARCH
	p.CPUs = runtime.NumCPU()
	p.Workers = runtime.GOMAXPROCS(0)
}

// cellKey canonicalizes a cell for cross-entry deduplication: two cells
// with the same defaulted spec run identically (the executor is a pure
// function of the spec and scale), so one simulation serves both.
func cellKey(c spec.ScenarioSpec) (string, error) {
	blob, err := json.Marshal(c.WithDefaults())
	return string(blob), err
}

// Collect runs every non-analytic entry of the catalog at the given
// scale and returns the artifact. Cells shared between entries (Fig. 5
// reuses Fig. 3's grids, Table 2 reuses Fig. 1's panels) are simulated
// once. The provenance carries only run-defining conditions — scale,
// seed, crypto mode — because the measurements are deterministic for
// those; wall-clock context is the emitting command's business.
func Collect(catalog []spec.Entry, scale float64) (*Artifact, error) {
	var unique []spec.ScenarioSpec
	index := map[string]int{}
	for _, e := range catalog {
		for _, c := range e.Cells {
			k, err := cellKey(c)
			if err != nil {
				return nil, fmt.Errorf("entry %q: %w", e.Name, err)
			}
			if _, ok := index[k]; !ok {
				index[k] = len(unique)
				unique = append(unique, c)
			}
		}
	}
	results, err := harness.RunSpecs(unique, scale)
	if err != nil {
		return nil, err
	}

	art := &Artifact{
		SchemaVersion: SchemaVersion,
		Provenance: Provenance{
			Tool:  "setchain-report",
			Scale: scale,
		},
	}
	for _, e := range catalog {
		if len(e.Cells) == 0 {
			continue
		}
		shared := make([]*harness.Result, len(e.Cells))
		for i, c := range e.Cells {
			k, _ := cellKey(c)
			shared[i] = results[index[k]]
		}
		art.Experiments = append(art.Experiments, FromResults(e.Name, e.Cells, shared))
	}
	art.Provenance.Seed, art.Provenance.Mode = CellsSeedMode(art.Experiments)
	return art, nil
}

// MergeExperiments overlays fresh experiment records onto a previous
// artifact: records sharing a name are replaced in place, new names
// append in the fresh artifact's order, everything else is kept.
// Provenance stays honest in both directions: the artifact-level block
// (git included) keeps describing the previous full-catalog run, so the
// untouched records are never relabeled to a commit they did not run at,
// while each fresh record carries the fresh run's git describe in its
// own Git field whenever it differs. Only seed/mode are re-derived from
// the merged record set. Callers pass a fresh artifact that has already
// been runtime-stamped.
func MergeExperiments(prev, fresh *Artifact) *Artifact {
	out := &Artifact{
		SchemaVersion: SchemaVersion,
		Provenance:    prev.Provenance,
		Experiments:   append([]ExperimentRecord(nil), prev.Experiments...),
	}
	for _, e := range fresh.Experiments {
		if fresh.Provenance.Git != prev.Provenance.Git {
			e.Git = fresh.Provenance.Git
		}
		replaced := false
		for i := range out.Experiments {
			if out.Experiments[i].Name == e.Name {
				out.Experiments[i] = e
				replaced = true
				break
			}
		}
		if !replaced {
			out.Experiments = append(out.Experiments, e)
		}
	}
	out.Provenance.Seed, out.Provenance.Mode = CellsSeedMode(out.Experiments)
	return out
}

// CellsSeedMode derives the provenance seed and crypto-mode summary from
// the cells that actually ran: the common seed (0 when they differ) and
// "modeled", "full" or "mixed". Deriving from the records rather than
// the registry keeps -spec/-matrix artifacts honestly labeled.
func CellsSeedMode(exps []ExperimentRecord) (int64, string) {
	seed := int64(0)
	mixedSeeds, modeled, full := false, false, false
	for _, e := range exps {
		for _, c := range e.Cells {
			if seed == 0 {
				seed = c.Spec.Seed
			} else if c.Spec.Seed != seed {
				mixedSeeds = true
			}
			if c.Spec.Crypto == spec.CryptoFull {
				full = true
			} else {
				modeled = true
			}
		}
	}
	if mixedSeeds {
		seed = 0
	}
	mode := spec.CryptoModeled
	switch {
	case full && modeled:
		mode = "mixed"
	case full:
		mode = spec.CryptoFull
	}
	return seed, mode
}
