package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/workload"
)

// This file maps the declarative spec layer (internal/spec, DESIGN.md §7)
// onto the executor's types: a ScenarioSpec — hand-written JSON or a
// registry cell — becomes a Scenario, and RunSpecs runs a whole cell list.

// ParseAlgorithm maps a spec algorithm name onto the core constant.
func ParseAlgorithm(name string) (core.Algorithm, error) {
	switch name {
	case spec.AlgVanilla:
		return core.Vanilla, nil
	case spec.AlgCompresschain:
		return core.Compresschain, nil
	case spec.AlgHashchain:
		return core.Hashchain, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", name)
	}
}

// FromSpec converts a ScenarioSpec into the Scenario the executor runs.
// The spec is defaulted and validated first, so a sparse spec and its
// defaulted form produce identical scenarios.
func FromSpec(sp spec.ScenarioSpec) (Scenario, error) {
	sp = sp.WithDefaults()
	if err := sp.Validate(); err != nil {
		return Scenario{}, err
	}
	alg, err := ParseAlgorithm(sp.Algorithm)
	if err != nil {
		return Scenario{}, err
	}
	sc := Scenario{
		Name:               sp.Name,
		Spec:               AlgSpec{Alg: alg, Collector: sp.Collector, Light: sp.Light},
		Servers:            sp.Servers,
		Shards:             sp.Shards,
		Transport:          sp.Transport,
		Fanout:             sp.Fanout,
		Rate:               sp.Rate,
		SendFor:            sp.SendFor.Std(),
		Horizon:            sp.Horizon.Std(),
		NetworkDelay:       sp.NetworkDelay.Std(),
		Bandwidth:          sp.Bandwidth,
		Seed:               sp.Seed,
		Scale:              sp.Scale,
		CheckpointInterval: sp.CheckpointInterval,
		Prune:              sp.Prune,
		HeapCeilingMB:      sp.HeapCeilingMB,
		SyncChunkBytes:     sp.SyncChunkBytes,
	}
	if sp.Metrics == spec.MetricsStages {
		sc.Level = metrics.LevelStages
	}
	if sp.Crypto == spec.CryptoFull {
		sc.Mode = core.Full
	}
	if w := sp.Workload; w != nil {
		sc.Sizes = workload.SizeModel{
			Mean: w.SizeMean, StdDev: w.SizeStdDev,
			Min: w.SizeMin, Max: w.SizeMax,
		}
		sc.Tick = w.Tick.Std()
	}
	if sp.Open != nil {
		sc.Open = *sp.Open
	}
	if sp.Admission != nil {
		sc.Admission = *sp.Admission
	}
	if sp.Byzantine != nil {
		sc.Byzantine = *sp.Byzantine
	}
	if sp.Faults != nil && len(sp.Faults.Events) > 0 { // no events: the zero plan
		sc.Faults.Events = sp.Faults.Events
	}
	return sc, nil
}

// FromSpecScaled converts the spec and applies a run-time scale factor on
// top of the spec's own: Scale multiplies (shrinking rate and send window
// at run time), and an explicitly-set horizon shrinks with it. scale 0
// means 1; a negative or non-finite scale is an error.
func FromSpecScaled(sp spec.ScenarioSpec, scale float64) (Scenario, error) {
	if err := spec.CheckScale(scale); err != nil {
		return Scenario{}, err
	}
	if scale == 0 {
		scale = 1
	}
	// Validated at the scale and horizon it runs at: the offered-load and
	// idle-consensus bounds grow with them.
	sp = sp.WithDefaults()
	sp.Scale *= scale
	if sp.Horizon != 0 {
		sp.Horizon = spec.Duration(float64(sp.Horizon) * scale)
	}
	return FromSpec(sp)
}

// FromSpecs converts a whole scenario document, failing on the first bad
// cell.
func FromSpecs(sps []spec.ScenarioSpec, scale float64) ([]Scenario, error) {
	out := make([]Scenario, len(sps))
	for i, sp := range sps {
		sc, err := FromSpecScaled(sp, scale)
		if err != nil {
			return nil, fmt.Errorf("cell %d (%s): %w", i, sp.Label(), err)
		}
		out[i] = sc
	}
	return out, nil
}

// RunSpecs converts and executes a scenario document on the worker pool,
// returning results in input order.
func RunSpecs(sps []spec.ScenarioSpec, scale float64) ([]*Result, error) {
	scs, err := FromSpecs(sps, scale)
	if err != nil {
		return nil, err
	}
	return RunMany(scs), nil
}

// applyByzantine installs the configured fault behaviors on shard k's
// cfg.Faulty highest-indexed servers, never server 0 (the observer), and
// records them as faulty. Called between Deploy and Start; a zero config
// is a no-op.
func applyByzantine(d *shard.Deployment, k int, cfg spec.ByzantineSpec) {
	if cfg.Faulty <= 0 || len(cfg.Behaviors) == 0 {
		return
	}
	sd, n := d.Shards[k], d.Servers
	first := max(n-cfg.Faulty, 1)
	var b core.Behavior
	silent, misbehaves := false, false
	for _, name := range cfg.Behaviors {
		switch name {
		case spec.BehaviorSilent:
			silent = true
			continue
		case spec.BehaviorInjectInvalid:
			b.InjectBogusElements = cfg.InjectCount
		case spec.BehaviorWithholdBatches:
			b.RefuseServe = func(int, []byte) bool { return true }
		case spec.BehaviorWrongBatches:
			b.ServeWrongBatch = true
		case spec.BehaviorCorruptProofs:
			b.CorruptProofs = true
		case spec.BehaviorForgeSnapshot:
			b.ForgeSnapshot = true
		default:
			// Unknown names are caught by spec.Validate before any
			// scenario reaches the executor.
			panic(fmt.Sprintf("harness: unknown byzantine behavior %q", name))
		}
		misbehaves = true
	}
	for i := first; i < n; i++ {
		if misbehaves {
			sd.Servers[i].SetBehavior(&b)
		}
		if silent {
			// Tagged CauseByzantine, so a fault plan's restart of this
			// server cannot revive it (DESIGN.md §8).
			sd.Ledger.Net.Faults().SetDown(sd.Ledger.Nodes[i].ID, netsim.CauseByzantine, true)
		}
		d.SetFaulty(sd.Ledger.Nodes[i].ID)
	}
}
