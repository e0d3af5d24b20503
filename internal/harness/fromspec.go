package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/spec"
	"repro/internal/wire"
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
	if o := sp.Open; o != nil {
		sc.Open = workload.OpenConfig{
			Zipf:     o.Zipf,
			ChurnOn:  o.ChurnOn.Std(),
			ChurnOff: o.ChurnOff.Std(),
		}
		for _, ph := range o.Envelope {
			sc.Open.Envelope = append(sc.Open.Envelope, workload.RatePhase{
				From: ph.From.Std(), Mult: ph.Mult,
			})
		}
	}
	if a := sp.Admission; a != nil {
		sc.Admission = AdmissionCfg{
			AdmissionConfig: mempool.AdmissionConfig{
				Policy:      a.Policy,
				Watermark:   a.Watermark,
				MaxDelay:    a.MaxDelay.Std(),
				MaxDeferred: a.MaxDeferred,
			},
			MaxTxs:   a.MaxTxs,
			MaxBytes: a.MaxBytes,
		}
	}
	if b := sp.Byzantine; b != nil {
		sc.Byzantine = ByzantineCfg{
			Faulty:      b.Faulty,
			Behaviors:   append([]string(nil), b.Behaviors...),
			InjectCount: b.InjectCount,
		}
	}
	sc.Faults = FaultPlanFromSpec(sp.Faults)
	return sc, nil
}

// FaultPlanFromSpec converts the declarative fault schedule into the
// executable plan the simulator installs. The spec's action names are the
// plan's Kind strings, so the mapping is mechanical; spec.Validate has
// already checked ranges and probabilities by the time FromSpec calls this.
func FaultPlanFromSpec(fs *spec.FaultSpec) faults.Plan {
	if fs == nil || len(fs.Events) == 0 {
		return faults.Plan{}
	}
	plan := faults.Plan{Events: make([]faults.Event, len(fs.Events))}
	for i, ev := range fs.Events {
		plan.Events[i] = faults.Event{
			At:     ev.At.Std(),
			Kind:   faults.Kind(ev.Action),
			Nodes:  nodeIDs(ev.Nodes),
			Groups: nodeGroups(ev.Groups),
			From:   nodeIDs(ev.From),
			To:     nodeIDs(ev.To),
			Fault: netsim.LinkFault{
				Drop:         ev.Drop,
				Duplicate:    ev.Duplicate,
				Reorder:      ev.Reorder,
				ReorderDelay: ev.ReorderDelay.Std(),
				ExtraDelay:   ev.Delay.Std(),
			},
		}
	}
	return plan
}

func nodeIDs(ids []int) []wire.NodeID {
	if len(ids) == 0 {
		return nil
	}
	out := make([]wire.NodeID, len(ids))
	for i, id := range ids {
		out[i] = wire.NodeID(id)
	}
	return out
}

func nodeGroups(groups [][]int) [][]wire.NodeID {
	if len(groups) == 0 {
		return nil
	}
	out := make([][]wire.NodeID, len(groups))
	for i, g := range groups {
		out[i] = nodeIDs(g)
	}
	return out
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
	// Validated at the scale it runs at: the offered-load bound grows with it.
	sp = sp.WithDefaults()
	sp.Scale *= scale
	sc, err := FromSpec(sp)
	if err != nil {
		return Scenario{}, err
	}
	if sc.Horizon != 0 {
		sc.Horizon = time.Duration(float64(sc.Horizon) * scale)
	}
	return sc, nil
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

// EntryScenarios expands a registry entry into its executable scenarios
// at the given scale.
func EntryScenarios(name string, scale float64) ([]Scenario, error) {
	e, ok := spec.Get(name)
	if !ok {
		return nil, fmt.Errorf("no registry entry %q", name)
	}
	if len(e.Cells) == 0 {
		return nil, fmt.Errorf("entry %q is analytic: it has no simulation cells", name)
	}
	return FromSpecs(e.Cells, scale)
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
func applyByzantine(d *shard.Deployment, k int, cfg ByzantineCfg) {
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
