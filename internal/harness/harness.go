// Package harness runs the paper's evaluation scenarios (§4, Table 1) on
// the virtual-time simulator and extracts the measurements behind every
// table and figure: throughput-over-time curves (Fig. 1), the limit study
// (Fig. 2 left), efficiency bars (Fig. 3), latency CDFs (Fig. 4), the
// Table 2 averages and the Appendix F commit-time charts (Fig. 5).
//
// Scenarios are data: RunSpecs converts the cells of an internal/spec
// registry entry (or a scenario file) into Scenarios and fans them across
// the RunMany worker pool. Every scenario, sharded or not, goes through the
// one executor in this file (runScenario): it deploys max(Shards, 1)
// Setchain instances with internal/shard (Deploy), drives them, harvests
// them in one loop and checks them (Check). The public API (package
// setchain) deploys and checks through the same two functions. See
// DESIGN.md §2 (layering), §6 (the parallel executor), §7 (the
// spec/registry layer) and §10 (one executor).
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/invariant"
	"repro/internal/ledger"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/setcrypto"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workload"
)

// AlgSpec names an algorithm variant as the paper's legends do.
type AlgSpec struct {
	Alg       core.Algorithm
	Collector int // collector size c; ignored by Vanilla
	Light     bool
}

// Label renders the paper's legend label ("Hashchain c=500", "Vanilla",
// "Compresschain Light c=500").
func (a AlgSpec) Label() string {
	s := a.Alg.String()
	if a.Light {
		s += " Light"
	}
	if a.Alg != core.Vanilla {
		s += fmt.Sprintf(" c=%d", a.Collector)
	}
	return s
}

// AnalyticalThroughput returns the Appendix D model value for this variant
// with n servers (the dotted reference lines in Figs. 1-2).
func (a AlgSpec) AnalyticalThroughput(n int) float64 {
	p := analysis.PaperParams()
	p.N = n
	p.CollectorSize = a.Collector
	switch a.Alg {
	case core.Vanilla:
		return analysis.VanillaThroughput(p)
	case core.Compresschain:
		return analysis.CompresschainThroughput(p)
	default:
		return analysis.HashchainThroughput(p)
	}
}

// Scenario is one experiment cell: an algorithm variant under a workload
// and deployment configuration (one combination from Table 1, or any
// spec.ScenarioSpec). FromSpec builds it from a spec that spec.WithDefaults
// filled, so every field is already decided: the executor derives only the
// Horizon (when 0), applies Scale and names the cell. A Scenario built by
// hand must be just as complete — start from FromSpec and set what a spec
// cannot hold, such as a faults.Plan. The one exception is package
// setchain's: its generator never starts, so the workload fields it leaves
// zero are never read.
type Scenario struct {
	Name         string
	Spec         AlgSpec
	Servers      int           // server_count: 4, 7, 10
	Rate         float64       // sending_rate in el/s (aggregate)
	SendFor      time.Duration // how long clients add (paper: 50 s)
	Horizon      time.Duration // total virtual time simulated
	NetworkDelay time.Duration // network_delay: 0, 30, 100 ms
	Seed         int64
	Level        metrics.Level
	// Scale multiplies Rate and SendFor and shrinks the Faults timeline
	// (and leaves ceilings untouched); used to shrink the largest runs for
	// quick regression passes.
	Scale float64
	// Shards splits the element space across this many independent
	// Setchain instances — each a Servers-sized consensus group — inside
	// one shared network, with elements routed by id digest and Rate the
	// aggregate across all shards (internal/shard, DESIGN.md §10). 0 or 1
	// is the paper's single instance: the same deployment with one shard,
	// without the cross-shard view and check that only several shards need.
	Shards int
	// Deprecated: IntraWorkers is ignored; every run has one event queue
	// and RunMany's cells are the only parallelism (DESIGN.md §12). It is
	// kept only for the benchmark's driver, which still sets it.
	IntraWorkers int
	// Transport selects the fan-out path for consensus and mempool
	// traffic: "" or spec.TransportBroadcast is the classic direct
	// per-validator send loop; spec.TransportMesh routes it over the
	// bounded-fanout gossip overlay (DESIGN.md §13).
	Transport string
	// Fanout is the mesh overlay's target node degree (ignored unless
	// Transport is mesh).
	Fanout int
	// Mode selects crypto fidelity: Modeled (default, the evaluation) or
	// Full (real ed25519/SHA-512/Deflate over real payloads).
	Mode core.Mode
	// Bandwidth overrides per-node egress bandwidth in bytes/second;
	// 0 keeps netsim's 1 Gbit/s LAN default.
	Bandwidth float64
	// Sizes shapes element sizes and Tick batches injection bookkeeping;
	// the zero values are workload.Shape's (the paper's Arbitrum
	// distribution, 10 ms).
	Sizes workload.SizeModel
	Tick  time.Duration
	// Open adds open-system workload dynamics — Zipf source skew, session
	// churn, rate envelopes (workload.OpenConfig, DESIGN.md §14). The
	// zero value is the closed system; time axes scale with Scale like
	// the send window does.
	Open workload.OpenConfig
	// Admission enables mempool admission control; the zero value keeps
	// admission off.
	Admission AdmissionCfg
	// Byzantine makes the highest-indexed servers faulty.
	Byzantine ByzantineCfg
	// Faults schedules deterministic network fault injection (crashes,
	// partitions, link loss) as simulator events; the zero Plan is
	// fault-free. Usually built from a spec.FaultSpec by FromSpec.
	Faults faults.Plan
	// CheckpointInterval seals a pruning checkpoint on every server each
	// time this many further epochs settle (core.Options.CheckpointInterval;
	// DESIGN.md §11). 0 disables checkpointing entirely.
	CheckpointInterval int
	// Prune drops settled history, ledger blocks and mempool tombstones
	// below each sealed checkpoint (core.Options.Prune); restarted servers
	// then recover via checkpoint state-sync instead of full replay.
	Prune bool
	// HeapCeilingMB asserts the process's live heap at the end of the run
	// stays at or under this many MiB (the soak family's bounded-memory
	// check); 0 skips the measurement. The measurement is process-wide, so
	// concurrently-running cells share one heap — soak cells are meant to
	// run alone or treat the combined figure as the (sound) upper bound.
	HeapCeilingMB int
	// SyncChunkBytes sets the chunk size of the state-sync transfer
	// protocol (consensus.Params.SyncChunkBytes); 0 keeps the 64 KiB
	// default.
	SyncChunkBytes int
}

// AdmissionCfg configures mempool admission control for a scenario: the
// mempool.AdmissionConfig knobs plus pool-cap overrides (the paper's
// 10M-tx/2GB caps are unreachable; an admission experiment picks caps
// the workload can actually saturate). The zero value keeps admission
// off. Behavior names are the spec package's (spec.AdmissionReject,
// spec.AdmissionDelay).
type AdmissionCfg struct {
	mempool.AdmissionConfig
	// MaxTxs / MaxBytes override the mempool caps (0 keeps the paper's).
	MaxTxs   int
	MaxBytes int
}

// ByzantineCfg configures faulty servers for a scenario. The zero value
// means all servers are correct. Behavior names are the spec package's
// (spec.BehaviorSilent etc.); server 0, the metrics observer, is never
// made faulty.
type ByzantineCfg struct {
	// Faulty is how many of the highest-indexed servers misbehave.
	Faulty int
	// Behaviors lists the preset fault behaviors every faulty server runs.
	Behaviors []string
	// InjectCount is the bogus-element count for "inject-invalid".
	InjectCount int
}

// withDefaults derives what no spec holds: the horizon (SendFor + 100 s
// when 0, from the unscaled window), the scaled rate and send window, and
// the cell's name.
func (sc Scenario) withDefaults() Scenario {
	if sc.Horizon == 0 {
		sc.Horizon = sc.SendFor + 100*time.Second
	}
	sc.Rate *= sc.Scale
	sc.SendFor = time.Duration(float64(sc.SendFor) * sc.Scale)
	if sc.Name == "" {
		sc.Name = fmt.Sprintf("%s n=%d rate=%.0f delay=%v",
			sc.Spec.Label(), sc.Servers, sc.Rate, sc.NetworkDelay)
		if sc.Shards > 1 {
			sc.Name += fmt.Sprintf(" shards=%d", sc.Shards)
		}
		if sc.Transport == spec.TransportMesh {
			sc.Name += fmt.Sprintf(" mesh f=%d", sc.Fanout)
		}
	}
	return sc
}

// Result holds a completed scenario's measurements.
type Result struct {
	Scenario  Scenario
	Injected  uint64
	Committed uint64
	// Efficiency at the paper's three checkpoints (relative to SendFor:
	// the checkpoints scale with a scaled send window).
	Eff50, Eff75, Eff100 float64
	// AvgTput is Table 2's metric: committed/second up to end-of-sending.
	AvgTput float64
	// Series is the committed-rate rolling average (9 s window).
	Series []metrics.SeriesPoint
	// CommitFrac maps percent (0 = first element, 10..50) to the time that
	// fraction of all added elements had committed; missing = never.
	CommitFrac map[int]time.Duration
	// Analytical is the Appendix D model value for the variant.
	Analytical float64
	// Recorder allows stage-latency queries when Level = LevelStages.
	Recorder *metrics.Recorder
	// Blocks is the ledger height reached (base + retained blocks, so
	// checkpoint pruning does not shrink it); Events the simulator events.
	Blocks int
	Events uint64
	// Invariant is the end-of-run safety verdict: nil when every Setchain
	// safety invariant held across the correct servers (internal/invariant;
	// checked on every scenario, faulted or not): every shard's own check
	// joined, when Shards > 1, with the cross-shard check (router
	// completeness, no cross-shard duplication or fabrication, superepoch
	// integrity). A non-nil value is a safety violation — a bug
	// in the system under test or the checker.
	Invariant error
	// PerShard holds per-shard summaries when the scenario ran sharded
	// (Shards > 1); nil otherwise.
	PerShard []shard.Stats
	// SuperDigests is the sharded run's cross-shard superepoch digest
	// sequence (internal/shard.View.Digests): the compact fingerprint
	// "same seed ⇒ same superepoch sequence" pins. Nil unless Shards > 1
	// (one shard's merge is its own history).
	SuperDigests []uint64
	// CheckpointSeals counts pruning checkpoints the observer(s) sealed
	// (summed across shards in a sharded run); 0 when checkpointing is off.
	CheckpointSeals uint64
	// SyncInstalls counts checkpoint state-sync installs across every
	// server of the deployment: each is a restarted or lagging node that
	// recovered from a peer's checkpoint snapshot instead of replaying the
	// full chain.
	SyncInstalls uint64
	// SyncRejected counts state-sync offers consensus rejected for failing
	// certified-header verification — a nonzero value means a peer served
	// a snapshot that did not fold to a 2f+1-certified header commitment
	// (e.g. the forge-snapshot Byzantine preset). Deterministic, so part
	// of the run fingerprint.
	SyncRejected uint64
	// CkptDigest folds every server's sealed checkpoint chain
	// (checkpoint.FoldChain, observer first, ascending node id) into one
	// word: the compact cross-server witness that all chains agree. 0 when
	// checkpointing is off.
	CkptDigest uint64
	// HeapLiveMB is the process's live heap in MiB after a forced GC at
	// the end of the run (deployment still reachable), measured only when
	// the scenario sets HeapCeilingMB; -1 otherwise. HeapViolation is true
	// when it exceeded the ceiling.
	HeapLiveMB    float64
	HeapViolation bool
	// NetMsgs/NetBytes are the fabric's total sent messages and bytes
	// (summed across shards' shared network in a sharded run). Fully
	// deterministic, so part of the run fingerprint; NetMsgs/Committed is
	// the msgs_per_commit metric the mesh transport is gated on.
	NetMsgs  uint64
	NetBytes uint64
	// Gossip aggregates the mesh overlay's counters (zero value on the
	// broadcast transport).
	Gossip netsim.MeshStats
	// Open-system measurements (DESIGN.md §14), booked by the generator's
	// workload.Account: Offered counts every add attempted (accepted +
	// rejected), Rejected the adds admission control (or validation)
	// refused, Fairness is Jain's index over per-client acceptance
	// ratios (1.0 when nothing was refused or all clients are served
	// equally). DeferredTxs/ExpiredTxs sum the delay policy's deferred
	// queue traffic across every node's mempool.
	Offered     uint64
	Rejected    uint64
	Fairness    float64
	DeferredTxs uint64
	ExpiredTxs  uint64
}

// deployConfig translates a defaulted scenario into the server options and
// ledger config it prescribes, starting from the Paper* constructors and
// adding the one value no spec holds: F = (n−1)/2, the largest f < n/2.
// Every server of every shard gets the same, so a scale_tput entry's S=1
// and S=4 cells differ in nothing but the shard count.
func deployConfig(sc Scenario) (core.Options, ledger.Config) {
	lcfg := ledger.PaperConfig()
	lcfg.Net.ExtraDelay = sc.NetworkDelay
	if sc.Bandwidth > 0 {
		lcfg.Net.Bandwidth = sc.Bandwidth
	}
	lcfg.Transport, lcfg.Fanout = sc.Transport, sc.Fanout
	opts := core.Options{
		Algorithm:          sc.Spec.Alg,
		Mode:               sc.Mode,
		Light:              sc.Spec.Light,
		CollectorLimit:     sc.Spec.Collector,
		Costs:              core.PaperCostModel(),
		F:                  (sc.Servers - 1) / 2,
		CheckpointInterval: sc.CheckpointInterval,
		Prune:              sc.Prune,
	}
	if sc.SyncChunkBytes > 0 {
		lcfg.Consensus.SyncChunkBytes = sc.SyncChunkBytes
	}
	if sc.Admission.Policy != "" {
		lcfg.Mempool.Admission = sc.Admission.AdmissionConfig
		if sc.Admission.MaxTxs > 0 {
			lcfg.Mempool.MaxTxs = sc.Admission.MaxTxs
		}
		if sc.Admission.MaxBytes > 0 {
			lcfg.Mempool.MaxBytes = sc.Admission.MaxBytes
		}
	}
	if sc.Mode == core.Full {
		lcfg.Suite = setcrypto.Ed25519Suite{}
	}
	return opts, lcfg
}

// Run executes one scenario to its horizon and gathers measurements.
func Run(sc Scenario) *Result {
	// Large scenarios allocate multi-GB transient state (per-server
	// the_set over millions of elements); reclaim the previous run's
	// before building the next deployment. RunMany's workers skip the
	// forced collection (it is global and would serialize them) and call
	// runScenario directly.
	runtime.GC()
	return runScenario(sc)
}

// runScenario is the side-effect-free core of Run, and the one place a
// scenario is deployed and driven: it builds a fresh simulator and a
// shard.Deployment of max(Shards, 1) instances from the scenario alone, so
// concurrent calls never share state and a scenario's result is a pure
// function of its configuration (see RunMany). The classic single
// instance is the one-shard deployment (DESIGN.md §10).
func runScenario(sc Scenario) *Result {
	sc = sc.withDefaults()
	s, d, gen := Deploy(sc)
	return drive(sc, s, d, gen)
}

// drive is runScenario after Deploy: it runs the deployment to the horizon,
// harvests it, checks it and measures the heap. Sabotage tests deploy,
// break the deployed instance, then call it.
func drive(sc Scenario, s *sim.Simulator, d *shard.Deployment, gen *shard.Generator) *Result {
	n, shards := sc.Servers, d.Count()
	d.Start()
	gen.Start()
	s.RunUntil(sc.Horizon)
	d.Stop()

	res := &Result{
		Scenario:   sc,
		CommitFrac: make(map[int]time.Duration),
		// Shards are independent instances, so the Appendix D model value
		// for the aggregate is S times the per-instance one.
		Analytical: sc.Spec.AnalyticalThroughput(n) * float64(shards),
		Events:     s.Executed(),
		NetMsgs:    d.Net.Messages(),
		NetBytes:   d.Net.BytesSent(),
		Offered:    gen.Offered(),
		Rejected:   gen.Rejected(),
		Fairness:   gen.Fairness(),
	}
	if shards == 1 {
		res.Recorder = d.Recorders[0] // Fig. 4's stage CDFs read it
	}

	// Harvest the per-shard recorders. Totals and counters sum; series and
	// commit fractions come from the merged time buckets, so they keep
	// exactly the bucket semantics of a single recorder (widths are
	// reconciled by MergeBuckets when a long run coarsened a shard, and one
	// shard's buckets merge to themselves).
	var buckets []uint64
	var bw time.Duration
	ckd := checkpoint.Seed()
	for k, sd := range d.Shards {
		rec := d.Recorders[k]
		blocks := int(sd.Ledger.Nodes[0].Cons.HeightCommitted())
		res.Injected += rec.TotalInjected()
		res.Committed += rec.TotalCommitted()
		res.AvgTput += rec.AvgThroughputUpTo(sc.SendFor)
		res.Blocks += blocks
		res.CheckpointSeals += rec.CheckpointSeals()
		bw, buckets = metrics.MergeBuckets(bw, buckets, rec.BucketWidth(), rec.CommittedPerSecond())
		if shards > 1 {
			snap := sd.Server(d.Observer(k)).Get()
			res.PerShard = append(res.PerShard, shard.Stats{
				Shard:     k,
				Injected:  rec.TotalInjected(),
				Committed: rec.TotalCommitted(),
				AvgTput:   rec.AvgThroughputUpTo(sc.SendFor),
				Epochs:    int(snap.PrunedEpochs) + len(snap.History),
				Blocks:    blocks,
			})
		}
		for _, srv := range sd.Servers {
			res.SyncInstalls += srv.SyncInstalls()
			ckd = checkpoint.Mix64(ckd, checkpoint.FoldChain(srv.Checkpoints()))
		}
		for _, node := range sd.Ledger.Nodes {
			res.SyncRejected += node.Cons.SyncRejects()
			_, deferred, expired := node.Pool.AdmissionStats()
			res.DeferredTxs += deferred
			res.ExpiredTxs += expired
		}
		if sd.Ledger.Mesh != nil {
			res.Gossip.Add(sd.Ledger.Mesh.Stats())
		}
	}
	if sc.CheckpointInterval > 0 {
		res.CkptDigest = ckd
	}
	res.Eff50 = bucketEfficiency(bw, buckets, res.Injected, sc.SendFor)
	res.Eff75 = bucketEfficiency(bw, buckets, res.Injected, sc.SendFor*3/2)
	res.Eff100 = bucketEfficiency(bw, buckets, res.Injected, sc.SendFor*2)
	res.Series = metrics.BucketSeries(bw, buckets, 9*time.Second)
	fracs := map[int]float64{0: 0, 10: 0.10, 20: 0.20, 30: 0.30, 40: 0.40, 50: 0.50}
	for pct, frac := range fracs {
		if t, ok := metrics.BucketTimeAtFraction(bw, buckets, res.Injected, frac); ok {
			res.CommitFrac[pct] = t
		}
	}

	if shards > 1 {
		res.SuperDigests = d.View().Digests()
	}
	// Safety invariants are checked on EVERY scenario — chaos or not — so
	// any run of any study doubles as a machine-checked safety argument.
	res.Invariant = Check(d, gen)
	measureHeap(res, d)
	return res
}

// Check is the safety step every scenario run and public-API deployment
// ends with: invariant.Check on every shard's correct servers, and with
// several shards invariant.CheckCross (vacuous for one: everything routes
// to shard 0 and the merge is its own history). Nil means all held.
func Check(d *shard.Deployment, gen *shard.Generator) error {
	var errs []error
	for k, sd := range d.Shards {
		rec := d.Recorders[k]
		errs = append(errs, invariant.Check(sd, invariant.Config{
			Correct:         d.Correct(k),
			Injected:        gen.InjectedIDs(),
			Rejected:        gen.RejectedIDs(),
			CommittedEpochs: rec.CommittedEpochSizes(),
			Observer:        d.Observer(k),
			FoldedEpochs:    rec.FoldedEpochs(),
			FoldedCommitted: rec.FoldedCommitted(),
		}))
	}
	if d.Count() > 1 {
		errs = append(errs, invariant.CheckCross(d.View(), invariant.CrossConfig{
			Shards:   d.Count(),
			Injected: gen.InjectedIDs(),
		}))
	}
	return errors.Join(errs...)
}

// Deploy builds a scenario on a fresh simulator, faulty servers and fault
// plan installed, ready to start on the simulator it returns. It is the one
// deployment road: runScenario hands it the scenario withDefaults derived,
// and the public API (package setchain) one that never starts the generator
// and adds through Generator.Add instead.
func Deploy(sc Scenario) (s *sim.Simulator, d *shard.Deployment, gen *shard.Generator) {
	opts, lcfg := deployConfig(sc)
	s = sim.New(sc.Seed)
	d = shard.Deploy(s, max(sc.Shards, 1), sc.Servers, lcfg, opts, sc.Level)
	for k := range d.Shards {
		// The highest-indexed servers of EVERY shard misbehave; each
		// shard's observer (its first server) stays correct.
		applyByzantine(d, k, sc.Byzantine)
	}
	// One shared fault controller: plan node ids are global, so a
	// partition can just as well split a shard internally as cut across
	// shard boundaries.
	sc.Faults.Scaled(sc.Scale).Install(s, d.Net)

	gen = shard.NewGenerator(d, shard.WorkloadConfig{
		Rate:         sc.Rate,
		Duration:     sc.SendFor,
		Sizes:        sc.Sizes,
		Tick:         sc.Tick,
		FullPayloads: sc.Mode == core.Full,
		Open:         sc.Open.Scaled(sc.Scale),
		Seed:         sc.Seed,
	})
	return s, d, gen
}

// bucketEfficiency is the paper's efficiency metric over merged buckets:
// committed by t divided by total injected. The bucket math itself is the
// metrics package's (BucketCommittedBy and friends), the same a single
// Recorder's query methods use.
func bucketEfficiency(width time.Duration, buckets []uint64, injected uint64, t time.Duration) float64 {
	if injected == 0 {
		return 0
	}
	return float64(metrics.BucketCommittedBy(width, buckets, t)) / float64(injected)
}

// measureHeap enforces a scenario's heap ceiling: a forced GC followed by
// ReadMemStats measures the live heap with the deployment pinned live (a
// KeepAlive — liveness analysis would otherwise let the GC collect it
// mid-measurement), so what is counted includes exactly the state the run
// retains — the soak family's bounded-memory assertion. Skipped
// (HeapLiveMB = -1) unless the scenario sets HeapCeilingMB.
func measureHeap(res *Result, deployment any) {
	res.HeapLiveMB = -1
	if res.Scenario.HeapCeilingMB <= 0 {
		return
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(deployment)
	res.HeapLiveMB = float64(ms.HeapAlloc) / (1 << 20)
	if res.HeapLiveMB > float64(res.Scenario.HeapCeilingMB) {
		res.HeapViolation = true
	}
}

// ParameterGrid reproduces Table 1: the evaluation's parameter space.
type ParameterGrid struct {
	SendingRates  []float64
	Collectors    []int
	ServerCounts  []int
	NetworkDelays []time.Duration
}

// PaperGrid returns Table 1's values.
func PaperGrid() ParameterGrid {
	return ParameterGrid{
		SendingRates:  []float64{10000, 5000, 1000, 500},
		Collectors:    []int{100, 500},
		ServerCounts:  []int{4, 7, 10},
		NetworkDelays: []time.Duration{0, 30 * time.Millisecond, 100 * time.Millisecond},
	}
}
