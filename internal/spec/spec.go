// Package spec makes experiment scenarios data instead of code: a
// serializable ScenarioSpec captures everything a harness run needs —
// algorithm variant, workload shape and rate, deployment size, network
// latency/bandwidth, Byzantine faults, crypto fidelity and metric
// granularity — with JSON encode/decode, validation and defaulting, plus
// the named-experiment registry that internal/harness runs cell by cell
// and cmd/specdoc renders into EXPERIMENTS.md.
// See DESIGN.md §7 (declarative scenarios and the experiment registry).
//
// The package is pure data: it imports nothing above the standard library,
// so cmd/specdoc can render the catalog without linking the simulator, and
// internal/harness (not spec) owns the mapping onto core/metrics types.
package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("50s", "30ms") and unmarshals from either that form or a bare JSON
// number of seconds.
type Duration time.Duration

// MarshalJSON renders the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "350ms"/"50s"-style strings or numeric seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return err
	}
	*d = Duration(secs * float64(time.Second))
	return nil
}

// Std returns the standard-library duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// String renders the duration as time.Duration does ("50s", "30ms").
func (d Duration) String() string { return time.Duration(d).String() }

// Algorithm names (the canonical strings of ScenarioSpec.Algorithm).
const (
	AlgVanilla       = "vanilla"
	AlgCompresschain = "compresschain"
	AlgHashchain     = "hashchain"
)

// Metric granularities (ScenarioSpec.Metrics).
const (
	MetricsThroughput = "throughput" // counters and time buckets only
	MetricsStages     = "stages"     // + per-element latency stages (Fig. 4)
)

// Crypto fidelity modes (ScenarioSpec.Crypto); see DESIGN.md §1.
const (
	CryptoModeled = "modeled" // modeled bytes, CPU cost charged to sim clock
	CryptoFull    = "full"    // real ed25519/SHA-512/Deflate over real payloads
)

// Transport names (ScenarioSpec.Transport); see DESIGN.md §13.
const (
	TransportBroadcast = "broadcast" // direct per-validator sends (the default)
	TransportMesh      = "mesh"      // bounded-fanout gossip overlay
)

// Byzantine behavior names (ByzantineSpec.Behaviors); each sets one
// core.Behavior field, except silent, which takes the server's network
// down.
const (
	BehaviorSilent          = "silent"           // network-down (crash-like)
	BehaviorInjectInvalid   = "inject-invalid"   // bogus elements in every batch
	BehaviorWithholdBatches = "withhold-batches" // sign hashes, never serve data
	BehaviorWrongBatches    = "wrong-batches"    // serve corrupted batch contents
	BehaviorCorruptProofs   = "corrupt-proofs"   // sign garbage epoch hashes
	BehaviorForgeSnapshot   = "forge-snapshot"   // corrupt served state-sync snapshots
)

// Behaviors lists every valid Byzantine behavior name.
var Behaviors = []string{
	BehaviorSilent, BehaviorInjectInvalid, BehaviorWithholdBatches,
	BehaviorWrongBatches, BehaviorCorruptProofs, BehaviorForgeSnapshot,
}

// WorkloadSpec shapes the element stream. The zero value is the paper's
// Arbitrum distribution at the default 10 ms injection tick; WithDefaults
// fills unset fields with those same values, so a partially-specified
// workload keeps the paper's parameters for whatever it leaves out.
type WorkloadSpec struct {
	// SizeMean / SizeStdDev parameterize the log-normal element-size model
	// (paper: mean 438 B, σ 753.5).
	SizeMean   float64 `json:"size_mean,omitempty"`
	SizeStdDev float64 `json:"size_stddev,omitempty"`
	// SizeMin / SizeMax clamp sampled sizes (defaults 96 / 16384).
	SizeMin int `json:"size_min,omitempty"`
	SizeMax int `json:"size_max,omitempty"`
	// Tick batches injection bookkeeping (default 10ms).
	Tick Duration `json:"tick,omitempty"`
}

// Admission policy names (AdmissionSpec.Policy); see DESIGN.md §14.
const (
	AdmissionReject = "reject" // refuse new elements while saturated
	AdmissionDelay  = "delay"  // park their transactions, bounded queue + deadline
)

// RatePhaseSpec is one piece of an open-system rate envelope: from From
// onward the base rate is multiplied by Mult (until the next phase).
type RatePhaseSpec struct {
	From Duration `json:"from"`
	Mult float64  `json:"mult"`
}

// OpenSpec configures open-system workload dynamics (DESIGN.md §14):
// Zipf hot-key skew over element sources, session churn, and bursty or
// diurnal rate envelopes. Nil keeps the closed system; the zero value of
// each field disables that dynamic, so pre-open specs and artifacts
// round-trip unchanged.
type OpenSpec struct {
	// Zipf is the source-skew exponent α: each arrival draws its source
	// client with P(rank k) ∝ 1/(k+1)^α. 0 = uniform sources.
	Zipf float64 `json:"zipf,omitempty"`
	// ChurnOn is the mean in-session time; > 0 cycles every client
	// through exponential on/off sessions (arrivals for departed clients
	// are dropped — the load disappears with the client).
	ChurnOn Duration `json:"churn_on,omitempty"`
	// ChurnOff is the mean departed time (defaults to ChurnOn).
	ChurnOff Duration `json:"churn_off,omitempty"`
	// Envelope shapes the aggregate rate over the send window; phases
	// must be in ascending From order.
	Envelope []RatePhaseSpec `json:"envelope,omitempty"`
}

// Enabled reports whether any open-system dynamic is configured.
func (o OpenSpec) Enabled() bool {
	return o.Zipf > 0 || o.ChurnOn > 0 || len(o.Envelope) > 0
}

// Mult returns the envelope's rate multiplier at the given time: 1 before
// the first phase.
func (o OpenSpec) Mult(now time.Duration) float64 {
	m := 1.0
	for _, p := range o.Envelope {
		if now < p.From.Std() {
			break
		}
		m = p.Mult
	}
	return m
}

// Scaled shrinks the block's time axes by the scenario scale factor, the
// same way send windows and fault schedules scale: session lengths and
// envelope phase boundaries keep their position relative to the window.
// Zipf and the multipliers are shape parameters and do not scale.
func (o OpenSpec) Scaled(f float64) OpenSpec {
	if f == 1 || !o.Enabled() {
		return o
	}
	o.ChurnOn = Duration(float64(o.ChurnOn) * f)
	o.ChurnOff = Duration(float64(o.ChurnOff) * f)
	env := make([]RatePhaseSpec, len(o.Envelope))
	for i, p := range o.Envelope {
		env[i] = RatePhaseSpec{From: Duration(float64(p.From) * f), Mult: p.Mult}
	}
	o.Envelope = env
	return o
}

// AdmissionSpec enables mempool admission control (DESIGN.md §14): when
// the pool crosses Watermark × its caps, new elements are refused
// ("reject") or their transactions parked in a bounded deferred queue
// ("delay"). Nil keeps admission off. MaxTxs/MaxBytes override the
// paper's pool caps, which are far too large to ever saturate — an
// admission experiment picks caps the workload can actually reach.
type AdmissionSpec struct {
	// Policy is "reject" or "delay".
	Policy string `json:"policy"`
	// Watermark is the saturation threshold as a fraction of the pool
	// caps (default 0.9); the gap to 1.0 is headroom for transactions
	// carrying already-admitted elements.
	Watermark float64 `json:"watermark,omitempty"`
	// MaxTxs / MaxBytes override the pool caps (0 keeps the paper's
	// 10,000,000 txs / 2 GB).
	MaxTxs   int `json:"max_txs,omitempty"`
	MaxBytes int `json:"max_bytes,omitempty"`
	// MaxDelay bounds a deferred transaction's wait (delay policy;
	// default 5s).
	MaxDelay Duration `json:"max_delay,omitempty"`
	// MaxDeferred caps the deferred queue (delay policy; default 1024).
	MaxDeferred int `json:"max_deferred,omitempty"`
}

// ByzantineSpec configures faulty servers. The highest-indexed Faulty
// servers of the deployment run every listed behavior (server 0, the
// metrics observer, always stays correct).
type ByzantineSpec struct {
	// Faulty is how many servers misbehave.
	Faulty int `json:"faulty"`
	// Behaviors lists the preset fault behaviors (see Behaviors).
	Behaviors []string `json:"behaviors"`
	// InjectCount is the bogus elements added per batch when Behaviors
	// includes "inject-invalid" (default 3).
	InjectCount int `json:"inject_count,omitempty"`
}

// ScenarioSpec is one experiment cell as data: a full description of an
// algorithm variant under a workload and deployment configuration. The
// zero values of optional fields select the paper's defaults (10 servers,
// 50 s send window, LAN network, modeled crypto, throughput metrics).
type ScenarioSpec struct {
	// Name labels the cell in output; empty derives a label from the
	// configuration at run time.
	Name string `json:"name,omitempty"`
	// Group buckets cells of one experiment (a Fig. 1 panel, a Fig. 3
	// bar group); purely presentational.
	Group string `json:"group,omitempty"`
	// Algorithm is "vanilla", "compresschain" or "hashchain".
	Algorithm string `json:"algorithm"`
	// Collector is the paper's collector size c (ignored by Vanilla;
	// default 100 otherwise).
	Collector int `json:"collector,omitempty"`
	// Light disables the expensive pipeline half (Fig. 2 ablations).
	Light bool `json:"light,omitempty"`
	// Servers is the deployment size (paper: 4, 7, 10; default 10). In a
	// sharded run this is the size of EACH shard's consensus group.
	Servers int `json:"servers,omitempty"`
	// Shards splits the element space across this many independent
	// Setchain instances inside one shared network, routed by element-id
	// digest (internal/shard; beyond the paper). 0 or 1 is the paper's
	// single instance — the one-shard case of the same deployment — and
	// the zero value stays unset so pre-sharding specs and artifacts
	// round-trip unchanged.
	Shards int `json:"shards,omitempty"`
	// Transport selects how consensus and mempool traffic fans out:
	// "broadcast" (direct per-validator sends, the paper's model) or
	// "mesh" (bounded-fanout gossip overlay with digest-keyed dedup,
	// DESIGN.md §13). The zero value means broadcast and stays unset so
	// pre-mesh specs and artifacts round-trip unchanged.
	Transport string `json:"transport,omitempty"`
	// Fanout is the mesh overlay's target node degree (default 8). Only
	// meaningful — and only defaulted — when Transport is "mesh".
	Fanout int `json:"fanout,omitempty"`
	// Rate is the aggregate sending rate in elements/second.
	Rate float64 `json:"rate"`
	// SendFor is how long clients keep adding (default 50s).
	SendFor Duration `json:"send_for,omitempty"`
	// Horizon is the total virtual time simulated; 0 derives
	// SendFor + DefaultDrain at run time (and is never scaled — explicit
	// horizons shrink with the run-time scale factor).
	Horizon Duration `json:"horizon,omitempty"`
	// NetworkDelay is the paper's network_delay: artificial latency added
	// to every link (0, 30ms, 100ms in the evaluation).
	NetworkDelay Duration `json:"network_delay,omitempty"`
	// Bandwidth overrides per-node egress bandwidth in bytes/second;
	// 0 keeps the default 1 Gbit/s LAN.
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Seed drives all randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Scale multiplies Rate and SendFor (quick passes; default 1). The
	// harness multiplies it further by its run-time scale argument.
	Scale float64 `json:"scale,omitempty"`
	// Metrics is "throughput" (default) or "stages".
	Metrics string `json:"metrics,omitempty"`
	// Crypto is "modeled" (default) or "full".
	Crypto string `json:"crypto,omitempty"`
	// Workload shapes the element stream; nil uses the paper's model.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Open adds open-system dynamics — Zipf source skew, session churn,
	// rate envelopes; nil keeps the closed system (and stays unset so
	// pre-open specs and artifacts round-trip unchanged).
	Open *OpenSpec `json:"open,omitempty"`
	// Admission enables mempool admission control; nil keeps it off
	// (zero-stays-unset, same round-trip contract as Open).
	Admission *AdmissionSpec `json:"admission,omitempty"`
	// Byzantine configures faulty servers; nil means all correct.
	Byzantine *ByzantineSpec `json:"byzantine,omitempty"`
	// Faults schedules network fault injection (crash/restart, partition/
	// heal, link loss); nil means a fault-free network.
	Faults *FaultSpec `json:"faults,omitempty"`
	// CheckpointInterval makes every server seal a pruning checkpoint —
	// epoch number, cumulative element count, chained digest — each time
	// this many further epochs settle (internal/checkpoint, DESIGN.md §11).
	// 0 disables checkpointing; runs without it are byte-identical to
	// pre-checkpoint builds.
	CheckpointInterval int `json:"checkpoint_interval,omitempty"`
	// Prune drops settled epoch history, ledger blocks and mempool
	// tombstones below each sealed checkpoint, bounding memory on long
	// runs; requires CheckpointInterval > 0. Restarted servers then
	// recover by state-syncing a peer's latest checkpoint snapshot and
	// replaying only the suffix.
	Prune bool `json:"prune,omitempty"`
	// HeapCeilingMB asserts the process's live heap (after a forced GC at
	// the end of the run, deployment still reachable) stays at or under
	// this many MiB — the soak family's bounded-memory check. 0 disables
	// the measurement.
	HeapCeilingMB int `json:"heap_ceiling_mb,omitempty"`
	// SyncChunkBytes sets the chunk size of the state-sync transfer
	// protocol (consensus.Params.SyncChunkBytes): snapshots stream as
	// fixed-size verified chunks instead of one blob, each charged to the
	// modeled network. 0 keeps the 64 KiB default.
	SyncChunkBytes int `json:"sync_chunk_bytes,omitempty"`
}

// WithDefaults fills the paper's defaults into unset fields. It is
// idempotent and the one place a scenario's defaults are written: the
// layers below use what it decided as given (DESIGN.md §7).
func (s ScenarioSpec) WithDefaults() ScenarioSpec {
	s = s.clone()
	if s.Servers == 0 {
		s.Servers = 10
	}
	if s.SendFor == 0 {
		s.SendFor = Duration(50 * time.Second)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Scale == 0 {
		s.Scale = 1
	}
	if s.Metrics == "" {
		s.Metrics = MetricsThroughput
	}
	if s.Crypto == "" {
		s.Crypto = CryptoModeled
	}
	if s.Collector == 0 && s.Algorithm != AlgVanilla {
		s.Collector = 100
	}
	if s.Transport == TransportMesh && s.Fanout == 0 {
		s.Fanout = 8
	}
	if w := s.Workload; w != nil {
		if w.SizeMean == 0 {
			w.SizeMean = 438
		}
		if w.SizeStdDev == 0 {
			w.SizeStdDev = 753.5
		}
		if w.SizeMin == 0 {
			w.SizeMin = 96
		}
		if w.SizeMax == 0 {
			w.SizeMax = 16384
		}
		if w.Tick == 0 {
			w.Tick = Duration(defaultTick)
		}
	}
	if o := s.Open; o != nil && o.ChurnOn > 0 && o.ChurnOff == 0 {
		o.ChurnOff = o.ChurnOn
	}
	if a := s.Admission; a != nil {
		if a.Watermark == 0 {
			a.Watermark = 0.9
		}
		if a.Policy == AdmissionDelay {
			if a.MaxDelay == 0 {
				a.MaxDelay = Duration(5 * time.Second)
			}
			if a.MaxDeferred == 0 {
				a.MaxDeferred = 1024
			}
		}
	}
	if b := s.Byzantine; b != nil && b.InjectCount == 0 && hasBehavior(b.Behaviors, BehaviorInjectInvalid) {
		b.InjectCount = 3
	}
	if s.Faults != nil {
		for i := range s.Faults.Events {
			if ev := &s.Faults.Events[i]; ev.Reorder > 0 && ev.ReorderDelay == 0 {
				ev.ReorderDelay = DefaultReorderDelay
			}
		}
	}
	return s
}

// clone copies the spec with nested blocks of its own, so defaulting or an
// override on the copy never writes through to the original.
func (s ScenarioSpec) clone() ScenarioSpec {
	if s.Workload != nil {
		w := *s.Workload
		s.Workload = &w
	}
	if s.Open != nil {
		o := *s.Open
		o.Envelope = append([]RatePhaseSpec(nil), o.Envelope...)
		s.Open = &o
	}
	if s.Admission != nil {
		a := *s.Admission
		s.Admission = &a
	}
	if s.Byzantine != nil {
		b := *s.Byzantine
		s.Byzantine = &b
	}
	if s.Faults != nil {
		// Never nil: "events" has no omitempty, and a plan encodes as [].
		s.Faults = &FaultSpec{Events: append(make([]FaultEventSpec, 0, len(s.Faults.Events)), s.Faults.Events...)}
	}
	return s
}

// orBroadcast names the transport an unset field denotes, for messages.
func orBroadcast(t string) string {
	if t == "" {
		return TransportBroadcast
	}
	return t
}

func hasBehavior(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// CheckScale is the one rule for a scale factor, a spec's own or a run-time
// -scale flag's: finite and >= 0, where 0 means 1. A negative or NaN scale
// would otherwise run a cell that sends nothing and reports success.
func CheckScale(scale float64) error {
	if !nonNegative(scale) {
		return fmt.Errorf("scale must be finite and >= 0, got %g", scale)
	}
	return nil
}

// nonNegative reports whether v is finite and >= 0, the rule for every
// float field; NaN fails every comparison, so v < 0 lets it through.
func nonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Validate reports the first problem with the spec, or nil. Call after
// WithDefaults; a defaulted registry cell always validates.
func (s ScenarioSpec) Validate() error {
	switch s.Algorithm {
	case AlgVanilla, AlgCompresschain, AlgHashchain:
	case "":
		return fmt.Errorf("algorithm missing (want %q, %q or %q)",
			AlgVanilla, AlgCompresschain, AlgHashchain)
	default:
		return fmt.Errorf("unknown algorithm %q (want %q, %q or %q)",
			s.Algorithm, AlgVanilla, AlgCompresschain, AlgHashchain)
	}
	if s.Algorithm == AlgVanilla && s.Light {
		return fmt.Errorf("light has no Vanilla variant (the ablation removes batch validation, which Vanilla does not have)")
	}
	if !nonNegative(s.Rate) || s.Rate == 0 {
		return fmt.Errorf("rate must be positive and finite, got %g", s.Rate)
	}
	if s.Servers < 1 {
		return fmt.Errorf("servers must be >= 1, got %d", s.Servers)
	}
	if s.Shards < 0 {
		return fmt.Errorf("shards must be >= 0, got %d", s.Shards)
	}
	if s.Shards > 64 {
		return fmt.Errorf("shards must be <= 64, got %d (each shard is a full consensus group)", s.Shards)
	}
	if s.Shards > 1 && s.Metrics == MetricsStages {
		return fmt.Errorf("stages metrics are per-instance and are not aggregated across shards yet (use %q)",
			MetricsThroughput)
	}
	switch s.Transport {
	case "", TransportBroadcast, TransportMesh:
	default:
		return fmt.Errorf("unknown transport %q (want %q or %q)",
			s.Transport, TransportBroadcast, TransportMesh)
	}
	if s.Transport == TransportMesh && s.Fanout < 2 {
		return fmt.Errorf("mesh transport needs fanout >= 2 for a connected overlay, got %d", s.Fanout)
	}
	if s.Transport != TransportMesh && s.Fanout != 0 {
		return fmt.Errorf("fanout is a mesh parameter; transport is %q", orBroadcast(s.Transport))
	}
	if s.Collector < 0 {
		return fmt.Errorf("collector must be >= 0, got %d", s.Collector)
	}
	if s.SendFor < 0 || s.Horizon < 0 || s.NetworkDelay < 0 {
		return fmt.Errorf("durations must be >= 0")
	}
	if window := time.Duration(float64(s.SendFor) * s.Scale); s.Horizon != 0 && s.Horizon.Std() < window {
		return fmt.Errorf("horizon %v shorter than send window %v", s.Horizon.Std(), window)
	}
	if !nonNegative(s.Bandwidth) {
		return fmt.Errorf("bandwidth must be finite and >= 0, got %g", s.Bandwidth)
	}
	if s.SyncChunkBytes < 0 {
		return fmt.Errorf("sync_chunk_bytes must be >= 0, got %d", s.SyncChunkBytes)
	}
	if err := CheckScale(s.Scale); err != nil {
		return err
	}
	switch s.Metrics {
	case "", MetricsThroughput, MetricsStages:
	default:
		return fmt.Errorf("unknown metrics level %q (want %q or %q)",
			s.Metrics, MetricsThroughput, MetricsStages)
	}
	switch s.Crypto {
	case "", CryptoModeled, CryptoFull:
	default:
		return fmt.Errorf("unknown crypto mode %q (want %q or %q)",
			s.Crypto, CryptoModeled, CryptoFull)
	}
	if w := s.Workload; w != nil {
		if !nonNegative(w.SizeMean) || !nonNegative(w.SizeStdDev) || w.SizeMin < 0 || w.SizeMax < 0 || w.Tick < 0 {
			return fmt.Errorf("workload parameters must be finite and >= 0")
		}
		if w.SizeMax != 0 && w.SizeMin > w.SizeMax {
			return fmt.Errorf("workload size_min %d > size_max %d", w.SizeMin, w.SizeMax)
		}
		if w.SizeMin > maxElementSize || w.SizeMax > maxElementSize {
			return fmt.Errorf("workload size_min and size_max must be at most %d, the largest element size", maxElementSize)
		}
	}
	if o := s.Open; o != nil {
		if !(o.Zipf >= 0 && o.Zipf <= 8) {
			return fmt.Errorf("open zipf must be in [0, 8], got %g", o.Zipf)
		}
		if o.ChurnOn < 0 || o.ChurnOff < 0 {
			return fmt.Errorf("open churn durations must be >= 0")
		}
		if o.ChurnOff > 0 && o.ChurnOn == 0 {
			return fmt.Errorf("open churn_off without churn_on (no sessions to leave)")
		}
		for i, p := range o.Envelope {
			if p.From < 0 {
				return fmt.Errorf("open envelope phase %d: from must be >= 0", i)
			}
			if !nonNegative(p.Mult) {
				return fmt.Errorf("open envelope phase %d: mult must be finite and >= 0, got %g", i, p.Mult)
			}
			if i > 0 && p.From <= o.Envelope[i-1].From {
				return fmt.Errorf("open envelope phases must have strictly ascending from times")
			}
		}
	}
	if a := s.Admission; a != nil {
		switch a.Policy {
		case AdmissionReject, AdmissionDelay:
		case "":
			return fmt.Errorf("admission policy missing (want %q or %q)", AdmissionReject, AdmissionDelay)
		default:
			return fmt.Errorf("unknown admission policy %q (want %q or %q)",
				a.Policy, AdmissionReject, AdmissionDelay)
		}
		if !(a.Watermark > 0 && a.Watermark < 1) {
			return fmt.Errorf("admission watermark must be in (0, 1), got %g", a.Watermark)
		}
		if a.MaxTxs < 0 || a.MaxBytes < 0 || a.MaxDeferred < 0 {
			return fmt.Errorf("admission caps must be >= 0")
		}
		if a.MaxDelay < 0 {
			return fmt.Errorf("admission max_delay must be >= 0")
		}
	}
	if b := s.Byzantine; b != nil {
		if b.Faulty < 0 {
			return fmt.Errorf("byzantine faulty must be >= 0, got %d", b.Faulty)
		}
		if b.Faulty >= s.Servers {
			return fmt.Errorf("byzantine faulty %d leaves no correct server of %d", b.Faulty, s.Servers)
		}
		if b.Faulty > 0 && len(b.Behaviors) == 0 {
			return fmt.Errorf("byzantine faulty %d but no behaviors listed", b.Faulty)
		}
		for _, name := range b.Behaviors {
			if !hasBehavior(Behaviors, name) {
				return fmt.Errorf("unknown byzantine behavior %q (want one of %s)",
					name, strings.Join(Behaviors, ", "))
			}
		}
		if b.InjectCount < 0 {
			return fmt.Errorf("byzantine inject_count must be >= 0, got %d", b.InjectCount)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.validate(s.Servers, s.Shards); err != nil {
			return err
		}
	}
	if s.CheckpointInterval < 0 {
		return fmt.Errorf("checkpoint_interval must be >= 0, got %d", s.CheckpointInterval)
	}
	if s.Prune && s.CheckpointInterval == 0 {
		return fmt.Errorf("prune requires checkpoint_interval > 0 (pruning drops history below sealed checkpoints)")
	}
	if s.HeapCeilingMB < 0 {
		return fmt.Errorf("heap_ceiling_mb must be >= 0, got %d", s.HeapCeilingMB)
	}
	if n := s.offeredTxs(); n > maxOfferedTxs {
		return fmt.Errorf("offered load of %.0f ledger transactions exceeds the limit of %d; lower rate, send_for, scale or servers",
			n, maxOfferedTxs)
	}
	if n := s.injectionTicks(); n > maxOfferedTxs {
		return fmt.Errorf("%.0f injection ticks exceed the limit of %d; raise tick or lower send_for, scale, servers or shards",
			n, maxOfferedTxs)
	}
	if w := s.idleConsensusWork(); w > maxIdleConsensusWork {
		return fmt.Errorf("horizon costs %.0f idle consensus messages, over the limit of %d; lower horizon (or send_for when horizon is unset), servers or shards",
			w, maxIdleConsensusWork)
	}
	return nil
}

// DefaultDrain is how long a run whose spec sets no horizon goes on after
// its unscaled send window, for the commit pipeline to drain.
const DefaultDrain = 100 * time.Second

// blockInterval is consensus.TimeoutCommit, the least virtual time between
// two blocks of one consensus group (consensus imports this package, so the
// value is restated here).
const blockInterval = 1240 * time.Millisecond

// maxIdleConsensusWork bounds idleConsensusWork at 10⁸, 103 times the
// largest registry cell's 967,742 (mesh_scale's n=100 cell, 120 s). An idle
// 4-server Vanilla run for 200,000 s (2.6·10⁶ messages) takes 7.9 s of wall
// time on a 2-vCPU VM, about 3 µs a message, so a spec within the bound
// idles for about five minutes at most.
const maxIdleConsensusWork = 100_000_000

// idleConsensusWork returns the consensus messages the defaulted spec's
// horizon costs with no load at all: every consensus group cuts a block
// every blockInterval until the horizon, empty or not, and each block costs
// a vote from every server to every server: horizon ÷ blockInterval ×
// servers² × shards. Validate refuses a spec over maxIdleConsensusWork, so
// a long horizon fails at load time instead of idling for hours.
func (s ScenarioSpec) idleConsensusWork() float64 {
	horizon := float64(s.Horizon)
	if horizon == 0 {
		horizon = float64(s.SendFor) + float64(DefaultDrain)
	}
	groups := float64(max(s.Shards, 1))
	return horizon / float64(blockInterval) * float64(s.Servers) * float64(s.Servers) * groups
}

// defaultTick is the injection tick of a spec that sets none (the same
// value workload.Shape fills in).
const defaultTick = 10 * time.Millisecond

// injectionTicks returns how many injection events the defaulted spec
// schedules: every client (one per server of every shard) fires once per
// tick over the scaled send window, whether or not the tick adds an
// element. maxOfferedTxs bounds it too, so a tiny tick is refused at load
// time instead of running for hours.
func (s ScenarioSpec) injectionTicks() float64 {
	tick := defaultTick
	if s.Workload != nil && s.Workload.Tick > 0 {
		tick = s.Workload.Tick.Std()
	}
	clients := s.Servers * max(s.Shards, 1)
	return float64(clients) * float64(s.SendFor) * s.Scale / float64(tick)
}

// maxElementSize is wire.MaxElementSize, the largest size an element's
// 32-bit Size holds.
const maxElementSize = math.MaxInt32

// maxOfferedTxs bounds offeredTxs. A mempool numbers the transactions it
// admits and the ones it logs as committed in 31 bits, and a server's
// element index numbers epochs and positions in an epoch in 32; 10⁹, under
// half of 2³¹, leaves the pools room for transactions proposed twice or
// re-admitted after a prune.
const maxOfferedTxs = 1_000_000_000

// offeredTxs returns the most ledger transactions the defaulted spec lets
// its clients and servers offer, summed over shards. Clients send rate × scale²
// × send_for elements at most (scale shrinks the rate and the window), times
// the envelope's peak multiplier. Each element rides in at most one
// transaction of its own or one batch, every batch and every epoch holds at
// least one element, and every server of its shard posts at most one proof
// per epoch and one co-signature per batch: (1 + 2·servers) transactions
// per element.
func (s ScenarioSpec) offeredTxs() float64 {
	peak := 1.0
	if s.Open != nil {
		for _, p := range s.Open.Envelope {
			peak = max(peak, p.Mult)
		}
	}
	elements := s.Rate * s.Scale * s.Scale * s.SendFor.Std().Seconds() * peak
	return elements * float64(1+2*s.Servers)
}

// Label renders the paper's legend label for the variant ("Hashchain
// c=500", "Vanilla", "Compresschain Light c=100"), or Name when set.
func (s ScenarioSpec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	return s.VariantLabel()
}

// VariantLabel renders the algorithm-variant part of the label alone,
// ignoring Name.
func (s ScenarioSpec) VariantLabel() string {
	var b strings.Builder
	switch s.Algorithm {
	case AlgVanilla:
		b.WriteString("Vanilla")
	case AlgCompresschain:
		b.WriteString("Compresschain")
	case AlgHashchain:
		b.WriteString("Hashchain")
	default:
		b.WriteString(s.Algorithm)
	}
	if s.Light {
		b.WriteString(" Light")
	}
	if s.Algorithm != AlgVanilla && s.Collector != 0 {
		fmt.Fprintf(&b, " c=%d", s.Collector)
	}
	return b.String()
}
