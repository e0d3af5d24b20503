// Package metrics instruments a Setchain experiment with the measurements
// the paper reports: throughput over time (rolling averages of committed
// elements), efficiency (committed/added at 50/75/100 s), commit-time
// percentiles (first element, 10%..50%), and the five-stage latency CDFs of
// Fig. 4 (first mempool, f+1 mempools, all mempools, ledger, f+1
// epoch-proofs).
//
// Two levels are supported: LevelThroughput keeps only counters and time
// buckets (cheap enough for multi-million-element runs), while LevelStages
// additionally tracks per-element stage timestamps for latency CDFs.
//
// The recorder keeps no copy of the observer's history: the observer's
// server hands it an epoch's elements at the moment the epoch commits
// (EpochCommitted), and the recorder keeps only each committed epoch's size.
//
// See DESIGN.md §2 (layering).
package metrics

import (
	"maps"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Level selects the tracking granularity.
type Level int

// Tracking levels.
const (
	// LevelThroughput counts injected and committed elements, the latter
	// in time buckets.
	LevelThroughput Level = iota
	// LevelStages additionally tracks per-element latency stages.
	LevelStages
)

// Stage identifies one of the paper's five latency milestones.
type Stage int

// Latency stages in pipeline order (Fig. 4).
const (
	StageFirstMempool Stage = iota
	StageQuorumMempools
	StageAllMempools
	StageLedger
	StageCommitted
	numStages
)

// String names the stage as in Fig. 4's legend.
func (s Stage) String() string {
	switch s {
	case StageFirstMempool:
		return "First mempool"
	case StageQuorumMempools:
		return "f+1 mempools"
	case StageAllMempools:
		return "All mempools"
	case StageLedger:
		return "Ledger"
	case StageCommitted:
		return "f+1 epoch-proofs"
	default:
		return "unknown"
	}
}

const bucketWidth = time.Second

// bucketBudget caps the per-series bucket count. When a run's
// horizon outgrows the budget the recorder coarsens: adjacent buckets are
// pair-summed and the width doubles (widths are always bucketWidth·2^k),
// keeping memory O(budget) for arbitrarily long soak runs. Runs shorter
// than the budget — every pre-soak scenario — never coarsen, so their
// bucket math is bit-identical to the uncapped recorder.
const bucketBudget = 1024

// unset marks a stage timestamp that has not occurred.
const unset = time.Duration(-1)

type txStageRec struct {
	elems   []wire.ElementID
	mempool map[wire.NodeID]bool
	first   time.Duration
	quorum  time.Duration
	all     time.Duration
	ledger  time.Duration
}

type elemRec struct {
	injected  time.Duration
	committed time.Duration
}

// Recorder accumulates measurements for one experiment run.
type Recorder struct {
	sim      *sim.Simulator
	level    Level
	n        int
	f        int
	observer wire.NodeID

	committed []uint64      // time buckets, bw wide (per-second until coarsened)
	bw        time.Duration // current bucket width (bucketWidth·2^k)
	totalInj  uint64
	totalComm uint64

	// Checkpoint accounting (CheckpointSealed).
	ckptSeals    uint64
	foldedEpochs uint64 // highest epoch folded out of committedEpochs
	foldedComm   uint64 // committed elements folded (sum of dropped sizes)

	// committedEpochs maps each epoch the observer committed, above the
	// fold, to its element count.
	committedEpochs map[uint64]int

	txs   map[wire.TxKey]*txStageRec
	elems map[wire.ElementID]*elemRec
}

// New creates a recorder. n is the server count, f the Setchain fault bound
// (the "f+1 mempools" stage); observer is the correct server whose epoch
// and commit reports define global commit times.
func New(s *sim.Simulator, level Level, n, f int, observer wire.NodeID) *Recorder {
	return &Recorder{
		sim:             s,
		level:           level,
		n:               n,
		f:               f,
		observer:        observer,
		bw:              bucketWidth,
		committedEpochs: make(map[uint64]int),
		txs:             make(map[wire.TxKey]*txStageRec),
		elems:           make(map[wire.ElementID]*elemRec),
	}
}

// fit coarsens until time t falls inside the bucket budget and returns its
// bucket. Injections as well as commits call it, so the width is set by
// the latest of either.
func (r *Recorder) fit(t time.Duration) int {
	idx := int(t / r.bw)
	for idx >= bucketBudget {
		r.committed = pairSum(r.committed)
		r.bw *= 2
		idx = int(t / r.bw)
	}
	return idx
}

func pairSum(b []uint64) []uint64 {
	out := b[:0]
	for i := 0; i < len(b); i += 2 {
		v := b[i]
		if i+1 < len(b) {
			v += b[i+1]
		}
		out = append(out, v)
	}
	return out
}

// Injected records a client creating an element now.
func (r *Recorder) Injected(e *wire.Element) {
	at := r.sim.Now()
	r.totalInj++
	r.fit(at)
	if r.level >= LevelStages {
		r.elems[e.ID] = &elemRec{injected: at, committed: unset}
	}
}

// RegisterCarrier associates a ledger transaction key with the elements it
// carries (the element itself for Vanilla; the batch's elements for
// Compresschain/Hashchain). The origin server calls this when it creates
// the transaction. Stage timestamps recorded for the transaction then apply
// to all carried elements.
func (r *Recorder) RegisterCarrier(txKey wire.TxKey, elems []*wire.Element) {
	if r.level < LevelStages {
		return
	}
	rec := r.txs[txKey]
	if rec == nil {
		rec = &txStageRec{
			mempool: make(map[wire.NodeID]bool),
			first:   unset, quorum: unset, all: unset, ledger: unset,
		}
		r.txs[txKey] = rec
	}
	for _, e := range elems {
		rec.elems = append(rec.elems, e.ID)
	}
}

// TxEnteredMempool is wired to each node's mempool admission hook.
func (r *Recorder) TxEnteredMempool(node wire.NodeID, tx *wire.Tx) {
	if r.level < LevelStages {
		return
	}
	rec := r.txs[tx.MapKey()]
	if rec == nil {
		return // not a carrier of tracked elements (e.g. proof tx)
	}
	if rec.mempool[node] {
		return
	}
	rec.mempool[node] = true
	now := r.sim.Now()
	switch len(rec.mempool) {
	case 1:
		rec.first = now
	case r.f + 1:
		rec.quorum = now
	}
	if len(rec.mempool) == r.n {
		rec.all = now
	}
}

// BlockCommitted records ledger arrival for every carried element in the
// block. Call it only for the observer node's commits.
func (r *Recorder) BlockCommitted(node wire.NodeID, b *wire.Block) {
	if node != r.observer || r.level < LevelStages {
		return
	}
	now := r.sim.Now()
	for _, tx := range b.Txs {
		if rec := r.txs[tx.MapKey()]; rec != nil && rec.ledger == unset {
			rec.ledger = now
		}
	}
}

// EpochCommitted records the observer's server accepting the f+1-th
// distinct valid epoch-proof of an epoch from a committed block: the
// epoch's elements become committed (the paper's commit definition). The
// server decides the rule (core.Server.acceptProof), hands over the epoch's
// elements and reports each epoch once; a repeated report is ignored.
func (r *Recorder) EpochCommitted(node wire.NodeID, epoch uint64, elems []*wire.Element) {
	if node != r.observer {
		return
	}
	if _, done := r.committedEpochs[epoch]; done {
		return
	}
	r.committedEpochs[epoch] = len(elems)
	now := r.sim.Now()
	r.totalComm += uint64(len(elems))
	if len(elems) > 0 {
		idx := r.fit(now)
		for len(r.committed) <= idx {
			r.committed = append(r.committed, 0)
		}
		r.committed[idx] += uint64(len(elems))
	}
	if r.level >= LevelStages {
		for _, e := range elems {
			if er := r.elems[e.ID]; er != nil && er.committed == unset {
				er.committed = now
			}
		}
	}
}

// CheckpointSealed records the observer sealing an epoch checkpoint.
// When the deployment prunes, the recorder folds its own settled state in
// lockstep: committed epochs at or below the checkpoint horizon are dropped
// (their counts are already in the totals), keeping the recorder's
// epoch-keyed memory bounded by the retention window. The
// folded totals stay available via FoldedEpochs/FoldedCommitted so the
// invariant checker can reconcile them against the checkpoint's
// cumulative element count.
func (r *Recorder) CheckpointSealed(node wire.NodeID, ck checkpoint.Checkpoint, prune bool) {
	if node != r.observer {
		return
	}
	r.ckptSeals++
	if !prune {
		return
	}
	for ep := r.foldedEpochs + 1; ep <= ck.Epoch; ep++ {
		r.foldedComm += uint64(r.committedEpochs[ep])
		delete(r.committedEpochs, ep)
	}
	r.foldedEpochs = ck.Epoch
}

// CheckpointSeals returns how many checkpoints the observer sealed.
func (r *Recorder) CheckpointSeals() uint64 { return r.ckptSeals }

// FoldedEpochs returns the highest epoch folded below the prune horizon.
func (r *Recorder) FoldedEpochs() uint64 { return r.foldedEpochs }

// FoldedCommitted returns how many committed elements were folded below
// the prune horizon (they no longer appear in CommittedEpochSizes).
func (r *Recorder) FoldedCommitted() uint64 { return r.foldedComm }

// CommittedEpochSizes returns, for every epoch the observer saw reach f+1
// epoch-proofs on the ledger, its element count. The invariant checker
// replays this against the servers' final histories (no committed element
// lost). Epochs folded below a
// prune horizon are absent — FoldedEpochs/FoldedCommitted account for
// them in aggregate.
func (r *Recorder) CommittedEpochSizes() map[uint64]int {
	return maps.Clone(r.committedEpochs)
}

// TotalInjected returns the number of elements clients created.
func (r *Recorder) TotalInjected() uint64 { return r.totalInj }

// TotalCommitted returns elements whose epoch has f+1 proofs on the ledger.
func (r *Recorder) TotalCommitted() uint64 { return r.totalComm }

// BucketWidth returns the current width of the recorder's time buckets —
// one second until the bucket budget forces coarsening.
func (r *Recorder) BucketWidth() time.Duration { return r.bw }

// CommittedPerSecond returns a copy of the committed-element buckets.
// Bucket i covers virtual time [i·w, (i+1)·w) with w = BucketWidth() —
// one second for any run short enough to never coarsen. Aggregators — the
// harness merges its per-shard recorders' buckets via MergeBuckets — use
// it to compute global series and commit-time fractions with the same
// bucket semantics a single recorder has.
func (r *Recorder) CommittedPerSecond() []uint64 {
	return append([]uint64(nil), r.committed...)
}

// CommittedBy returns how many elements were committed at or before t.
func (r *Recorder) CommittedBy(t time.Duration) uint64 {
	return BucketCommittedBy(r.bw, r.committed, t)
}

// BucketCommittedBy is CommittedBy over a caller-held bucket slice of the
// given width (bucket i covers [i·w, (i+1)·w)). Aggregators — the harness
// merges its per-shard recorders' buckets — share this one implementation
// so their checkpoint semantics cannot drift from a single recorder's.
func BucketCommittedBy(width time.Duration, buckets []uint64, t time.Duration) uint64 {
	var sum uint64
	limit := int(t / width)
	for i, c := range buckets {
		if i > limit {
			break
		}
		sum += c
	}
	return sum
}

// MergeBuckets element-sums two bucket series that may have different
// (power-of-two-related) widths: the finer series is coarsened to the
// wider width first — exact, because widths are always bucketWidth·2^k —
// then the series are added. Returns the common width and merged slice.
// A nil first series acts as the additive identity (accumulator seeding).
func MergeBuckets(w1 time.Duration, b1 []uint64, w2 time.Duration, b2 []uint64) (time.Duration, []uint64) {
	if len(b1) == 0 && w1 == 0 {
		w1 = w2
	}
	for w1 < w2 {
		b1 = pairSum(append([]uint64(nil), b1...))
		w1 *= 2
	}
	for w2 < w1 {
		b2 = pairSum(append([]uint64(nil), b2...))
		w2 *= 2
	}
	out := append([]uint64(nil), b1...)
	for len(out) < len(b2) {
		out = append(out, 0)
	}
	for i, c := range b2 {
		out[i] += c
	}
	return w1, out
}

// Efficiency returns committed-by-t divided by total added (the paper's
// efficiency metric, computed at 50/75/100 s).
func (r *Recorder) Efficiency(t time.Duration) float64 {
	if r.totalInj == 0 {
		return 0
	}
	return float64(r.CommittedBy(t)) / float64(r.totalInj)
}

// AvgThroughputUpTo returns committed elements per second averaged over
// [0, t] (Table 2's metric).
func (r *Recorder) AvgThroughputUpTo(t time.Duration) float64 {
	if t <= 0 {
		return 0
	}
	return float64(r.CommittedBy(t)) / t.Seconds()
}

// SeriesPoint is one sample of a rolling-average throughput curve.
type SeriesPoint struct {
	Time time.Duration
	Rate float64 // elements/second
}

// ThroughputSeries returns the rolling average commit rate with the given
// window (the paper plots a 9 s window), sampled once per bucket.
func (r *Recorder) ThroughputSeries(window time.Duration) []SeriesPoint {
	return BucketSeries(r.bw, r.committed, window)
}

// BucketSeries is ThroughputSeries over a caller-held bucket slice of the
// given width (see BucketCommittedBy for why the bucket math lives here).
func BucketSeries(width time.Duration, buckets []uint64, window time.Duration) []SeriesPoint {
	w := int(window / width)
	if w < 1 {
		w = 1
	}
	var out []SeriesPoint
	var sum uint64
	for i := 0; i < len(buckets); i++ {
		sum += buckets[i]
		if i >= w {
			sum -= buckets[i-w]
		}
		span := w
		if i+1 < w {
			span = i + 1
		}
		out = append(out, SeriesPoint{
			Time: time.Duration(i+1) * width,
			Rate: float64(sum) / (time.Duration(span) * width).Seconds(),
		})
	}
	return out
}

// CommitTimeAtFraction returns the virtual time by which the given fraction
// of all injected elements had committed, and ok=false if never reached
// (Appendix F's commit-time metric).
func (r *Recorder) CommitTimeAtFraction(frac float64) (time.Duration, bool) {
	return BucketTimeAtFraction(r.bw, r.committed, r.totalInj, frac)
}

// BucketTimeAtFraction is CommitTimeAtFraction over a caller-held bucket
// slice of the given width and its injected total (see BucketCommittedBy
// for why the bucket math lives here).
func BucketTimeAtFraction(width time.Duration, buckets []uint64, total uint64, frac float64) (time.Duration, bool) {
	target := uint64(frac * float64(total))
	if target == 0 {
		target = 1
	}
	var sum uint64
	for i, c := range buckets {
		sum += c
		if sum >= target {
			return time.Duration(i+1) * width, true
		}
	}
	return 0, false
}

// LatencyCDF returns the sorted per-element latencies from injection to the
// given stage. Elements that never reached the stage are omitted; frac
// reports the fraction that did (the CDF's terminal value).
func (r *Recorder) LatencyCDF(stage Stage) (latencies []time.Duration, frac float64) {
	if r.level < LevelStages || r.totalInj == 0 {
		return nil, 0
	}
	switch stage {
	case StageCommitted:
		for _, er := range r.elems {
			if er.committed != unset {
				latencies = append(latencies, er.committed-er.injected)
			}
		}
	default:
		for _, rec := range r.txs {
			var t time.Duration
			switch stage {
			case StageFirstMempool:
				t = rec.first
			case StageQuorumMempools:
				t = rec.quorum
			case StageAllMempools:
				t = rec.all
			case StageLedger:
				t = rec.ledger
			}
			if t == unset {
				continue
			}
			for _, id := range rec.elems {
				if er := r.elems[id]; er != nil {
					latencies = append(latencies, t-er.injected)
				}
			}
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	return latencies, float64(len(latencies)) / float64(r.totalInj)
}

// LatencyQuantile returns the q-quantile (0..1) of a sorted latency slice.
func LatencyQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
