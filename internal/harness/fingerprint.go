package harness

import (
	"encoding/json"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/spec"
)

// Fingerprint serializes every deterministic field of a Result — scenario,
// totals, efficiency checkpoints, time series, commit fractions, per-shard
// summaries, superepoch digest sequence, checkpoint counters, event count,
// network message/byte totals, gossip-relay counters, and the invariant
// verdict — into a canonical byte string. Two runs are
// "byte-identical" exactly when their fingerprints are equal.
//
// The record it encodes is declared here, in Go's basic types only, so its
// field names, order and nesting are the digest format whatever the run's
// own types become; TestFingerprintEncoding pins the bytes. Durations
// encode as nanoseconds. A nil list encodes as null and an empty one as [],
// except a fault event's node lists and the Byzantine behaviors, which are
// null when empty. IntraWorkers is always 0: no run reads it. Host-dependent
// measurements (live-heap peaks, wall time) are left out.
func Fingerprint(res *Result) []byte {
	type (
		alg struct {
			Alg, Collector int
			Light          bool
		}
		sizes struct {
			Mean, StdDev float64
			Min, Max     int
		}
		phase struct {
			From int64
			Mult float64
		}
		open struct {
			Zipf              float64
			ChurnOn, ChurnOff int64
			Envelope          []phase
		}
		admission struct {
			Policy                        string
			Watermark                     float64
			MaxDelay                      int64
			MaxDeferred, MaxTxs, MaxBytes int
		}
		byzantine struct {
			Faulty      int
			Behaviors   []string
			InjectCount int
		}
		linkFault struct {
			Drop, Duplicate, Reorder float64
			ReorderDelay, ExtraDelay int64
		}
		faultEvent struct {
			At       int64
			Kind     string
			Nodes    []int
			Groups   [][]int
			From, To []int
			Fault    linkFault
		}
		faultPlan struct{ Events []faultEvent }
		scenario  struct {
			Name                                 string
			Spec                                 alg
			Servers                              int
			Rate                                 float64
			SendFor, Horizon, NetworkDelay, Seed int64
			Level                                int
			Scale                                float64
			Shards, IntraWorkers                 int
			Transport                            string
			Fanout, Mode                         int
			Bandwidth                            float64
			Sizes                                sizes
			Tick                                 int64
			Open                                 open
			Admission                            admission
			Byzantine                            byzantine
			Faults                               faultPlan
			CheckpointInterval                   int
			Prune                                bool
			HeapCeilingMB, SyncChunkBytes        int
		}
		point struct {
			Time int64
			Rate float64
		}
		shardStats struct {
			Shard               int
			Injected, Committed uint64
			AvgTput             float64
			Epochs, Blocks      int
		}
		gossip struct {
			Originated, Delivered, Relayed, DedupDrops, QueueDrops, Expired uint64
		}
		record struct {
			Scenario                                                        scenario
			Injected, Committed                                             uint64
			Eff50, Eff75, Eff100, AvgTput                                   float64
			Series                                                          []point
			CommitFrac                                                      map[int]int64
			Analytical                                                      float64
			Blocks                                                          int
			Events, CheckpointSeals, SyncInstalls, SyncRejected, CkptDigest uint64
			PerShard                                                        []shardStats
			SuperSeq                                                        []uint64
			NetMsgs, NetBytes                                               uint64
			Gossip                                                          gossip
			Offered, Rejected                                               uint64
			Fairness                                                        float64
			DeferredTxs, ExpiredTxs                                         uint64
			Invariant                                                       bool
		}
	)
	sc, o, a, b, g := res.Scenario, res.Scenario.Open, res.Scenario.Admission, res.Scenario.Byzantine, res.Gossip
	var commitFrac map[int]int64
	if res.CommitFrac != nil {
		commitFrac = make(map[int]int64, len(res.CommitFrac))
		for pct, t := range res.CommitFrac {
			commitFrac[pct] = int64(t)
		}
	}
	out, err := json.Marshal(record{
		scenario{sc.Name, alg{int(sc.Spec.Alg), sc.Spec.Collector, sc.Spec.Light}, sc.Servers, sc.Rate,
			int64(sc.SendFor), int64(sc.Horizon), int64(sc.NetworkDelay), sc.Seed, int(sc.Level), sc.Scale,
			sc.Shards, 0, sc.Transport, sc.Fanout, int(sc.Mode), sc.Bandwidth,
			sizes{sc.Sizes.Mean, sc.Sizes.StdDev, sc.Sizes.Min, sc.Sizes.Max}, int64(sc.Tick),
			open{o.Zipf, int64(o.ChurnOn), int64(o.ChurnOff),
				each(o.Envelope, func(p spec.RatePhaseSpec) phase { return phase{int64(p.From), p.Mult} })},
			admission{a.Policy, a.Watermark, int64(a.MaxDelay), a.MaxDeferred, a.MaxTxs, a.MaxBytes},
			byzantine{b.Faulty, orNil(b.Behaviors), b.InjectCount},
			faultPlan{each(sc.Faults.Events, func(ev spec.FaultEventSpec) faultEvent {
				return faultEvent{int64(ev.At), ev.Action, orNil(ev.Nodes), orNil(each(ev.Groups, orNil[[]int])),
					orNil(ev.From), orNil(ev.To),
					linkFault{ev.Drop, ev.Duplicate, ev.Reorder, int64(ev.ReorderDelay), int64(ev.Delay)}}
			})},
			sc.CheckpointInterval, sc.Prune, sc.HeapCeilingMB, sc.SyncChunkBytes},
		res.Injected, res.Committed, res.Eff50, res.Eff75, res.Eff100, res.AvgTput,
		each(res.Series, func(p metrics.SeriesPoint) point { return point{int64(p.Time), p.Rate} }),
		commitFrac, res.Analytical, res.Blocks, res.Events,
		res.CheckpointSeals, res.SyncInstalls, res.SyncRejected, res.CkptDigest,
		each(res.PerShard, func(st shard.Stats) shardStats {
			return shardStats{st.Shard, st.Injected, st.Committed, st.AvgTput, st.Epochs, st.Blocks}
		}),
		res.SuperDigests, res.NetMsgs, res.NetBytes,
		gossip{g.Originated, g.Delivered, g.Relayed, g.DedupDrops, g.QueueDrops, g.Expired},
		res.Offered, res.Rejected, res.Fairness, res.DeferredTxs, res.ExpiredTxs, res.Invariant != nil,
	})
	if err != nil {
		// Every field above is a plain value type; a marshal failure is a
		// programming error in this function, not a data condition.
		panic(fmt.Sprintf("harness: fingerprint marshal: %v", err))
	}
	return out
}

// each maps a list through f, keeping a nil list nil and an empty one empty.
func each[T, U any](in []T, f func(T) U) []U {
	if in == nil {
		return nil
	}
	out := make([]U, len(in))
	for i, v := range in {
		out[i] = f(v)
	}
	return out
}

// orNil returns nil for an empty list.
func orNil[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return s
}
