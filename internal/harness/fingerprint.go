package harness

import (
	"encoding/json"
	"fmt"
	"time"
)

// Fingerprint serializes every deterministic field of a Result — scenario,
// totals, efficiency checkpoints, time series, commit fractions, per-shard
// summaries, superepoch digest sequence, checkpoint counters, event count,
// network message/byte totals, gossip-relay counters, and the invariant
// verdict — into a canonical byte string. Two runs are
// "byte-identical" exactly when their fingerprints are equal.
//
// Scenario.IntraWorkers is normalized away before serializing: the field
// is ignored by every run, so it cannot tell two results apart.
// Host-dependent measurements (live-heap peaks, wall time) are excluded
// for the same reason.
func Fingerprint(res *Result) []byte {
	clone := *res
	clone.Scenario.IntraWorkers = 0
	b, err := json.Marshal(struct {
		Scenario        Scenario
		Injected        uint64
		Committed       uint64
		Eff50           float64
		Eff75           float64
		Eff100          float64
		AvgTput         float64
		Series          any
		CommitFrac      map[int]time.Duration
		Analytical      float64
		Blocks          int
		Events          uint64
		CheckpointSeals uint64
		SyncInstalls    uint64
		SyncRejected    uint64
		CkptDigest      uint64
		PerShard        any
		SuperSeq        []uint64
		NetMsgs         uint64
		NetBytes        uint64
		Gossip          any
		Offered         uint64
		Rejected        uint64
		Fairness        float64
		DeferredTxs     uint64
		ExpiredTxs      uint64
		Invariant       bool
	}{clone.Scenario, clone.Injected, clone.Committed, clone.Eff50, clone.Eff75,
		clone.Eff100, clone.AvgTput, clone.Series, clone.CommitFrac, clone.Analytical,
		clone.Blocks, clone.Events, clone.CheckpointSeals, clone.SyncInstalls,
		clone.SyncRejected, clone.CkptDigest,
		clone.PerShard, clone.SuperDigests, clone.NetMsgs, clone.NetBytes,
		clone.Gossip, clone.Offered, clone.Rejected, clone.Fairness,
		clone.DeferredTxs, clone.ExpiredTxs, clone.Invariant != nil})
	if err != nil {
		// Every field above is a plain value type; a marshal failure is a
		// programming error in this function, not a data condition.
		panic(fmt.Sprintf("harness: fingerprint marshal: %v", err))
	}
	return b
}
