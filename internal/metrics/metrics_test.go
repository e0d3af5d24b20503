package metrics

import (
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/sim"
	"repro/internal/wire"
)

func elem(i int) *wire.Element {
	e := &wire.Element{Size: 438}
	e.ID[0] = byte(i)
	e.ID[1] = byte(i >> 8)
	return e
}

// The recorder books an epoch's elements when the observer's server reports
// the epoch's f+1-th proof (core.Server.acceptProof decides the rule), at
// that instant, and only once; a fold drops the epoch into the folded total.
func TestCommitRequiresQuorumProofs(t *testing.T) {
	s := sim.New(1)
	r := New(s, LevelThroughput, 4, 1, 0)
	es := []*wire.Element{elem(1), elem(2)}
	s.After(time.Second, func() {
		for _, e := range es {
			r.Injected(e)
		}
	})
	s.After(2*time.Second, func() {
		if r.TotalCommitted() != 0 {
			t.Error("committed before the quorum report")
		}
		r.EpochCommitted(0, 1, es)
	})
	s.Run()
	if r.TotalCommitted() != 2 {
		t.Fatalf("committed = %d, want 2", r.TotalCommitted())
	}
	if tm, ok := r.CommitTimeAtFraction(1); !ok || tm != 3*time.Second {
		t.Fatalf("commit time = %v/%v, want the 2 s bucket's end, 3 s", tm, ok)
	}
	// A repeated report is ignored.
	r.EpochCommitted(0, 1, es)
	if r.TotalCommitted() != 2 {
		t.Fatal("repeated report recounted elements")
	}
	if got := r.CommittedEpochSizes(); len(got) != 1 || got[1] != 2 {
		t.Fatalf("committed epoch sizes %v, want epoch 1 of 2", got)
	}
	r.CheckpointSealed(0, checkpoint.Checkpoint{Epoch: 1}, true)
	if got := r.CommittedEpochSizes(); len(got) != 0 || r.FoldedEpochs() != 1 || r.FoldedCommitted() != 2 {
		t.Fatalf("after the fold: sizes %v, folded %d epochs and %d elements, want none, 1 and 2",
			got, r.FoldedEpochs(), r.FoldedCommitted())
	}
}

func TestNonObserverIgnored(t *testing.T) {
	s := sim.New(1)
	r := New(s, LevelThroughput, 4, 1, 0)
	r.Injected(elem(1))
	r.EpochCommitted(3, 1, []*wire.Element{elem(1)}) // node 3 is not observer
	if r.TotalCommitted() != 0 {
		t.Fatal("non-observer observations counted")
	}
}

func TestEfficiencyAndAvgThroughput(t *testing.T) {
	s := sim.New(1)
	r := New(s, LevelThroughput, 4, 1, 0)
	var es []*wire.Element
	s.After(0, func() {
		for i := 0; i < 100; i++ {
			e := elem(i)
			es = append(es, e)
			r.Injected(e)
		}
	})
	// Half commit at t=10s.
	s.After(10*time.Second, func() {
		r.EpochCommitted(0, 1, es[:50])
	})
	// Rest at t=60s.
	s.After(60*time.Second, func() {
		r.EpochCommitted(0, 2, es[50:])
	})
	s.Run()
	if eff := r.Efficiency(50 * time.Second); eff != 0.5 {
		t.Fatalf("eff@50 = %v, want 0.5", eff)
	}
	if eff := r.Efficiency(100 * time.Second); eff != 1.0 {
		t.Fatalf("eff@100 = %v, want 1.0", eff)
	}
	if avg := r.AvgThroughputUpTo(50 * time.Second); avg != 1.0 {
		t.Fatalf("avg tput = %v el/s, want 1.0 (50 el in 50 s)", avg)
	}
}

func TestCommitTimeAtFraction(t *testing.T) {
	s := sim.New(1)
	r := New(s, LevelThroughput, 4, 1, 0)
	var es []*wire.Element
	s.After(0, func() {
		for i := 0; i < 100; i++ {
			e := elem(i)
			es = append(es, e)
			r.Injected(e)
		}
	})
	s.After(5*time.Second, func() {
		r.EpochCommitted(0, 1, es[:30])
	})
	s.Run()
	if tm, ok := r.CommitTimeAtFraction(0); !ok || tm != 6*time.Second {
		t.Fatalf("first-element commit = %v/%v, want 6s bucket", tm, ok)
	}
	if tm, ok := r.CommitTimeAtFraction(0.30); !ok || tm != 6*time.Second {
		t.Fatalf("30%% commit = %v/%v", tm, ok)
	}
	if _, ok := r.CommitTimeAtFraction(0.50); ok {
		t.Fatal("50% reported committed with only 30 of 100")
	}
}

func TestThroughputSeriesRollingWindow(t *testing.T) {
	s := sim.New(1)
	r := New(s, LevelThroughput, 4, 1, 0)
	// Commit 10 el/s for 20 s via one epoch per second.
	var all []*wire.Element
	for i := 0; i < 200; i++ {
		all = append(all, elem(i))
	}
	s.After(0, func() {
		for _, e := range all {
			r.Injected(e)
		}
	})
	for sec := 0; sec < 20; sec++ {
		sec := sec
		s.After(time.Duration(sec)*time.Second+500*time.Millisecond, func() {
			ep := uint64(sec + 1)
			r.EpochCommitted(0, ep, all[sec*10:(sec+1)*10])
		})
	}
	s.Run()
	series := r.ThroughputSeries(9 * time.Second)
	if len(series) != 20 {
		t.Fatalf("series length = %d, want 20", len(series))
	}
	// Steady state: 10 el/s.
	last := series[len(series)-1]
	if last.Rate < 9.9 || last.Rate > 10.1 {
		t.Fatalf("steady rate = %v, want ~10", last.Rate)
	}
	if last.Time != 20*time.Second {
		t.Fatalf("last sample at %v, want 20s", last.Time)
	}
}

func TestStageTracking(t *testing.T) {
	s := sim.New(1)
	r := New(s, LevelStages, 4, 1, 0)
	e := elem(1)
	tx := &wire.Tx{Kind: wire.TxElement, Element: e}
	s.After(0, func() {
		r.Injected(e)
		r.RegisterCarrier(tx.MapKey(), []*wire.Element{e})
	})
	s.After(100*time.Millisecond, func() { r.TxEnteredMempool(0, tx) })
	s.After(200*time.Millisecond, func() { r.TxEnteredMempool(1, tx) }) // f+1 = 2
	s.After(250*time.Millisecond, func() { r.TxEnteredMempool(1, tx) }) // dup node ignored
	s.After(300*time.Millisecond, func() { r.TxEnteredMempool(2, tx) })
	s.After(400*time.Millisecond, func() { r.TxEnteredMempool(3, tx) }) // all
	s.After(2*time.Second, func() {
		r.BlockCommitted(0, &wire.Block{Height: 1, Txs: []*wire.Tx{tx}})
	})
	s.After(4*time.Second, func() {
		r.EpochCommitted(0, 1, []*wire.Element{e})
	})
	s.Run()
	expect := map[Stage]time.Duration{
		StageFirstMempool:   100 * time.Millisecond,
		StageQuorumMempools: 200 * time.Millisecond,
		StageAllMempools:    400 * time.Millisecond,
		StageLedger:         2 * time.Second,
		StageCommitted:      4 * time.Second,
	}
	for stage, want := range expect {
		lats, frac := r.LatencyCDF(stage)
		if len(lats) != 1 || frac != 1.0 {
			t.Fatalf("%v: %d samples frac %v, want 1/1.0", stage, len(lats), frac)
		}
		if lats[0] != want {
			t.Fatalf("%v latency = %v, want %v", stage, lats[0], want)
		}
	}
}

func TestStageCDFOmitsUnreached(t *testing.T) {
	s := sim.New(1)
	r := New(s, LevelStages, 10, 4, 0)
	e1, e2 := elem(1), elem(2)
	tx1 := &wire.Tx{Kind: wire.TxElement, Element: e1}
	s.After(0, func() {
		r.Injected(e1)
		r.Injected(e2)
		r.RegisterCarrier(tx1.MapKey(), []*wire.Element{e1})
		r.TxEnteredMempool(0, tx1)
	})
	s.Run()
	lats, frac := r.LatencyCDF(StageFirstMempool)
	if len(lats) != 1 {
		t.Fatalf("samples = %d, want 1", len(lats))
	}
	if frac != 0.5 {
		t.Fatalf("reach fraction = %v, want 0.5", frac)
	}
}

func TestThroughputLevelSkipsStageWork(t *testing.T) {
	s := sim.New(1)
	r := New(s, LevelThroughput, 4, 1, 0)
	e := elem(1)
	tx := &wire.Tx{Kind: wire.TxElement, Element: e}
	r.Injected(e)
	r.RegisterCarrier(tx.MapKey(), []*wire.Element{e})
	r.TxEnteredMempool(0, tx)
	lats, _ := r.LatencyCDF(StageFirstMempool)
	if lats != nil {
		t.Fatal("throughput level produced stage latencies")
	}
}

func TestLatencyQuantile(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5}
	if q := LatencyQuantile(sorted, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := LatencyQuantile(sorted, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := LatencyQuantile(sorted, 0.5); q != 3 {
		t.Fatalf("q0.5 = %v", q)
	}
	if q := LatencyQuantile(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestStageStrings(t *testing.T) {
	names := map[Stage]string{
		StageFirstMempool:   "First mempool",
		StageQuorumMempools: "f+1 mempools",
		StageAllMempools:    "All mempools",
		StageLedger:         "Ledger",
		StageCommitted:      "f+1 epoch-proofs",
	}
	for st, want := range names {
		if st.String() != want {
			t.Fatalf("%d -> %q, want %q", st, st.String(), want)
		}
	}
}

// pairSum is the primitive behind coarsening and width reconciliation: it
// halves a series by adding adjacent buckets, carrying an odd tail as its
// own bucket, and must never lose counts.
func TestPairSum(t *testing.T) {
	got := pairSum([]uint64{1, 2, 3, 4, 5})
	want := []uint64{3, 7, 5}
	if len(got) != len(want) {
		t.Fatalf("pairSum len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pairSum[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if out := pairSum(nil); len(out) != 0 {
		t.Fatalf("pairSum(nil) = %v, want empty", out)
	}
}

// When the horizon outgrows the bucket budget the recorder coarsens
// instead of growing: the width doubles (staying bucketWidth·2^k), the
// bucket count stays under the budget and no count is lost. Injections
// alone coarsen too, so a run's width is the same whether or not its late
// elements commit.
func TestBucketBudgetCoarsens(t *testing.T) {
	const events = 16
	step := bucketBudget / 4 * bucketWidth
	for _, commit := range []bool{true, false} {
		s := sim.New(1)
		r := New(s, LevelThroughput, 4, 1, 0)
		for i := 0; i < events; i++ {
			at := time.Duration(i)*step + 500*time.Millisecond
			s.After(at, func() {
				r.Injected(elem(i))
				if commit {
					r.EpochCommitted(0, uint64(i+1), []*wire.Element{elem(i)})
				}
			})
		}
		s.Run()
		// A horizon of four budgets of one-second buckets forces two doublings.
		if r.BucketWidth() != 4*time.Second {
			t.Fatalf("commit=%v: BucketWidth = %v after coarsening, want 4s", commit, r.BucketWidth())
		}
		if len(r.committed) > bucketBudget {
			t.Fatalf("committed series holds %d buckets, budget is %d", len(r.committed), bucketBudget)
		}
		var sum uint64
		for _, c := range r.committed {
			sum += c
		}
		want := uint64(0)
		if commit {
			want = events
		}
		if sum != want || r.TotalCommitted() != want || r.TotalInjected() != events {
			t.Fatalf("commit=%v: coarsening lost counts: bucket sum %d, committed %d, injected %d, want %d and %d",
				commit, sum, r.TotalCommitted(), r.TotalInjected(), want, events)
		}
	}
}

// MergeBuckets reconciles series of different (power-of-two-related)
// widths by coarsening the finer one, preserves totals, pads length
// mismatches and treats a nil first series as the additive identity —
// without mutating its inputs (the harness reuses per-shard
// slices after merging).
func TestMergeBucketsReconcilesWidths(t *testing.T) {
	b1 := []uint64{1, 2, 3, 4}
	b2 := []uint64{10, 20}
	w, out := MergeBuckets(time.Second, b1, 2*time.Second, b2)
	if w != 2*time.Second {
		t.Fatalf("merged width = %v, want 2s", w)
	}
	want := []uint64{13, 27} // pairSum(b1)=[3,7] + [10,20]
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("merged[%d] = %d, want %d", i, out[i], want[i])
		}
	}
	if b1[0] != 1 || b1[1] != 2 || b2[0] != 10 {
		t.Fatal("MergeBuckets mutated its inputs")
	}
	// Accumulator seeding: nil first series adopts the other's width.
	if w, out := MergeBuckets(0, nil, 2*time.Second, b2); w != 2*time.Second ||
		len(out) != 2 || out[0] != 10 || out[1] != 20 {
		t.Fatalf("nil identity merge = (%v, %v)", w, out)
	}
	// Shorter first series is padded, not truncated.
	if _, out := MergeBuckets(time.Second, []uint64{1}, time.Second, []uint64{1, 2, 3}); len(out) != 3 ||
		out[0] != 2 || out[2] != 3 {
		t.Fatalf("length padding merge = %v", out)
	}
}
