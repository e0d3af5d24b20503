package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestWorldTieBreaksByCreationOrder pins the at-tie contract that makes
// partitioned runs byte-identical to the single-queue schedule: events with
// the same timestamp run in creation order even when they live on different
// queues. The same schedule is built on a plain Simulator and on a World
// (the plain path is the spec; the World must match it), in both creation
// orders.
func TestWorldTieBreaksByCreationOrder(t *testing.T) {
	build := func(first, second func(at time.Duration, fn func())) func() []string {
		var log []string
		first(100, func() { log = append(log, "first") })
		second(100, func() { log = append(log, "second") })
		return func() []string { return log }
	}

	for _, homeFirst := range []bool{false, true} {
		// Spec: plain single-queue simulator.
		s := New(1)
		wantLog := build(
			func(at time.Duration, fn func()) { s.At(at, fn) },
			func(at time.Duration, fn func()) { s.At(at, fn) },
		)
		s.RunUntil(200)
		want := fmt.Sprint(wantLog())

		// World: one of the two events lives on a partition queue. The home
		// event bounds the round (H == W == 100), so both sides meet at the
		// barrier merge.
		w := NewWorld(1, 2, 2)
		onHome := func(at time.Duration, fn func()) { w.Home().At(at, fn) }
		onPart := func(at time.Duration, fn func()) { w.Part(1).At(at, fn) }
		var gotLog func() []string
		if homeFirst {
			gotLog = build(onHome, onPart)
		} else {
			gotLog = build(onPart, onHome)
		}
		w.RunUntil(200)
		if got := fmt.Sprint(gotLog()); got != want {
			t.Fatalf("homeFirst=%v: World ran %s, single queue ran %s", homeFirst, got, want)
		}
	}
}

// TestWorldMergeRunsNewSameTimeEvents: an event at the barrier timestamp
// that creates another event at the same timestamp (a zero-delay follow-up,
// like a zero-cost CPU grant) must see it run in the same merge, after every
// older event at that timestamp — exactly the single-queue order.
func TestWorldMergeRunsNewSameTimeEvents(t *testing.T) {
	w := NewWorld(1, 2, 1)
	var log []string
	w.Part(0).At(50, func() { log = append(log, "older-part") })
	w.Home().At(50, func() {
		log = append(log, "home")
		w.Part(0).At(50, func() { log = append(log, "grant") })
	})
	w.RunUntil(100)
	if got := fmt.Sprint(log); got != "[older-part home grant]" {
		t.Fatalf("merge order %s, want [older-part home grant]", got)
	}
	if w.Executed() != 3 {
		t.Fatalf("Executed = %d, want 3", w.Executed())
	}
}

// TestWorldInboxMergeOrder: same-timestamp cross-partition arrivals merge in
// (at, srcPart, srcSeq) order regardless of arrival order, and the
// BreakMergeOrderForTest sabotage switch visibly reverts to arrival order —
// proving the sort is load-bearing, not decorative.
func TestWorldInboxMergeOrder(t *testing.T) {
	run := func(breakOrder bool) []string {
		w := NewWorld(1, 3, 1)
		if breakOrder {
			w.BreakMergeOrderForTest()
		}
		var log []string
		// Arrival order deliberately reversed from the merge key order:
		// partition 1's send lands in the inbox first, then partition 0's,
		// both for the same destination timestamp.
		w.Part(1).SendCross(w.Part(2), 10, func() { log = append(log, "from-p1") })
		w.Part(0).SendCross(w.Part(2), 10, func() { log = append(log, "from-p0") })
		w.RunUntil(20)
		return log
	}
	if got := fmt.Sprint(run(false)); got != "[from-p0 from-p1]" {
		t.Fatalf("sorted merge ran %s, want [from-p0 from-p1]", got)
	}
	if got := fmt.Sprint(run(true)); got != "[from-p1 from-p0]" {
		t.Fatalf("arrival-order merge ran %s, want [from-p1 from-p0]", got)
	}
}

// TestWorldCrossTrafficDeterministicAcrossWorkers runs a cross-partition
// ping-pong workload — each partition forwards a token to the next with the
// lookahead delay, and home injects new tokens on a fixed cadence — on one
// queue and on a World at several worker widths, and requires identical
// per-partition execution traces and Executed counts. Every hop charges
// its partition's CPU and some queue a callback job behind the charge;
// home events charge partition CPUs at barriers, the client-injection
// shape. Traces are recorded partition-locally (only that partition's
// events append), so recording is race-free by the same argument that makes
// the execution correct.
func TestWorldCrossTrafficDeterministicAcrossWorkers(t *testing.T) {
	const (
		parts    = 4
		L        = 7 * time.Millisecond
		deadline = 500 * time.Millisecond
	)
	// workers == 0 is the spec: every partition on one plain Simulator.
	run := func(workers int) (string, uint64) {
		var (
			home    *Simulator
			part    func(int) *Simulator
			send    func(src, dst *Simulator, at time.Duration, fn func())
			runTo   func(time.Duration)
			execute func() uint64
		)
		if workers == 0 {
			s := New(42)
			home, part = s, func(int) *Simulator { return s }
			send = func(_, _ *Simulator, at time.Duration, fn func()) { s.At(at, fn) }
			runTo, execute = s.RunUntil, s.Executed
		} else {
			w := NewWorld(42, parts, workers)
			w.SetLookahead(func() time.Duration { return L })
			home, part = w.Home(), w.Part
			send = (*Simulator).SendCross
			runTo, execute = w.RunUntil, w.Executed
		}
		cpu := make([]*Resource, parts)
		for p := range cpu {
			cpu[p] = part(p).NewResource(fmt.Sprint("cpu", p))
		}
		logs := make([][]string, parts)
		var hop func(p int, token int) func()
		hop = func(p, token int) func() {
			return func() {
				self := part(p)
				logs[p] = append(logs[p], fmt.Sprintf("%d@%v", token, self.Now()))
				cpu[p].Submit(time.Duration(token+1)*300*time.Microsecond, nil)
				if token != 1 {
					cpu[p].Submit(100*time.Microsecond, func() {
						logs[p] = append(logs[p], fmt.Sprintf("job%d@%v", token, self.Now()))
					})
				}
				next := (p + 1) % parts
				send(self, part(next), self.Now()+L, hop(next, token))
			}
		}
		for token := 0; token < 3; token++ {
			token := token
			at := time.Duration(token+1) * 10 * time.Millisecond
			home.At(at, func() {
				cpu[token%parts].Submit(2*time.Millisecond, nil)
				part(token%parts).At(at, hop(token%parts, token))
			})
		}
		for at := 5 * time.Millisecond; at < deadline; at += 25 * time.Millisecond {
			home.At(at, func() {
				for _, r := range cpu {
					r.Submit(time.Millisecond, nil)
				}
			})
		}
		runTo(deadline)
		if home.Now() != deadline {
			t.Fatalf("workers=%d: home clock %v, want %v", workers, home.Now(), deadline)
		}
		return fmt.Sprint(logs), execute()
	}
	want, wantExec := run(0)
	for _, workers := range []int{1, 2, 3, 4, 8, runtime.NumCPU()} {
		got, exec := run(workers)
		if got != want {
			t.Fatalf("workers=%d trace diverges\nwant %s\ngot  %s", workers, want, got)
		}
		if exec != wantExec {
			t.Fatalf("workers=%d: World executed %d, single queue %d", workers, exec, wantExec)
		}
	}
}

// TestWorldExecutionMonotonicPerQueue: lookahead-bounded rounds must never
// run a partition past an incoming cross event — observable as a timestamp
// regression on the destination queue, which step() turns into a panic.
// This drives dense local events against slower cross sends and succeeding
// is the absence of that panic plus full delivery.
func TestWorldExecutionMonotonicPerQueue(t *testing.T) {
	const L = time.Millisecond
	w := NewWorld(7, 2, 2)
	w.SetLookahead(func() time.Duration { return L })
	delivered := 0
	// Partition 1: dense local ticks, eager to run ahead.
	var tick func()
	tick = func() {
		if w.Part(1).Now() < 80*time.Millisecond {
			w.Part(1).After(10*time.Microsecond, tick)
		}
	}
	w.Part(1).At(0, tick)
	// Partition 0: a stream of cross sends at exactly the lookahead bound.
	var send func(i int)
	send = func(i int) {
		if i >= 50 {
			return
		}
		src := w.Part(0)
		src.SendCross(w.Part(1), src.Now()+L, func() { delivered++ })
		src.After(time.Millisecond, func() { send(i + 1) })
	}
	w.Part(0).At(0, func() { send(0) })
	w.RunUntil(100 * time.Millisecond)
	if delivered != 50 {
		t.Fatalf("delivered %d cross events, want 50", delivered)
	}
}

// TestWorldRejectsNonPositiveLookahead: a zero or negative window cannot
// bound a round; the World must fail loudly instead of deadlocking or
// silently serializing.
func TestWorldRejectsNonPositiveLookahead(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil accepted a non-positive lookahead")
		}
	}()
	w := NewWorld(1, 2, 1)
	w.SetLookahead(func() time.Duration { return 0 })
	w.Part(0).At(10, func() {})
	w.RunUntil(20)
}
