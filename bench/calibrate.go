package main

import (
	"container/heap"
	"runtime"
	"time"
)

// Host calibration. The builder's host runs the same binary on the same
// input up to 3x slower from one minute to the next (memory-system
// contention from outside the VM; repeats inside one process agree to
// 5-10 %), which no bound of a regression gate can absorb. So every timed
// region is bracketed by a reference kernel of fixed work, and the two
// wall-clock metrics are scaled by refNominal ÷ (mean of the kernel before
// and after): seconds on a host that runs the kernel in refNominal. The
// kernel runs no repository code, so a faster simulator moves the metrics
// by exactly its own gain. See README.md for the measurements behind this.

// refNominal is the kernel's time on the builder's host in a quiet minute.
// It only fixes the unit; changing it rescales every value ever recorded.
const refNominal = 250 * time.Millisecond

type refItem struct {
	at  uint64
	seq int
}

type refQueue []*refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	return q[i].at < q[j].at || (q[i].at == q[j].at && q[i].seq < q[j].seq)
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

var refSink int // keeps the kernel's result observable

// refKernel does the simulator's kind of work at a fixed size: 600,000 map
// inserts under 16-byte keys, a binary heap pushed (and popped every third
// step) alongside, one small allocation per step, all from a fixed
// xorshift stream. It was the candidate that tracked the host's slow
// minutes best (an ALU-only loop does not see them at all).
func refKernel() time.Duration {
	runtime.GC() // the previous run's garbage is not this kernel's to sweep
	t0 := time.Now()
	x := uint64(12345)
	seen := make(map[[16]byte]*refItem)
	var q refQueue
	for i := 0; i < 600_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var key [16]byte
		for j := 0; j < 8; j++ {
			key[j] = byte(x >> (8 * j))
		}
		it := &refItem{at: x % 1_000_000, seq: i}
		seen[key] = it
		heap.Push(&q, it)
		if i%3 == 2 {
			heap.Pop(&q)
		}
	}
	refSink += len(seen) + len(q)
	return time.Since(t0)
}

// host remembers the latest kernel sample, so that the sample taken after
// one timed region is also the one before the next.
type host struct{ last time.Duration }

// around runs fn between two kernel samples and returns their mean.
func (h *host) around(fn func()) time.Duration {
	if h.last == 0 {
		h.last = refKernel()
	}
	before := h.last
	fn()
	h.last = refKernel()
	return (before + h.last) / 2
}

// calibrated scales a raw duration by the host's speed while it ran.
func calibrated(raw, kernel time.Duration) time.Duration {
	return time.Duration(float64(raw) * float64(refNominal) / float64(kernel))
}
