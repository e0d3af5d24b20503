// Conservative parallel discrete-event execution (PDES) for partitioned
// runs. A World owns one home queue plus P partition queues; partitions
// advance concurrently in lookahead-bounded rounds and exchange events only
// through per-partition inboxes drained at round barriers, in a fixed
// (timestamp, source partition, source sequence) order. The result is
// byte-identical to running the same event population on one queue.
//
// Safety argument (DESIGN.md §12): a partition may execute every event with
// timestamp strictly below W = min(T + L, H), where T is the earliest
// pending event across all partitions, H the earliest home event, and L the
// lookahead — the minimum delay any cross-partition message can experience.
// Any event a partition creates while executing at time t >= T lands on a
// remote queue no earlier than t + L >= T + L >= W, so nothing executed this
// round can be invalidated by a message still in flight. Home events (client
// injection, fault plans, workload ticks) run only at barriers, with no
// partition in flight, so they may touch any partition's state directly.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

const maxDuration = time.Duration(math.MaxInt64)

// World coordinates one home queue and P partition queues. The home queue
// holds events that must observe or mutate cross-partition state (workload
// ticks, fault-plan application, the drain at the end of the send window);
// each partition queue holds the events of the nodes it owns.
type World struct {
	home    *Simulator
	parts   []*Simulator
	workers int

	// lookahead returns the current minimum cross-partition delivery delay.
	// It is re-read every round, so fault events that change link delays
	// (and invalidate netsim's cached window) take effect at the next round
	// boundary — which is exactly when fault events run.
	lookahead func() time.Duration

	// Test-only sabotage switches proving the equivalence sweep is
	// non-vacuous: see BreakMergeOrderForTest / BreakHomeFenceForTest.
	unsafeArrivalOrder bool
	unsafeIgnoreHome   bool

	window time.Duration // bound for the in-flight round's runBefore calls

	// Shared event-sequence state (see Simulator.nextSeq). seqBase is the
	// world-wide creation counter, advanced only in sequential contexts
	// (setup, inbox drains, barriers); inRound is true exactly while
	// partitions execute concurrently, when each allocates privately above
	// seqBase. Both are published to workers by the work-channel send.
	seqBase uint64
	inRound bool
}

// NewWorld creates a home queue plus partitions partition queues, all
// sharing one root random stream (the home queue's) and one seed. workers
// bounds how many partitions execute concurrently; it is clamped to
// [1, partitions].
func NewWorld(seed int64, partitions, workers int) *World {
	if partitions < 1 {
		panic("sim: World needs at least one partition")
	}
	if workers < 1 {
		workers = 1
	}
	if workers > partitions {
		workers = partitions
	}
	w := &World{home: New(seed), workers: workers}
	w.home.world = w
	for i := 0; i < partitions; i++ {
		p := &Simulator{rng: w.home.rng, seed: seed, world: w, pidx: i}
		w.parts = append(w.parts, p)
	}
	return w
}

// Home returns the home queue. Setup code, workload generators, and fault
// plans schedule here; it is also the queue whose Rand() is the run's root
// random stream.
func (w *World) Home() *Simulator { return w.home }

// Part returns partition i's queue.
func (w *World) Part(i int) *Simulator { return w.parts[i] }

// Parts returns the number of partitions.
func (w *World) Parts() int { return len(w.parts) }

// SetLookahead installs the lookahead source, typically
// (*netsim.Network).Lookahead. Until one is installed the World assumes no
// cross-partition traffic exists and runs rounds bounded only by home
// events — callers that route messages between partitions must install it
// before RunUntil.
func (w *World) SetLookahead(fn func() time.Duration) { w.lookahead = fn }

// Executed reports events run and charges counted across the home queue and
// all partitions. A partitioned run executes the sequential schedule's
// events and, by RunUntil's return, has counted its charges, so this
// matches (*Simulator).Executed of an IntraWorkers=1 run.
func (w *World) Executed() uint64 {
	total := w.home.executed
	for _, p := range w.parts {
		total += p.executed
	}
	return total
}

// BreakMergeOrderForTest makes inbox drains keep arrival order instead of
// sorting by (at, srcPart, srcSeq). Used by the equivalence sweep's
// mutation test to prove fingerprint comparison catches merge-order bugs.
func (w *World) BreakMergeOrderForTest() { w.unsafeArrivalOrder = true }

// BreakHomeFenceForTest removes home events from the round-window bound, so
// partitions run past pending injections and observe them late. Used by the
// mutation test to prove the sweep catches synchronization bugs.
func (w *World) BreakHomeFenceForTest() { w.unsafeIgnoreHome = true }

// RunUntil executes all events (home and partition) with timestamps up to
// and including deadline, then advances every clock to deadline, mirroring
// (*Simulator).RunUntil on the sequential path.
func (w *World) RunUntil(deadline time.Duration) {
	limit := satAdd(deadline, 1) // strict upper bound: run events with at <= deadline

	// Persistent workers for this run: rounds are short (often a handful of
	// events per partition), so dispatch must be a channel send, not a
	// goroutine spawn. The window bound travels via w.window — the write
	// happens before the send on work, and the worker's done send happens
	// before the coordinator's receive, so rounds are data-race-free.
	work := make(chan *Simulator, len(w.parts))
	done := make(chan struct{}, len(w.parts))
	for i := 0; i < w.workers; i++ {
		go func() {
			for p := range work {
				p.runBefore(w.window)
				done <- struct{}{}
			}
		}()
	}
	defer close(work)

	for {
		w.drainInboxes()
		T := maxDuration
		for _, p := range w.parts {
			if at := p.nextAt(); at < T {
				T = at
			}
		}
		H := w.home.nextAt()
		if T >= limit && H >= limit {
			break
		}
		L := maxDuration
		if w.lookahead != nil {
			L = w.lookahead()
			if L <= 0 {
				panic(fmt.Sprintf("sim: non-positive lookahead %v cannot bound a round", L))
			}
		}
		W := limit
		if T < limit {
			if b := satAdd(T, L); b < W {
				W = b
			}
		}
		if H < W && !w.unsafeIgnoreHome {
			W = H
		}

		w.window = W
		dispatched := 0
		for _, p := range w.parts {
			p.seq = 0 // reset per-round private allocation count
		}
		w.inRound = true
		for _, p := range w.parts {
			if p.nextAt() < W {
				work <- p
				dispatched++
			}
		}
		for i := 0; i < dispatched; i++ {
			<-done
		}
		w.inRound = false
		// Advance the shared counter past every private window the round
		// used, so later (sequential) creations sort after the round's.
		var maxLocal uint64
		for _, p := range w.parts {
			if p.seq > maxLocal {
				maxLocal = p.seq
			}
		}
		w.seqBase += maxLocal
		w.drainInboxes()

		// With no partition in flight, run the events AT the barrier
		// timestamp W — the home events that bounded the round plus any
		// partition events that landed exactly on it — merged across queues
		// in creation order, exactly as the single-queue schedule would
		// interleave them. Home events may touch any partition directly, and
		// they read partition clocks (e.g. a client injection submits to a
		// server's CPU resource, whose grant is floored at that queue's
		// Now), so first park every partition clock AT the barrier time.
		// Safe: every partition event below W has already executed.
		if w.unsafeIgnoreHome {
			w.home.runBefore(W)
		} else if H == W && W < limit {
			for _, p := range w.parts {
				p.now = max(p.now, W)
			}
			w.mergeRunAt(W)
		}
	}

	w.home.finishAt(deadline)
	for _, p := range w.parts {
		p.finishAt(deadline)
	}
}

// mergeRunAt executes every event with timestamp t, across the home queue
// and all partitions, one at a time in global creation order — smallest
// (seq, partition) first, re-selecting after each event because an event at
// t may create more events at t (zero-cost CPU grants, collector flushes).
// This is the sequential tail of a barrier: the single-queue schedule runs
// same-timestamp events in creation order, and timestamp collisions between
// home and partition events are systematic, not rare (a collector's timeout
// flush timer, seeded by an injection, fires exactly on a later injection
// tick whenever the timeout is a multiple of the tick).
func (w *World) mergeRunAt(t time.Duration) {
	for {
		var best *Simulator
		var bestSeq uint64
		bestPart := 0
		consider := func(q *Simulator, pidx int) {
			if len(q.heap) == 0 || q.heap[0].at > t {
				return
			}
			s0 := q.heap[0].seq
			if best == nil || s0 < bestSeq || (s0 == bestSeq && pidx < bestPart) {
				best, bestSeq, bestPart = q, s0, pidx
			}
		}
		consider(w.home, -1)
		for i, p := range w.parts {
			consider(p, i)
		}
		if best == nil {
			return
		}
		best.step()
	}
}

// drainInboxes merges every partition's inbox into its heap in the fixed
// (at, srcPart, srcSeq) order, assigning destination-local sequence numbers
// in that order — so tie-breaking among same-timestamp arrivals is
// independent of which worker delivered first.
func (w *World) drainInboxes() {
	for _, p := range w.parts {
		p.inboxMu.Lock()
		batch := p.inbox
		p.inbox = nil
		p.inboxMu.Unlock()
		if len(batch) == 0 {
			continue
		}
		if !w.unsafeArrivalOrder {
			sort.Slice(batch, func(i, j int) bool {
				a, b := batch[i], batch[j]
				if a.at != b.at {
					return a.at < b.at
				}
				if a.srcPart != b.srcPart {
					return a.srcPart < b.srcPart
				}
				return a.srcSeq < b.srcSeq
			})
		}
		for _, e := range batch {
			p.At(e.at, e.fn)
		}
	}
	// Home never receives cross-partition sends today (injection and fault
	// application are direct calls at barriers), but drain defensively so a
	// future sender cannot silently drop events.
	w.home.inboxMu.Lock()
	batch := w.home.inbox
	w.home.inbox = nil
	w.home.inboxMu.Unlock()
	for _, e := range batch {
		w.home.At(e.at, e.fn)
	}
}

// satAdd returns a+b, saturated at maxDuration when b > 0 overflows it.
func satAdd(a, b time.Duration) time.Duration {
	c := a + b
	if b > 0 && c < a {
		return maxDuration
	}
	return c
}

// ChildSeed derives a decorrelated child seed from a root seed and a small
// integer identity (splitmix64 finalizer). netsim uses this for per-node
// random streams that are identical across IntraWorkers settings.
func ChildSeed(seed int64, id uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(id+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// ChildRand returns a rand.Rand seeded with ChildSeed.
func ChildRand(seed int64, id uint64) *rand.Rand {
	return rand.New(rand.NewSource(ChildSeed(seed, id)))
}
