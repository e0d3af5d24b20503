// Package sim provides a deterministic discrete-event simulator with a
// virtual clock. All Setchain evaluation scenarios run on this kernel so
// that a 100-virtual-second experiment completes in milliseconds of wall
// time and is exactly reproducible for a given seed.
//
// The simulator is single-threaded by design: every event handler runs to
// completion before the next event fires, which gives the actor-style
// components built on top (network, consensus, Setchain servers) atomic
// per-event semantics without locks. CPU-bound work is modeled explicitly
// with Resource (see resource.go) rather than by burning wall-clock time.
// A callback-free resource job (a charge) is counted, not scheduled: it
// draws a sequence number but never enters the heap. At every return from
// Run and RunUntil, Executed, Now and Pending read as if each charge had
// been a no-op event.
//
// The event queue is built for the allocation budget of multi-million-event
// sweeps (DESIGN.md §6): event state lives in a slab recycled through a
// free list, the priority queue is a 4-ary heap of plain values (no
// interface boxing, no per-event pointer), and Cancel removes the event
// from the heap immediately instead of leaving a tombstone to surface at
// its timestamp. The steady-state schedule/pop path performs zero heap
// allocations.
//
// See DESIGN.md §6 (performance engineering).
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

const maxDuration = time.Duration(math.MaxInt64)

// Simulator owns the virtual clock and the pending-event queue.
type Simulator struct {
	now    time.Duration
	heap   []heapEntry // 4-ary min-heap ordered by (at, seq)
	nodes  []eventNode // slab of event state, indexed by slot
	free   []int32     // recycled slots
	seq    uint64      // creation counter: the tie-break among same-time events
	rng    *rand.Rand
	seed   int64
	halted bool

	// Executed counts events run and charges counted since creation; useful
	// for budget checks and for asserting determinism across runs.
	executed  uint64
	lastSeq   uint64      // seq of the last executed event: where a Halt cuts the charges
	resources []*Resource // every resource on this queue, for the charge tally
}

// heapEntry is one queue position. Keeping the ordering key inline (rather
// than chasing a pointer into the slab) keeps sift comparisons cache-local.
type heapEntry struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// eventNode is the slab-resident state of one scheduled event. gen
// increments every time the slot is recycled, which lets stale Event
// handles detect that their event already fired or was canceled.
type eventNode struct {
	fn      func()
	at      time.Duration
	gen     uint32
	heapIdx int32 // position in Simulator.heap, -1 when not queued
}

// Event is a cancelable handle to a scheduled callback. It is a small
// value (not a pointer): copies refer to the same underlying event, and the
// zero Event is inert. Handles remain safe after the event fires or is
// canceled — Cancel on a spent handle is a no-op even if the internal slot
// has been recycled for a newer event.
type Event struct {
	s    *Simulator
	at   time.Duration
	slot int32
	gen  uint32
}

// Cancel prevents the event from firing and removes it from the queue.
// Canceling an already-fired or already-canceled event (or the zero Event)
// is a no-op.
func (e Event) Cancel() {
	if e.s == nil {
		return
	}
	n := &e.s.nodes[e.slot]
	if n.gen != e.gen || n.heapIdx < 0 {
		return // already fired, canceled, or slot recycled
	}
	e.s.removeAt(int(n.heapIdx))
	e.s.release(e.slot)
}

// At returns the virtual time the event was scheduled for.
func (e Event) At() time.Duration { return e.at }

// Scheduled reports whether the handle refers to an event still pending in
// the queue.
func (e Event) Scheduled() bool {
	if e.s == nil {
		return false
	}
	n := &e.s.nodes[e.slot]
	return n.gen == e.gen && n.heapIdx >= 0
}

// New creates a simulator whose random stream is derived from seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed the simulator was created with. Components that
// need their own decorrelated random streams (the per-node streams in
// netsim) derive them from this value with ChildSeed.
func (s *Simulator) Seed() int64 { return s.seed }

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random stream. Components must
// draw randomness only from here to preserve reproducibility.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Executed reports how many events have run so far, counting every
// completed resource job whether or not it runs code.
func (s *Simulator) Executed() uint64 { return s.executed }

// At schedules fn at absolute virtual time t. Scheduling in the past (or at
// the present) runs the event at the current time, after already-pending
// events for that time, preserving FIFO order among same-time events.
func (s *Simulator) At(t time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: nil event function")
	}
	if t < s.now {
		t = s.now
	}
	seq := s.nextSeq()
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.nodes = append(s.nodes, eventNode{})
		slot = int32(len(s.nodes) - 1)
	}
	n := &s.nodes[slot]
	n.fn = fn
	n.at = t
	n.heapIdx = int32(len(s.heap))
	s.heap = append(s.heap, heapEntry{at: t, seq: seq, slot: slot})
	s.siftUp(len(s.heap) - 1)
	return Event{s: s, at: t, slot: slot, gen: n.gen}
}

// nextSeq allocates the event's position in the (at, seq) total order:
// an event created later sorts later among same-time events.
func (s *Simulator) nextSeq() uint64 {
	s.seq++
	return s.seq
}

// After schedules fn d from now. Negative d behaves like d == 0; a d past
// the end of time schedules at the end of time.
func (s *Simulator) After(d time.Duration, fn func()) Event {
	return s.At(satAdd(s.now, d), fn)
}

// Halt stops the run loop after the current event completes. Pending events
// remain queued; a subsequent Run or RunUntil resumes them.
func (s *Simulator) Halt() { s.halted = true }

// Run executes events until the queue is empty or Halt is called. A run
// that empties the queue ends on the last completion, charges included.
func (s *Simulator) Run() {
	s.halted = false
	for len(s.heap) > 0 && !s.halted {
		s.step()
	}
	if last := s.settle(maxDuration); last > s.now {
		s.now = last
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to deadline. Events scheduled beyond the deadline stay queued.
func (s *Simulator) RunUntil(deadline time.Duration) {
	s.halted = false
	for len(s.heap) > 0 && !s.halted && s.heap[0].at <= deadline {
		s.step()
	}
	s.settle(deadline)
	if !s.halted && s.now < deadline {
		s.now = deadline
	}
}

// settle counts, when a run returns, the charges it has passed: after a
// Halt, those before the halting event in (at, seq) order; otherwise all up
// to until. It returns the latest completion it counted.
func (s *Simulator) settle(until time.Duration) (last time.Duration) {
	cut := charge{at: until, seq: math.MaxUint64}
	if s.halted {
		cut = charge{at: s.now, seq: s.lastSeq}
	}
	for _, r := range s.resources {
		last = max(last, r.retire(cut))
	}
	return last
}

// Pending reports the number of queued events and uncounted charges.
// Canceled events are removed eagerly and never counted.
func (s *Simulator) Pending() int {
	n := len(s.heap)
	for _, r := range s.resources {
		n += len(r.charges) - r.head
	}
	return n
}

func (s *Simulator) step() {
	top := s.heap[0]
	s.removeAt(0)
	n := &s.nodes[top.slot]
	if top.at < s.now {
		panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", top.at, s.now))
	}
	fn := n.fn
	s.release(top.slot)
	s.now = top.at
	s.lastSeq = top.seq
	s.executed++
	fn()
}

// release recycles a slot: the generation bump invalidates outstanding
// handles and the fn reference is dropped so the closure can be collected.
func (s *Simulator) release(slot int32) {
	n := &s.nodes[slot]
	n.fn = nil
	n.gen++
	n.heapIdx = -1
	s.free = append(s.free, slot)
}

// --- 4-ary heap ordered by (at, seq) ---
//
// A 4-ary layout halves tree depth versus binary, trading slightly wider
// sift-down scans for fewer cache-missing levels — the standard choice for
// simulation event queues where pops dominate.

func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulator) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(e, s.heap[parent]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.nodes[s.heap[i].slot].heapIdx = int32(i)
		i = parent
	}
	s.heap[i] = e
	s.nodes[e.slot].heapIdx = int32(i)
}

func (s *Simulator) siftDown(i int) {
	e := s.heap[i]
	n := len(s.heap)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entryLess(s.heap[c], s.heap[min]) {
				min = c
			}
		}
		if !entryLess(s.heap[min], e) {
			break
		}
		s.heap[i] = s.heap[min]
		s.nodes[s.heap[i].slot].heapIdx = int32(i)
		i = min
	}
	s.heap[i] = e
	s.nodes[e.slot].heapIdx = int32(i)
}

// removeAt deletes the heap entry at index i, restoring heap order.
func (s *Simulator) removeAt(i int) {
	n := len(s.heap) - 1
	moved := s.heap[n]
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	s.heap[i] = moved
	s.nodes[moved.slot].heapIdx = int32(i)
	// The moved entry may need to travel either direction.
	s.siftDown(i)
	s.siftUp(s.int32HeapIdx(moved.slot))
}

func (s *Simulator) int32HeapIdx(slot int32) int {
	return int(s.nodes[slot].heapIdx)
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
// random streams, so a node's draws depend only on its own event order.
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
