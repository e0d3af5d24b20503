package sim

import "time"

// Resource models a serial processing resource (one CPU core, a disk, a
// NIC transmit path) in virtual time. Jobs submitted to a Resource execute
// FIFO: each job occupies the resource for its declared cost and its
// completion callback fires when the job finishes. This is the mechanism
// that reproduces the paper's CPU-bound ceilings (e.g. Hashchain's ~20k el/s
// limit from per-element validation during hash reversal).
//
// A job without a callback is a charge: counted, not scheduled (see the
// package doc and DESIGN.md §6).
type Resource struct {
	sim *Simulator

	busyUntil time.Duration

	// charges[head:] are the charges not yet counted, ascending in (at,
	// seq) because busyUntil and the sequence counter only grow.
	charges []charge
	head    int

	// Accounting.
	busyTime  time.Duration
	maxQueued time.Duration // largest backlog observed (busyUntil - now at submit)
}

// charge is a callback-free job's completion, where its event would sort.
type charge struct {
	at  time.Duration
	seq uint64
}

// NewResource creates a serial resource attached to the simulator. The
// label names the resource at the call site only; nothing keeps it.
func (s *Simulator) NewResource(label string) *Resource {
	r := &Resource{sim: s}
	s.resources = append(s.resources, r)
	return r
}

// Submit enqueues a job of the given cost; done fires when the job
// completes (after all previously submitted jobs). A nil done is allowed
// when only the time occupancy matters: the job is then a charge, which
// is never an event. Negative costs are treated as zero; a completion past
// the end of time saturates there.
func (r *Resource) Submit(cost time.Duration, done func()) {
	if cost < 0 {
		cost = 0
	}
	now := r.sim.Now()
	start := r.busyUntil
	if start < now {
		start = now
	}
	if backlog := start - now; backlog > r.maxQueued {
		r.maxQueued = backlog
	}
	finish := satAdd(start, cost)
	r.busyUntil = finish
	r.busyTime += cost
	if done != nil {
		r.sim.At(finish, done)
		return
	}
	// A charge draws the seq its event would have had, so every other event
	// keeps its (at, seq).
	r.retire(charge{at: now}) // every charge strictly before now
	r.charges = append(r.charges, charge{at: finish, seq: r.sim.nextSeq()})
}

// retire counts the live charges at or before cut in (at, seq) order as
// executed, and returns the completion time of the last one counted.
func (r *Resource) retire(cut charge) (last time.Duration) {
	i := r.head
	for ; i < len(r.charges); i++ {
		if c := r.charges[i]; c.at > cut.at || c.at == cut.at && c.seq > cut.seq {
			break
		}
		last = r.charges[i].at
	}
	r.sim.executed += uint64(i - r.head)
	switch {
	case i == len(r.charges):
		r.charges, i = r.charges[:0], 0
	case 2*i >= len(r.charges): // compact: the list stays within 2x its live charges
		r.charges, i = r.charges[:copy(r.charges, r.charges[i:])], 0
	}
	r.head = i
	return last
}

// MaxBacklog returns the largest backlog observed at submission time.
func (r *Resource) MaxBacklog() time.Duration { return r.maxQueued }

// Utilization returns busy time divided by elapsed virtual time, in [0, 1]
// (it can exceed 1 transiently if the resource is booked into the future).
func (r *Resource) Utilization() float64 {
	if r.sim.Now() == 0 {
		return 0
	}
	return float64(r.busyTime) / float64(r.sim.Now())
}
