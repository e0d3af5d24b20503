// Package collector implements the batch collector used by Compresschain
// and Hashchain (paper §3): elements added by clients and epoch-proofs
// generated by the server accumulate until the collector size is reached or
// a timeout expires, at which point the batch is handed to the algorithm
// (isReady(batch) in the pseudocode).
//
// See DESIGN.md §2 (layering).
package collector

import (
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// ReadyFunc receives a non-empty batch when the collector flushes. The batch
// is the receiver's from then on: every flush hands over a fresh wire.Batch
// and the collector starts the next one from nothing. That is load-bearing —
// the flushed batch's Elements become the epoch's own slice on every server
// (wire.Batch) — so the collector must not turn into a buffer it reuses.
type ReadyFunc func(b *wire.Batch)

// Timeout bounds how long a partial batch waits before it is flushed.
const Timeout = 500 * time.Millisecond

// Collector accumulates a batch and signals readiness by size or Timeout.
type Collector struct {
	sim   *sim.Simulator
	limit int
	ready ReadyFunc

	batch *wire.Batch
	timer sim.Event
}

// New creates a collector. limit is the paper's collector_limit counted in
// items (elements + proofs).
func New(s *sim.Simulator, limit int, ready ReadyFunc) *Collector {
	if limit <= 0 {
		panic("collector: limit must be positive")
	}
	if ready == nil {
		panic("collector: ready callback required")
	}
	return &Collector{
		sim:   s,
		limit: limit,
		ready: ready,
		batch: &wire.Batch{},
	}
}

// AddElement appends a client element to the pending batch.
func (c *Collector) AddElement(e *wire.Element) {
	c.batch.Elements = append(c.batch.Elements, e)
	c.afterAdd()
}

// AddProof appends an epoch-proof to the pending batch (the pseudocode's
// add_to_batch(⟨epoch, p, v⟩)).
func (c *Collector) AddProof(p *wire.EpochProof) {
	c.batch.Proofs = append(c.batch.Proofs, p)
	c.afterAdd()
}

func (c *Collector) afterAdd() {
	if c.batch.Len() >= c.limit {
		c.flush()
		return
	}
	if !c.timer.Scheduled() {
		c.timer = c.sim.After(Timeout, c.flush)
	}
}

// Flush forces the pending batch out (end-of-experiment drain).
func (c *Collector) Flush() { c.flush() }

func (c *Collector) flush() {
	c.timer.Cancel()
	c.timer = sim.Event{}
	if c.batch.Empty() {
		return
	}
	b := c.batch
	c.batch = &wire.Batch{}
	c.ready(b)
}

// Pending returns the number of items currently collected.
func (c *Collector) Pending() int { return c.batch.Len() }
