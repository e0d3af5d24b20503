// Admission control: the open-system backpressure seam (DESIGN.md §14).
// When the pool climbs past a watermark BELOW its hard MaxTxs/MaxBytes
// caps, the node stops taking new client elements — either refusing them
// outright ("reject", the CAC blocking-probability model) or parking new
// transactions in a bounded deferred queue that drains as commits free
// pool space ("delay"). The gap between the watermark and the hard caps
// is deliberate headroom: transactions that carry ALREADY-admitted
// elements (a collector's batch, a proof) must still enter, or admitted
// elements would silently vanish. Everything here runs on the node's own
// simulator timers and pool state, so rejection is as deterministic as
// any other simulated behavior.

package mempool

import (
	"time"

	"repro/internal/wire"
)

// Admission policies (AdmissionConfig.Policy).
const (
	// AdmissionReject refuses new elements while the pool is saturated;
	// the client observes an error and the element is never retried.
	AdmissionReject = "reject"
	// AdmissionDelay keeps admitting elements while the bounded deferred
	// queue has room: their transactions wait out the saturation and
	// enter when commits free space, unless MaxDelay expires first.
	AdmissionDelay = "delay"
)

// AdmissionConfig enables and tunes the admission policy; the zero value
// (empty Policy) leaves admission off — the closed-system behavior. The
// pool uses every field as given: a scenario's defaults (watermark 0.9, and
// for the delay policy 5 s and 1,024) are spec.WithDefaults'.
type AdmissionConfig struct {
	// Policy is AdmissionReject or AdmissionDelay ("" = off).
	Policy string
	// Watermark is the saturation threshold as a fraction of MaxTxs and
	// MaxBytes. It must stay below 1: the remainder is
	// headroom for carriers of already-admitted elements.
	Watermark float64
	// MaxDelay bounds how long a deferred transaction may wait before it
	// is dropped (delay policy, virtual time).
	MaxDelay time.Duration
	// MaxDeferred caps the deferred queue (delay policy).
	MaxDeferred int
}

// BreakAdmissionForTest disables the admission gate process-wide. It is
// the sabotage hook proving the open-system tests non-vacuous: with the
// gate broken, a saturating run must report ZERO rejections and a
// different fingerprint, or the rejection assertions were never testing
// anything. Set only from tests, never mid-run.
var BreakAdmissionForTest bool

// deferredTx is one transaction parked by the delay policy.
type deferredTx struct {
	tx       *wire.Tx
	deadline time.Duration // virtual-time deadline (sim.Now() + MaxDelay)
}

// Saturated reports whether the pool sits at or above the admission
// watermark. Always false with admission off (or sabotaged): the closed
// system never observes the gate.
func (m *Mempool) Saturated() bool {
	if m.cfg.Admission.Policy == "" || BreakAdmissionForTest {
		return false
	}
	wm := m.cfg.Admission.Watermark
	return float64(m.live) >= wm*float64(m.cfg.MaxTxs) ||
		float64(m.bytes) >= wm*float64(m.cfg.MaxBytes)
}

// AdmitElement is the element-level admission gate, consulted by
// core.Server.Add BEFORE an element enters the set or any collector —
// one door for all three algorithms. Under the reject policy a saturated
// pool turns the element away; under the delay policy it is admitted as
// long as the deferred queue has room to eventually carry it.
func (m *Mempool) AdmitElement() bool {
	if !m.Saturated() {
		return true
	}
	if m.cfg.Admission.Policy == AdmissionDelay &&
		len(m.deferred) < m.cfg.Admission.MaxDeferred {
		return true
	}
	m.admRejected++
	return false
}

// deferTx parks a locally originated transaction until saturation
// clears. Returns false (and counts a rejection) when the queue is full.
func (m *Mempool) deferTx(tx *wire.Tx) bool {
	if len(m.deferred) >= m.cfg.Admission.MaxDeferred {
		m.admRejected++
		return false
	}
	m.deferred = append(m.deferred, deferredTx{tx: tx, deadline: m.sim.Now() + m.cfg.Admission.MaxDelay})
	m.deferredTotal++
	m.armDeferExpiry()
	return true
}

// drainDeferred moves deferred transactions into the pool in FIFO order
// while space below the watermark lasts, dropping entries whose deadline
// passed. Called whenever commits free pool space.
func (m *Mempool) drainDeferred() {
	for len(m.deferred) > 0 && !m.Saturated() {
		d := m.deferred[0]
		m.deferred = m.deferred[1:]
		if d.deadline < m.sim.Now() {
			m.expired++
			continue
		}
		m.add(d.tx, true)
	}
	if len(m.deferred) == 0 {
		m.deferred = nil // release the drained backing array
	}
}

// armDeferExpiry schedules the deadline sweep for the queue's head; one
// timer is outstanding at a time, re-armed from the sweep itself.
func (m *Mempool) armDeferExpiry() {
	if m.deferArmed || len(m.deferred) == 0 {
		return
	}
	m.deferArmed = true
	wait := m.deferred[0].deadline - m.sim.Now()
	if wait < 0 {
		wait = 0
	}
	m.sim.After(wait, m.expireDeferred)
}

// expireDeferred drops deferred transactions whose bounded delay ran out
// without a drain. Their elements (if any were admitted under the delay
// promise) never reach the ledger — that is the "bounded" in
// bounded-delay, and it costs efficiency, never safety.
func (m *Mempool) expireDeferred() {
	m.deferArmed = false
	now := m.sim.Now()
	for len(m.deferred) > 0 && m.deferred[0].deadline <= now {
		m.expired++
		m.deferred = m.deferred[1:]
	}
	m.armDeferExpiry()
}

// DeferredLen returns how many transactions currently wait in the
// deferred queue.
func (m *Mempool) DeferredLen() int { return len(m.deferred) }

// AdmissionStats returns the admission counters: elements/transactions
// refused by the gate, transactions that went through the deferred
// queue, and deferred transactions dropped at their deadline.
func (m *Mempool) AdmissionStats() (rejected, deferred, expired uint64) {
	return m.admRejected, m.deferredTotal, m.expired
}
