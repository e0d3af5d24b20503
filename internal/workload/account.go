package workload

import "repro/internal/wire"

// Account is the injection ledger every generator embeds — the routed one
// the harness runs (internal/shard) and this package's own: ONE definition
// of accepted, rejected and offered counts, tracked ids, and the
// per-source series behind the fairness index, so admission rejections
// surface identically however many shards a run has.
type Account struct {
	injected uint64
	rejected uint64

	ids         *wire.IDMap[struct{}]
	rejectedIDs *wire.IDMap[struct{}]

	offeredBy  []uint64
	acceptedBy []uint64
}

// NewAccount creates a ledger over the given number of source clients.
// trackIDs additionally records the id of every attempt, split into
// accepted and rejected sets for the invariant checker.
func NewAccount(sources int, trackIDs bool) *Account {
	a := &Account{
		offeredBy:  make([]uint64, sources),
		acceptedBy: make([]uint64, sources),
	}
	if trackIDs {
		a.ids = new(wire.IDMap[struct{}])
		a.rejectedIDs = new(wire.IDMap[struct{}])
	}
	return a
}

// Accept books an element the server admitted.
func (a *Account) Accept(e *wire.Element, source int) {
	a.injected++
	a.offeredBy[source]++
	a.acceptedBy[source]++
	if a.ids != nil {
		a.ids.Put(e.ID, struct{}{})
	}
}

// Reject books an element the server refused (admission control or
// validation). The id goes into the rejected set and NOT the injected
// one: a rejected element that later shows up in a committed epoch must
// trip the fabrication check as well as the dedicated rejected-ID check.
func (a *Account) Reject(e *wire.Element, source int) {
	a.rejected++
	a.offeredBy[source]++
	if a.rejectedIDs != nil {
		a.rejectedIDs.Put(e.ID, struct{}{})
	}
}

// Injected returns how many elements servers accepted.
func (a *Account) Injected() uint64 { return a.injected }

// Rejected returns how many adds servers refused.
func (a *Account) Rejected() uint64 { return a.rejected }

// Offered returns every add attempted: accepted + rejected.
func (a *Account) Offered() uint64 { return a.injected + a.rejected }

// InjectedIDs returns the accepted ids, or nil unless ids are tracked.
// The map is live state; treat it as read-only, and read it only where the
// account's owner runs or after the run (wire.IDMap has one owner).
func (a *Account) InjectedIDs() *wire.IDMap[struct{}] { return a.ids }

// RejectedIDs returns the refused ids, or nil unless ids are tracked, under
// the same rules as InjectedIDs.
func (a *Account) RejectedIDs() *wire.IDMap[struct{}] { return a.rejectedIDs }

// Fairness returns Jain's index over the per-source acceptance ratios
// (accepted/offered) of every source that offered at least one element:
// (Σx)²/(n·Σx²), 1.0 when all sources are served equally, → 1/n when one
// source starves the rest. A run with no offers (or no rejections at
// all) is perfectly fair.
func (a *Account) Fairness() float64 {
	var sum, sumSq float64
	n := 0
	for i, off := range a.offeredBy {
		if off == 0 {
			continue
		}
		r := float64(a.acceptedBy[i]) / float64(off)
		sum += r
		sumSq += r * r
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}
