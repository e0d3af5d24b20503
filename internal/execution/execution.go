// Package execution implements the paper's Appendix G extension: turning
// the Setchain into a fully functional blockchain, the way Hyperledger
// Fabric and RedBelly do.
//
//  1. While elements are added and epochs are formed, each transaction is
//     validated optimistically by itself — independently of all other
//     transactions, in parallel — ignoring its semantics (ValidateParallel).
//  2. After an epoch consolidates and its transactions are ordered, their
//     effects are computed sequentially at their final position; a
//     transaction whose semantics fail (e.g. insufficient balance) is
//     marked void rather than removed (State.ApplyEpoch).
//
// The demonstration state machine is an account-based token ledger; every
// correct server replaying the same epoch sequence reaches the same state,
// including the same void set.
//
// See DESIGN.md §2 (layering).
package execution

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// Transfer is the demonstration transaction: move Amount from From to To.
type Transfer struct {
	From   string
	To     string
	Amount uint64
}

// Payload errors.
var (
	ErrNotTransfer = errors.New("execution: payload is not a transfer")
	ErrTruncated   = errors.New("execution: truncated transfer payload")
)

// transferMagic tags transfer payloads.
const transferMagic = 0x5E

// EncodeTransfer renders a transfer as an element payload.
func EncodeTransfer(t Transfer) []byte {
	buf := []byte{transferMagic}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.From)))
	buf = append(buf, t.From...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.To)))
	buf = append(buf, t.To...)
	buf = binary.LittleEndian.AppendUint64(buf, t.Amount)
	return buf
}

// DecodeTransfer parses an element payload.
func DecodeTransfer(payload []byte) (Transfer, error) {
	var t Transfer
	if len(payload) < 1 || payload[0] != transferMagic {
		return t, ErrNotTransfer
	}
	off := 1
	str := func() (string, error) {
		if off+4 > len(payload) {
			return "", ErrTruncated
		}
		n := int(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
		if n < 0 || off+n > len(payload) {
			return "", ErrTruncated
		}
		s := string(payload[off : off+n])
		off += n
		return s, nil
	}
	var err error
	if t.From, err = str(); err != nil {
		return t, err
	}
	if t.To, err = str(); err != nil {
		return t, err
	}
	if off+8 > len(payload) {
		return t, ErrTruncated
	}
	t.Amount = binary.LittleEndian.Uint64(payload[off:])
	return t, nil
}

// ValidateParallel performs the optimistic, order-independent validation
// step over a batch of elements using a bounded worker pool: each element
// is checked in isolation (decodable payload, syntactically sane transfer).
// Results are positionally stable, so the outcome is deterministic
// regardless of scheduling. workers <= 0 uses GOMAXPROCS.
func ValidateParallel(elems []*wire.Element, workers int) []bool {
	out := make([]bool, len(elems))
	if len(elems) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(elems) {
		workers = len(elems)
	}
	var wg sync.WaitGroup
	chunk := (len(elems) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(elems) {
			hi = len(elems)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = validateOne(elems[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

func validateOne(e *wire.Element) bool {
	if e == nil || len(e.Payload()) == 0 {
		return false
	}
	t, err := DecodeTransfer(e.Payload())
	if err != nil {
		return false
	}
	return t.From != "" && t.To != "" && t.From != t.To && t.Amount > 0
}

// Status is a transaction's execution outcome.
type Status uint8

// Execution outcomes.
const (
	// Applied means the transfer executed and changed balances.
	Applied Status = iota
	// Void means the transfer was ordered but semantically invalid at its
	// final position (paper Appendix G: "marked as void").
	Void
	// Rejected means the payload was not a well-formed transfer at all.
	Rejected
)

func (s Status) String() string {
	switch s {
	case Applied:
		return "applied"
	case Void:
		return "void"
	default:
		return "rejected"
	}
}

// Receipt records one transaction's outcome at its final position.
type Receipt struct {
	Element wire.ElementID
	Epoch   uint64
	Index   int
	Status  Status
	Reason  string
}

// State is the replicated token-ledger state built by executing epochs in
// order.
type State struct {
	balances map[string]uint64
	applied  uint64 // epochs executed
	receipts map[wire.ElementID]Receipt

	// Counters.
	executed uint64
	voided   uint64
	rejected uint64
}

// NewState creates a state with the given genesis balances.
func NewState(genesis map[string]uint64) *State {
	st := &State{
		balances: make(map[string]uint64, len(genesis)),
		receipts: make(map[wire.ElementID]Receipt),
	}
	for acct, bal := range genesis {
		st.balances[acct] = bal
	}
	return st
}

// Balance returns an account's balance (0 for unknown accounts).
func (st *State) Balance(acct string) uint64 { return st.balances[acct] }

// EpochsExecuted returns how many epochs have been applied.
func (st *State) EpochsExecuted() uint64 { return st.applied }

// Counters returns (executed, voided, rejected) transaction totals.
func (st *State) Counters() (executed, voided, rejected uint64) {
	return st.executed, st.voided, st.rejected
}

// Receipt returns the execution receipt for an element, if executed.
func (st *State) Receipt(id wire.ElementID) (Receipt, bool) {
	r, ok := st.receipts[id]
	return r, ok
}

// TotalSupply sums all balances (conserved by construction).
func (st *State) TotalSupply() uint64 {
	var total uint64
	for _, b := range st.balances {
		total += b
	}
	return total
}

// ApplyEpoch executes one consolidated epoch's transactions sequentially at
// their final positions. Epochs must be applied in order; out-of-order
// application returns an error and changes nothing.
func (st *State) ApplyEpoch(ep *core.Epoch) ([]Receipt, error) {
	if ep.Number != st.applied+1 {
		return nil, fmt.Errorf("execution: epoch %d applied after %d (want %d)",
			ep.Number, st.applied, st.applied+1)
	}
	receipts := make([]Receipt, 0, len(ep.Elements))
	for i, e := range ep.Elements {
		r := Receipt{Element: e.ID, Epoch: ep.Number, Index: i}
		t, err := DecodeTransfer(e.Payload())
		switch {
		case err != nil:
			r.Status = Rejected
			r.Reason = err.Error()
			st.rejected++
		case t.From == t.To || t.Amount == 0:
			r.Status = Rejected
			r.Reason = "malformed transfer"
			st.rejected++
		case st.balances[t.From] < t.Amount:
			// Ordered but semantically invalid at its final position.
			r.Status = Void
			r.Reason = fmt.Sprintf("insufficient balance: %d < %d", st.balances[t.From], t.Amount)
			st.voided++
		default:
			st.balances[t.From] -= t.Amount
			st.balances[t.To] += t.Amount
			r.Status = Applied
			st.executed++
		}
		st.receipts[e.ID] = r
		receipts = append(receipts, r)
	}
	st.applied = ep.Number
	return receipts, nil
}

// Replay executes a history prefix from scratch; all correct servers
// replaying the same history reach identical states (the blockchain
// determinism requirement).
func Replay(genesis map[string]uint64, history []*core.Epoch) (*State, error) {
	st := NewState(genesis)
	for _, ep := range history {
		if _, err := st.ApplyEpoch(ep); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Equal reports whether two states have identical balances and counters
// (consistency check across servers).
func (st *State) Equal(other *State) bool {
	if st.applied != other.applied || st.executed != other.executed ||
		st.voided != other.voided || st.rejected != other.rejected {
		return false
	}
	if len(st.balances) != len(other.balances) {
		// Accounts with zero balance may or may not be materialized;
		// compare through both directions instead of by length alone.
		for k, v := range st.balances {
			if other.balances[k] != v {
				return false
			}
		}
		for k, v := range other.balances {
			if st.balances[k] != v {
				return false
			}
		}
		return true
	}
	for k, v := range st.balances {
		if other.balances[k] != v {
			return false
		}
	}
	return true
}
