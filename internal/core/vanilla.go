package core

import (
	"time"

	"repro/internal/wire"
)

// vanillaAlg implements Algorithm Vanilla (paper Appendix B): every element
// is its own ledger transaction; each committed block's fresh valid
// elements form one epoch; the server's epoch-proof is appended to the
// ledger as its own transaction.
//
// Deviation from the pseudocode (documented in DESIGN.md): the pseudocode
// increments the epoch for every block, including blocks containing no
// valid fresh elements, which makes the system churn proof transactions
// forever. Like the paper's experiments (which terminate once all elements
// and proofs are on the ledger), this implementation creates an epoch only
// for blocks that contribute at least one fresh valid element.
type vanillaAlg struct {
	s *Server
}

func (v *vanillaAlg) onAdd(e *wire.Element) {
	tx := wire.NewElementTx(e)
	if v.s.rec != nil {
		v.s.rec.RegisterCarrier(tx.MapKey(), []*wire.Element{e})
	}
	v.s.node.Append(tx)
}

// fits reports whether e's own transaction is no larger than the pools
// accept.
func (v *vanillaAlg) fits(e *wire.Element) bool {
	limit := v.s.node.Pool.MaxTxBytes()
	return limit <= 0 || e.WireSize() <= limit
}

// checkTx admits element and proof transactions. A proof is checked for
// shape only: its deep validation needs history[j] and happens when its
// block is processed.
func (v *vanillaAlg) checkTx(tx *wire.Tx) bool {
	switch tx.Kind {
	case wire.TxElement:
		v.s.chargeCPU(v.s.opts.Costs.VerifyElement)
		return v.s.validElement(tx.Element)
	case wire.TxProof:
		v.s.chargeCPU(v.s.opts.Costs.VerifySig)
		return tx.Proof != nil && tx.Proof.Epoch >= 1 && len(tx.Proof.Sig) > 0
	}
	return false
}

func (v *vanillaAlg) drain() {}

func (v *vanillaAlg) processBlock(b *wire.Block, done func()) {
	s := v.s
	// Charge the block's element re-validation up front: a Byzantine
	// server may have appended invalid elements directly, so FinalizeBlock
	// cannot trust mempool CheckTx (paper §3).
	n := 0
	for _, tx := range b.Txs {
		if tx.Kind == wire.TxElement {
			n++
		}
	}
	cost := time.Duration(n) * (s.opts.Costs.VerifyElement + s.opts.Costs.PerElement)
	s.runCosted(cost, func() {
		elems := make([]*wire.Element, 0, n)
		for _, tx := range b.Txs {
			switch tx.Kind {
			case wire.TxProof:
				s.acceptProof(tx.Proof)
			case wire.TxElement:
				elems = append(elems, tx.Element)
			}
		}
		if p := s.createEpoch(s.valid(elems)); p != nil {
			s.node.Append(wire.NewProofTx(p))
		}
		done()
	})
}
