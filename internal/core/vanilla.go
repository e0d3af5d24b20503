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

func (v *vanillaAlg) checkTx(tx *wire.Tx) bool { return true }

func (v *vanillaAlg) drain() {}

func (v *vanillaAlg) processBlock(b *wire.Block, done func()) {
	s := v.s
	// Charge the block's element re-validation up front: a Byzantine
	// server may have appended invalid elements directly, so FinalizeBlock
	// cannot trust mempool CheckTx (paper §3).
	var cost time.Duration
	for _, tx := range b.Txs {
		if tx.Kind == wire.TxElement {
			cost += s.opts.Costs.VerifyElement + s.opts.Costs.PerElement
		}
	}
	s.runCosted(cost, func() {
		var elems []*wire.Element
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
