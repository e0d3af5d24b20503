package consensus

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/setcrypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The known-bad proposals for handleProposal's two content checks, and the
// proof that the verdict which spares later validators those checks belongs
// to one object under one registry (wire.Verdict).

// validator is validator id of the group 0..3 at height 1, whose round-0
// proposer is validator 1. It broadcasts into the void.
func validator(id wire.NodeID, reg *setcrypto.Registry) *Node {
	n := NewNode(id, []wire.NodeID{0, 1, 2, 3}, sim.New(1), nil, PaperParams(), setcrypto.FastSuite{},
		setcrypto.FastKeyPair(int(id)), reg, nil)
	n.SetBroadcaster(func(any, int) {})
	return n
}

// groupRegistry registers the FastSuite keys of validators 0..3.
func groupRegistry() *setcrypto.Registry {
	reg := setcrypto.NewRegistry()
	for id := range 4 {
		reg.Register(id, setcrypto.FastKeyPair(id).Public)
	}
	return reg
}

// proposal is validator 1's round-0 proposal at height 1 of a block of txs
// under the id of idTxs, signed with signer's key.
func proposal(txs, idTxs []*wire.Tx, signer int) *Proposal {
	n := validator(1, nil)
	seed := checkpoint.Seed()
	p := &Proposal{Height: 1, Round: 0, Proposer: 1,
		Block:   &wire.Block{Height: 1, Proposer: 1, Txs: txs, CkptFold: seed},
		BlockID: n.blockID(1, 0, 1, 0, seed, idTxs)}
	p.Sig = setcrypto.FastSuite{}.Sign(setcrypto.FastKeyPair(signer), n.proposalSignBytes(p))
	return p
}

// accepts reports whether n takes p as its round's proposal.
func accepts(n *Node, p *Proposal) bool {
	n.handleProposal(p)
	return n.proposals[p.Round] == p
}

// Guard: the proposer's signature. A proposal naming validator 1 but signed
// by validator 2 is refused; validator 1's own is taken.
func TestProposalSignatureChecked(t *testing.T) {
	txs := blockTxsOfEveryKind()[:4]
	if accepts(validator(0, groupRegistry()), proposal(txs, txs, 2)) {
		t.Fatal("a proposal signed by another validator than its proposer was taken")
	}
	if !accepts(validator(0, groupRegistry()), proposal(txs, txs, 1)) {
		t.Fatal("the proposer's own proposal was refused")
	}
}

// Guard: the block-id re-derivation (wellFormed). A proposal its proposer
// signed, whose id names other transactions than its block carries, is
// refused: a quorum voting for that id would commit a block nobody named.
func TestProposalBlockIDRederived(t *testing.T) {
	txs := blockTxsOfEveryKind()
	if accepts(validator(0, groupRegistry()), proposal(txs[:4], txs[4:8], 1)) {
		t.Fatal("a proposal whose id names other transactions than its block was taken")
	}
}

// After one validator has verified a proposal, struct copies of it with a
// changed signature or a changed (and re-signed) block id are checked again
// by the others, and refused; so is the proposal itself under a registry in
// which its proposer has another key.
func TestProposalVerdictIsTheObjects(t *testing.T) {
	txs := blockTxsOfEveryKind()
	reg := groupRegistry()
	p := proposal(txs[:4], txs[:4], 1)
	if !accepts(validator(0, reg), p) {
		t.Fatal("the proposer's own proposal was refused")
	}

	badSig := *p
	badSig.Sig = proposal(txs[:4], txs[:4], 3).Sig
	if accepts(validator(2, reg), &badSig) {
		t.Error("a copy of a verified proposal with another validator's signature was taken")
	}
	otherID := *p
	other := proposal(txs[:4], txs[4:8], 1)
	otherID.BlockID, otherID.Sig = other.BlockID, other.Sig
	if accepts(validator(2, reg), &otherID) {
		t.Error("a copy of a verified proposal with a re-signed id of other transactions was taken")
	}
	if !accepts(validator(3, reg), p) {
		t.Fatal("the verified proposal was refused by the next validator")
	}

	rekeyed := groupRegistry()
	rekeyed.Register(1, setcrypto.FastKeyPair(99).Public)
	if accepts(validator(0, rekeyed), p) {
		t.Fatal("a proposal verified under one registry was taken under one where its proposer has another key")
	}
}
