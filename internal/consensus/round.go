package consensus

import (
	"encoding/binary"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/wire"
)

// This file is the round state machine: heights, rounds, votes, locks and
// commit.

// roundVotes tallies one round's votes of each type twice over: by block
// id for quorums, and by voter so a second vote from the same validator is
// one lookup away.
type roundVotes struct {
	votes  [2]map[string]map[wire.NodeID]*Vote // by VoteType: blockID -> voter -> vote
	voters [2]map[wire.NodeID]*Vote            // by VoteType: voter -> its vote
}

func newRoundVotes() *roundVotes {
	rv := &roundVotes{}
	for i := range rv.votes {
		rv.votes[i] = make(map[string]map[wire.NodeID]*Vote)
		rv.voters[i] = make(map[wire.NodeID]*Vote)
	}
	return rv
}

// add records v; the caller has checked that its voter cast no vote of
// this type yet (voteOf).
func (rv *roundVotes) add(v *Vote) {
	t := int(v.Type)
	byID := rv.votes[t][v.BlockID]
	if byID == nil {
		byID = make(map[wire.NodeID]*Vote)
		rv.votes[t][v.BlockID] = byID
	}
	byID[v.Voter] = v
	rv.voters[t][v.Voter] = v
}

// voteOf returns the vote a validator already cast for this type, if any.
func (rv *roundVotes) voteOf(t VoteType, voter wire.NodeID) *Vote {
	return rv.voters[t][voter]
}

// quorumBlockID returns a blockID (possibly nil) holding >= q votes of the
// given type, if any. Honest voters vote once per round, so at most one id
// can reach quorum; the smallest-id tie-break only matters when Byzantine
// equivocation manufactures two, and keeps the choice — like everything
// else in the simulation — independent of map iteration order.
func (rv *roundVotes) quorumBlockID(t VoteType, q int) (string, bool) {
	best, found := "", false
	for id, voters := range rv.votes[t] {
		if len(voters) >= q && (!found || id < best) {
			best, found = id, true
		}
	}
	return best, found
}

func (n *Node) proposerFor(height uint64, round int32) wire.NodeID {
	idx := (int(height) + int(round)) % len(n.validators)
	return n.validators[idx]
}

func (n *Node) enterHeight(h uint64) {
	if n.stopped || h != n.height {
		return
	}
	// Proposal/vote state for this height was reset when the previous
	// height committed, so messages that raced ahead during the commit
	// wait are already tallied here.
	n.decided = false
	n.enterRound(0)
	n.replayFuture()
}

// resetHeight moves the node to height h with no proposals, votes or lock,
// at round 0's propose step.
func (n *Node) resetHeight(h uint64) {
	n.height = h
	n.proposals = make(map[int32]*Proposal)
	n.votes = make(map[int32]*roundVotes)
	n.lockedID = nilBlockID
	n.lockedProposal = nil
	n.round = 0
	n.step = StepPropose
}

func (n *Node) enterRound(r int32) {
	if n.stopped {
		return
	}
	n.round = r
	n.step = StepPropose
	if r > 0 {
		n.roundsUsed++
	}
	if n.proposerFor(n.height, r) == n.id {
		n.propose(r)
	}
	// Even the proposer arms the timeout: if its own proposal somehow fails
	// to gather votes the round must still advance.
	h, round := n.height, r
	n.sim.After(timeout(TimeoutPropose, r), func() {
		n.onTimeoutPropose(h, round)
	})
	// Proposals and votes for this round may have arrived before we
	// entered it (early traffic during the previous height's commit wait,
	// or a round skip): act on the existing tallies now.
	n.sweep()
}

// sweep re-evaluates the stored proposal and vote tallies for the current
// round, advancing through any steps whose conditions are already met.
// handleProposal/handleVote only react to NEW messages, so entering a
// height or round must explicitly recheck state that accumulated earlier.
func (n *Node) sweep() {
	if n.stopped || n.decided {
		return
	}
	if n.step == StepPropose {
		if p := n.proposals[n.round]; p != nil {
			n.tryPrevote(p)
		}
	}
	if n.step == StepPrevote && !n.decided {
		if rv := n.votes[n.round]; rv != nil {
			if id, ok := rv.quorumBlockID(VotePrevote, n.Quorum()); ok {
				if id != nilBlockID {
					n.lockOn(n.round, id)
				}
				n.advanceToPrecommit(id)
			}
		}
	}
	// Rounds are visited in ascending order: two rounds can both hold
	// precommit quorums (a locked value re-proposed under a new round's
	// blockID), and which one commits must not depend on map iteration.
	for _, r := range sortedRounds(n.votes) {
		n.tryCommit(r)
	}
}

// sortedRounds returns the vote map's keys ascending.
func sortedRounds(votes map[int32]*roundVotes) []int32 {
	rounds := make([]int32, 0, len(votes))
	for r := range votes {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	return rounds
}

func timeout(base time.Duration, round int32) time.Duration {
	return base + time.Duration(round)*TimeoutDelta
}

// blockID hashes a block's full header identity, INCLUDING the checkpoint
// commitment (CkptEpoch, CkptFold): prevotes and precommits are cast on
// the id, so a 2f+1 commit certificate certifies the commitment — the
// root of trust for state-sync verification (DESIGN.md §15).
//
// The id is the suite's HashData over the header words followed by every
// transaction's AppendKey record, streamed one record at a time, so the
// scratch buffer holds one key, never the block.
func (n *Node) blockID(height uint64, round int32, proposer wire.NodeID, ckptEpoch, ckptFold uint64, txs []*wire.Tx) string {
	buf := n.keyBuf[:0]
	buf = binary.LittleEndian.AppendUint64(buf, height)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(round))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(proposer))
	buf = binary.LittleEndian.AppendUint64(buf, ckptEpoch)
	buf = binary.LittleEndian.AppendUint64(buf, ckptFold)
	return n.hashTxs(buf, txs)
}

// valueID is the round- and proposer-independent identity of a block's
// contents at a height. Locking compares it so a re-proposal of the same
// transactions in a later round is recognized as the locked value.
func (n *Node) valueID(height uint64, txs []*wire.Tx) string {
	return n.hashTxs(binary.LittleEndian.AppendUint64(n.keyBuf[:0], height), txs)
}

// hashTxs streams header, then each transaction's key, through the node's
// hash and returns the sum as an id. header is n.keyBuf's storage.
func (n *Node) hashTxs(header []byte, txs []*wire.Tx) string {
	h := n.idHash
	h.Reset()
	h.Write(header)
	buf := header
	for _, tx := range txs {
		buf = tx.AppendKey(buf[:0])
		h.Write(buf)
	}
	buf = h.Sum(buf[:0])
	n.keyBuf = buf
	return string(buf)
}

// wellFormed reports whether p carries a block for its own height whose id
// re-derives to p.BlockID.
func (n *Node) wellFormed(p *Proposal) bool {
	b := p.Block
	return b != nil && b.Height == p.Height &&
		n.blockID(p.Height, p.Round, p.Proposer, b.CkptEpoch, b.CkptFold, b.Txs) == p.BlockID
}

// signedAndWellFormed reports whether p carries its proposer's signature and
// is wellFormed, through p's verdict.
func (n *Node) signedAndWellFormed(p *Proposal) bool {
	if p.verified.Holds(n.registry, p) {
		return true
	}
	pub := n.registry.Lookup(int(p.Proposer))
	if pub == nil || !n.suite.Verify(pub, n.proposalSignBytes(p), p.Sig) || !n.wellFormed(p) {
		return false
	}
	p.verified.Record(n.registry, p)
	return true
}

func (n *Node) propose(r int32) {
	// A locked proposer re-proposes the locked value verbatim (Tendermint's
	// proof-of-lock rule, simplified): without this, a round-0 lock split
	// under message loss leaves every later proposal unable to gather a
	// prevote quorum and the height stalls forever. The Byzantine mutator
	// applies only to fresh reaps — a locked value is already fixed.
	var txs []*wire.Tx
	if n.lockedProposal != nil {
		txs = n.lockedProposal.Block.Txs
	} else {
		txs = n.pool.Reap(n.params.MaxBlockBytes)
		if n.mutator != nil {
			txs = n.mutator(txs)
		}
	}
	bytes := 0
	for _, tx := range txs {
		bytes += tx.WireSize()
	}
	// Stamp the application's checkpoint commitment into the header. App
	// state at propose time is event-deterministic, so correct proposers
	// stamp values every correct validator can verify against its own
	// chain prefix (or accept as ahead of its sealing).
	ckptEpoch, ckptFold := uint64(0), checkpoint.Seed()
	if n.syncer != nil {
		ckptEpoch, ckptFold = n.syncer.HeaderCommitment()
	}
	block := &wire.Block{Height: n.height, Proposer: n.id, Txs: txs, Bytes: bytes,
		CkptEpoch: ckptEpoch, CkptFold: ckptFold}
	p := &Proposal{
		Height:   n.height,
		Round:    r,
		Block:    block,
		BlockID:  n.blockID(n.height, r, n.id, ckptEpoch, ckptFold, txs),
		Proposer: n.id,
	}
	p.Sig = n.suite.Sign(n.key, n.proposalSignBytes(p))
	size := bytes + proposalOverhead
	n.broadcast(p, size)
	n.handleProposal(p) // self-delivery
}

func (n *Node) handleProposal(p *Proposal) {
	if p.Height < n.height {
		return // stale
	}
	if p.Height > n.height {
		n.bufferFuture(p)
		return
	}
	if p.Proposer != n.proposerFor(p.Height, p.Round) {
		return
	}
	// Signature and structure: the block must match the announced id and
	// respect the size limit. (Application-level tx validity is NOT checked
	// here: the paper's model explicitly allows Byzantine servers to put
	// invalid elements on the ledger; Setchain filters them in
	// FinalizeBlock.) Every validator receives the same proposal, and only
	// the first checks the signature and re-derives the id (wire.Verdict).
	if !n.signedAndWellFormed(p) || p.Block.Bytes > n.params.MaxBlockBytes {
		return
	}
	// Header-commitment check: a claimed checkpoint chain at or below this
	// validator's own seal horizon must match its chain prefix exactly; a
	// proposer cannot rewrite sealed history a quorum of validators has
	// reached. Claims ahead of local sealing pass — the validator cannot
	// falsify state it hasn't computed, and 2f+1 such checks are exactly
	// the light-client trust state-sync leans on.
	if n.syncer != nil && !n.syncer.VerifyCommitment(p.Block.CkptEpoch, p.Block.CkptFold) {
		return
	}
	if _, dup := n.proposals[p.Round]; dup {
		return
	}
	n.proposals[p.Round] = p
	if p.Round == n.round && n.step == StepPropose {
		n.tryPrevote(p)
	}
	// The proposal may complete a precommit quorum observed earlier.
	n.tryCommit(p.Round)
}

func (n *Node) tryPrevote(p *Proposal) {
	if n.decided || n.step != StepPropose || p.Round != n.round {
		return
	}
	// Locking rule: if locked on a block from an earlier round, prevote
	// only that block — or a later-round re-proposal of the same VALUE
	// (same transactions), which is how a locked cluster regains liveness.
	// A vote-only lock has no value to match.
	id := p.BlockID
	if n.lockedID != nilBlockID && n.lockedID != id {
		lp := n.lockedProposal
		if lp == nil || n.valueID(p.Height, p.Block.Txs) != n.valueID(lp.Height, lp.Block.Txs) {
			id = nilBlockID
		}
	}
	n.step = StepPrevote
	n.castVote(VotePrevote, id)
	h, r := n.height, n.round
	n.sim.After(timeout(TimeoutPrevote, r), func() {
		n.onTimeoutPrevote(h, r)
	})
}

func (n *Node) castVote(t VoteType, blockID string) {
	v := &Vote{Height: n.height, Round: n.round, Type: t, BlockID: blockID, Voter: n.id}
	v.Sig = n.suite.Sign(n.key, n.voteSignBytes(v))
	n.broadcast(v, voteWireSize)
	n.handleVote(v) // self-delivery
}

func (n *Node) handleVote(v *Vote) {
	if v.Height < n.height {
		return
	}
	if v.Height > n.height {
		n.bufferFuture(v)
		return
	}
	if !n.validVote(v) {
		return
	}
	rv := n.votes[v.Round]
	if rv == nil {
		rv = newRoundVotes()
		n.votes[v.Round] = rv
	}
	// Equivocation defense: a validator's first vote per (round, type)
	// wins; a conflicting second vote is evidence of Byzantine behavior
	// and is not counted (Tendermint would additionally gossip the
	// evidence for slashing).
	if rv.voteOf(v.Type, v.Voter) != nil {
		return
	}
	rv.add(v)
	q := n.Quorum()

	// Round skip: f+1 voters already in a later round means ours is dead.
	if v.Round > n.round && !n.decided {
		distinct := make(map[wire.NodeID]bool)
		for r, votes := range n.votes {
			if r <= n.round {
				continue
			}
			for _, byVoter := range votes.voters {
				for voter := range byVoter {
					distinct[voter] = true
				}
			}
		}
		if len(distinct) >= n.faults()+1 {
			n.enterRound(v.Round)
		}
	}

	if v.Round == n.round && !n.decided {
		switch v.Type {
		case VotePrevote:
			if id, ok := rv.quorumBlockID(VotePrevote, q); ok && n.step == StepPrevote {
				if id != nilBlockID {
					// Lock and precommit the quorum block.
					n.lockOn(n.round, id)
				}
				n.advanceToPrecommit(id)
			}
		case VotePrecommit:
			if id, ok := rv.quorumBlockID(VotePrecommit, q); ok {
				if id == nilBlockID {
					if n.step == StepPrecommit {
						n.enterRound(n.round + 1)
					}
				} else {
					n.tryCommitID(v.Round, id)
				}
			}
		}
	} else if v.Type == VotePrecommit {
		// Precommit quorum can complete for a round other than ours.
		n.tryCommit(v.Round)
	}
}

// lockOn records a prevote quorum for blockID at round as the node's lock,
// keeping the proposal when it is known so the lock can be re-proposed
// (and recognized) in later rounds. A newer quorum always replaces an
// older lock, as in Tendermint. When the quorum arrived but the proposal
// was lost, the lock is vote-only: this node can only re-prevote the exact
// blockID (catch-up recovers the block if it commits).
func (n *Node) lockOn(round int32, blockID string) {
	n.lockedID = blockID
	n.lockedProposal = nil
	if p := n.proposals[round]; p != nil && p.BlockID == blockID {
		n.lockedProposal = p
	}
}

func (n *Node) advanceToPrecommit(blockID string) {
	n.step = StepPrecommit
	n.castVote(VotePrecommit, blockID)
	h, r := n.height, n.round
	n.sim.After(timeout(TimeoutPrecommit, r), func() {
		n.onTimeoutPrecommit(h, r)
	})
}

func (n *Node) tryCommit(round int32) {
	rv := n.votes[round]
	if rv == nil {
		return
	}
	if id, ok := rv.quorumBlockID(VotePrecommit, n.Quorum()); ok && id != nilBlockID {
		n.tryCommitID(round, id)
	}
}

func (n *Node) tryCommitID(round int32, blockID string) {
	if n.decided {
		return
	}
	p := n.proposals[round]
	if p == nil || p.BlockID != blockID {
		// Quorum exists but the block is missing: catch up from a voter.
		n.requestBlock(round, blockID)
		return
	}
	n.commit(p)
}

func (n *Node) commit(p *Proposal) {
	n.decided = true
	// The proposal's block is committed as it is: a block is never written
	// after it is proposed (wire.Block), so every node holds the one object.
	block := p.Block
	n.chain = append(n.chain, block)
	if len(block.Txs) == 0 {
		n.emptyBlocks++
	}
	n.pool.RemoveCommitted(p.Height, block.Txs)
	n.app.FinalizeBlock(block)

	// Retain the decided proposal and its precommit certificate so lagging
	// peers can request them after we advance; prune the retention window.
	d := decision{prop: p, cert: n.precommitCert(p.BlockID)}
	n.decisions[p.Height] = d
	if p.Height > 128 {
		delete(n.decisions, p.Height-128)
	}
	if len(d.cert) >= n.Quorum() {
		n.refreshServable(p, d.cert)
	}
	n.catchupRetries = 0

	// Reset consensus state for the next height NOW: proposals and votes
	// for it can arrive during the commit wait and must not be discarded.
	h := n.height + 1
	n.resetHeight(h)

	// Pace the chain: CometBFT waits TimeoutCommit after committing before
	// starting the next height, so block rate = 1/(consensus + timeout).
	n.sim.After(TimeoutCommit, func() { n.enterHeight(h) })
}

// precommitCert returns the precommits of the lowest round holding a
// quorum for blockID, ordered by voter, or nil when no round does.
// Certificates travel on the wire; their order is a function of the
// votes, not of map iteration.
func (n *Node) precommitCert(blockID string) []*Vote {
	for _, r := range sortedRounds(n.votes) {
		byVoter := n.votes[r].votes[VotePrecommit][blockID]
		if len(byVoter) >= n.Quorum() {
			cert := make([]*Vote, 0, len(byVoter))
			for _, v := range byVoter {
				cert = append(cert, v)
			}
			sort.Slice(cert, func(i, j int) bool { return cert[i].Voter < cert[j].Voter })
			return cert
		}
	}
	return nil
}

func (n *Node) onTimeoutPropose(h uint64, r int32) {
	if n.stopped || n.decided || h != n.height || r != n.round || n.step != StepPropose {
		return
	}
	// No acceptable proposal in time: prevote nil (or the locked block).
	n.step = StepPrevote
	n.castVote(VotePrevote, n.lockedID)
	n.sim.After(timeout(TimeoutPrevote, r), func() {
		n.onTimeoutPrevote(h, r)
	})
}

func (n *Node) onTimeoutPrevote(h uint64, r int32) {
	if n.stopped || n.decided || h != n.height || r != n.round || n.step != StepPrevote {
		return
	}
	n.advanceToPrecommit(nilBlockID)
}

func (n *Node) onTimeoutPrecommit(h uint64, r int32) {
	if n.stopped || n.decided || h != n.height || r != n.round || n.step != StepPrecommit {
		return
	}
	n.enterRound(r + 1)
}
