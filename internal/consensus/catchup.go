package consensus

import (
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// This file is catch-up: block requests, the future-message buffer,
// certified blocks and the retry backoff.

func (n *Node) requestBlock(round int32, blockID string) {
	rv := n.votes[round]
	if rv == nil {
		return
	}
	// Ask the lowest-id precommitter: the target choice shapes message
	// timing, so it must not depend on map iteration order.
	target, found := wire.NodeID(0), false
	for voter := range rv.votes[VotePrecommit][blockID] {
		if voter != n.id && (!found || voter < target) {
			target, found = voter, true
		}
	}
	if found {
		n.catchupReqs++
		n.net.Send(n.id, target, &BlockRequest{Height: n.height, BlockID: blockID}, 64)
		// One request at a time; timeouts re-trigger if lost.
	}
}

func (n *Node) handleBlockRequest(from wire.NodeID, req *BlockRequest) {
	// Serve committed heights from the retained decisions, and the
	// in-progress height from the pending proposal set. An empty BlockID is
	// a deep catch-up request and gets the commit certificate too.
	if d, ok := n.decisions[req.Height]; ok {
		p := d.prop
		if req.BlockID == "" {
			size := p.Block.Bytes + proposalOverhead + len(d.cert)*voteWireSize
			n.net.Send(n.id, from, &BlockResponse{Proposal: p, Commit: d.cert}, size)
			return
		}
		if p.BlockID == req.BlockID {
			n.net.Send(n.id, from, &BlockResponse{Proposal: p}, p.Block.Bytes+proposalOverhead)
			return
		}
	}
	for _, p := range n.proposals {
		if p.Height == req.Height && p.BlockID == req.BlockID {
			n.net.Send(n.id, from, &BlockResponse{Proposal: p}, p.Block.Bytes+proposalOverhead)
			return
		}
	}
	// Deep catch-up for a height we can no longer serve block-by-block
	// (pruned under the checkpoint horizon, or outside the decided window).
	if req.BlockID == "" {
		n.offerSnapshot(from, req.Height)
	}
}

func (n *Node) bufferFuture(msg any) {
	// Bounded buffer: a lagging node only needs messages for height+1; a
	// deeply lagging node recovers via certified block requests instead.
	if len(n.futureMsgs) < 4096 {
		n.futureMsgs = append(n.futureMsgs, msg)
	}
	var h uint64
	var sender wire.NodeID = -1
	switch m := msg.(type) {
	case *Proposal:
		h, sender = m.Height, m.Proposer
	case *Vote:
		h, sender = m.Height, m.Voter
	}
	if h > n.futureHeight {
		n.futureHeight = h
		n.futureSender = sender
	}
	// Evidence of a height beyond the next one means the cluster decided
	// our current height without us: fetch the certified block.
	if n.futureHeight > n.height+1 {
		n.maybeCatchup()
	}
}

func (n *Node) replayFuture() {
	if len(n.futureMsgs) == 0 {
		return
	}
	msgs := n.futureMsgs
	n.futureMsgs = nil
	for _, m := range msgs {
		switch msg := m.(type) {
		case *Proposal:
			n.handleProposal(msg)
		case *Vote:
			n.handleVote(msg)
		}
	}
}

// Catch-up retry pacing: the first attempt retries after the flat base
// delay, drawing nothing, so runs where every catch-up resolves first try
// never touch the jitter stream; consecutive unproductive retries back
// off exponentially to the cap, each with up to +25% jitter from a
// dedicated stream — at mesh scale (n=100) a partition heal would
// otherwise release every stalled node's retry in one synchronized storm.
const (
	catchupBaseDelay = 2 * time.Second
	catchupMaxDelay  = 30 * time.Second
	// catchupJitterStream offsets the jitter stream ids far away from the
	// other ChildSeed users (netsim per-node streams use raw node ids,
	// workload uses 1<<40 + small offsets).
	catchupJitterStream = uint64(1) << 41
)

// catchupDelay returns the backoff delay for the current retry count,
// drawing jitter ONLY when an actual retry happened (catchupRetries > 0):
// the jitter stream must stay untouched on runs with no retries.
func (n *Node) catchupDelay() time.Duration {
	d := catchupBaseDelay
	for i := 0; i < n.catchupRetries && d < catchupMaxDelay; i++ {
		d *= 2
	}
	if d > catchupMaxDelay {
		d = catchupMaxDelay
	}
	if n.catchupRetries > 0 {
		if n.catchupRng == nil {
			n.catchupRng = sim.ChildRand(n.sim.Seed(), catchupJitterStream+uint64(n.id))
		}
		d += time.Duration(n.catchupRng.Int63n(int64(d/4) + 1))
	}
	return d
}

// maybeCatchup requests the certified block for the current height from a
// peer known to be ahead — or, when a chunked snapshot transfer is in
// flight, re-requests the chunk at its received count (the resumable half
// of the transfer: a lost chunk is asked for again, the transfer does not
// restart). One request in flight at a time, retried with bounded
// exponential backoff until the node advances.
func (n *Node) maybeCatchup() {
	if n.catchupPending || n.decided || n.stopped {
		return
	}
	if n.fetch == nil && n.futureSender < 0 {
		return
	}
	n.catchupPending = true
	n.catchupReqs++
	height := n.height
	if f := n.fetch; f != nil {
		n.requestChunk(f)
	} else {
		n.net.Send(n.id, n.futureSender, &BlockRequest{Height: height}, 64)
	}
	n.sim.After(n.catchupDelay(), func() {
		// Retry (possibly via a different ahead peer) until we advance.
		if n.catchupPending && n.height == height && !n.stopped {
			n.catchupPending = false
			n.catchupRetries++
			n.maybeCatchup()
		}
	})
}

// verifyCommitCert checks that a proposal's id re-derives from its
// contents (including the header's checkpoint commitment) and that the
// certificate holds 2f+1 valid precommit signatures for it. Shared by
// deep catch-up (handleCertifiedBlock) and state-sync offer verification
// (handleSyncOffer) — the same quorum proof backs both.
func (n *Node) verifyCommitCert(p *Proposal, commit []*Vote) bool {
	if !n.wellFormed(p) {
		return false
	}
	seen := make(map[wire.NodeID]bool)
	for _, v := range commit {
		if v == nil || v.Height != p.Height || v.Type != VotePrecommit || v.BlockID != p.BlockID {
			continue
		}
		if !seen[v.Voter] && n.validVote(v) {
			seen[v.Voter] = true
		}
	}
	return len(seen) >= n.Quorum()
}

// handleCertifiedBlock validates a deep catch-up response: the proposal
// must be for our current height, its id must re-derive from its contents,
// and the certificate must hold 2f+1 valid precommit signatures for it.
func (n *Node) handleCertifiedBlock(resp *BlockResponse) {
	p := resp.Proposal
	if p == nil || n.decided || p.Height != n.height {
		if p != nil && p.Height < n.height {
			n.catchupPending = false
			n.catchupRetries = 0
		}
		return
	}
	if !n.verifyCommitCert(p, resp.Commit) {
		return
	}
	n.catchupPending = false
	n.catchupRetries = 0
	n.proposals[p.Round] = p
	n.commit(p)
}
