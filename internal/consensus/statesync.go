package consensus

import (
	"repro/internal/checkpoint"
	"repro/internal/wire"
)

// This file is state-sync: the StateSyncer seam, snapshot offers, the
// chunked transfer and install (DESIGN.md §15).

// StateSyncer is the application side of checkpoint state-sync: the
// replicated application (core.Server) serves its latest sealed snapshot
// and installs a verified peer snapshot. Both directions are wired by the
// ledger node at construction; a nil syncer disables state-sync.
type StateSyncer interface {
	// SyncSnapshot returns the latest sealed checkpoint snapshot, if any.
	// Last, Chain and Bytes are final — enough to match it against a
	// certified header; State is complete only after ServeSnapshot.
	SyncSnapshot() (*checkpoint.Snapshot, bool)
	// ServeSnapshot returns the snapshot to offer a peer for one that
	// SyncSnapshot returned earlier (the certified one, not necessarily the
	// newest): the same snapshot with its State completed, which the
	// application does once and never writes again — or, from a Byzantine
	// application, a forgery of it that reuses the legitimate certificate
	// (the attack the header binding exists to stop). Either keeps
	// Last.Height.
	ServeSnapshot(snap *checkpoint.Snapshot) *checkpoint.Snapshot
	// InstallSync verifies a peer snapshot against local state and adopts
	// it, returning false (state untouched) when stale or inconsistent.
	// The certificate binding the snapshot to a quorum-signed header is
	// verified by consensus before this is called (DESIGN.md §15).
	InstallSync(snap *checkpoint.Snapshot) bool
	// HeaderCommitment returns the latest sealed checkpoint epoch and the
	// fold of the chain through it (0, checkpoint.Seed() before any seal);
	// proposers stamp it into every block header.
	HeaderCommitment() (epoch, fold uint64)
	// VerifyCommitment checks a proposed header's claimed commitment
	// against local sealing: a claim at or below the local seal horizon
	// must match the local chain prefix exactly; a claim ahead of local
	// sealing is accepted (the quorum vets it — a validator cannot
	// falsify state it has not reached).
	VerifyCommitment(epoch, fold uint64) bool
}

// syncFetch is an in-flight chunked snapshot transfer on the requester:
// the verified offer, the serving peer, the fold of the offered chain,
// and how many chunks arrived. Chunks are requested one at a time at the
// first missing sequence number, so the received set is always the prefix
// 0..next-1: next is both the count and the resume point of a re-offer or
// retry.
type syncFetch struct {
	snap       *checkpoint.Snapshot
	from       wire.NodeID
	fold       uint64
	chunks     int
	chunkBytes int
	next       int
}

// chunkSum is the modeled per-chunk digest: snapshot identity + sequence
// + size, folded with the checkpoint digest idiom.
func chunkSum(fold uint64, seq, size int) uint64 {
	h := checkpoint.Mix64(checkpoint.Seed(), fold)
	h = checkpoint.Mix64(h, uint64(seq))
	return checkpoint.Mix64(h, uint64(size))
}

// syncChunkCount is the envelope count for a snapshot of size bytes.
func syncChunkCount(bytes, chunkBytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + chunkBytes - 1) / chunkBytes
}

// syncChunkSize is the size of chunk seq of a snapshot of size bytes: a
// full chunk but for the last, and never below one byte.
func syncChunkSize(bytes, chunkBytes, seq int) int {
	return max(min(bytes-seq*chunkBytes, chunkBytes), 1)
}

// refreshServable makes p and its certificate the proof attached to
// state-sync offers when the decided header's checkpoint commitment
// matches the application's current snapshot. The previous servable pair
// stays until a newer match commits, so a freshly sealed (not yet
// certified) snapshot never leaves the node unprovable — it just serves
// the older certified one meanwhile.
func (n *Node) refreshServable(p *Proposal, cert []*Vote) {
	if n.syncer == nil {
		return
	}
	if snap, ok := n.syncer.SyncSnapshot(); ok && snap != n.servableSnap &&
		p.Block.CkptEpoch == snap.Last.Epoch &&
		p.Block.CkptFold == checkpoint.FoldChain(snap.Chain) {
		n.servableSnap = snap
		n.servableProp = p
		n.servableCert = cert
	}
}

// offerSnapshot answers a deep catch-up request for height with the latest
// CERTIFIED snapshot, if it would actually move the requester forward. A
// snapshot without an observed certificate binding its chain fold is never
// served — the requester could not verify it, and its retry backoff finds
// a peer that can prove its offer.
func (n *Node) offerSnapshot(to wire.NodeID, height uint64) {
	if n.syncer == nil || n.servableSnap == nil || n.servableSnap.Last.Height < height {
		return
	}
	// Only now is the snapshot's O(state) half built. A Byzantine server
	// returns a corrupted snapshot here and attaches the legitimate
	// certificate below; the requester's fold check is what catches the
	// mismatch.
	snap := n.syncer.ServeSnapshot(n.servableSnap)
	n.serveSnap = snap
	n.serveFold = checkpoint.FoldChain(snap.Chain)
	cb := n.params.SyncChunkBytes
	offer := &SyncOffer{
		Snapshot:   snap,
		Proposal:   n.servableProp,
		Commit:     n.servableCert,
		Chunks:     syncChunkCount(snap.Bytes, cb),
		ChunkBytes: cb,
	}
	// The offer ships metadata and proof, not the state: the chain, the
	// certified proposal envelope, and the certificate votes.
	size := checkpoint.EntryWireSize*len(snap.Chain) + proposalOverhead + len(offer.Commit)*voteWireSize
	n.net.Send(n.id, to, offer, size)
}

// handleSyncChunkRequest serves one chunk of the most recently offered
// snapshot. Requests naming a different snapshot (stale identity after a
// newer seal) are dropped; the requester's retry fetches a fresh offer.
func (n *Node) handleSyncChunkRequest(from wire.NodeID, req *SyncChunkRequest) {
	snap := n.serveSnap
	if snap == nil || req.Epoch != snap.Last.Epoch || req.Fold != n.serveFold {
		return
	}
	cb := n.params.SyncChunkBytes
	if req.Seq < 0 || req.Seq >= syncChunkCount(snap.Bytes, cb) {
		return
	}
	size := syncChunkSize(snap.Bytes, cb, req.Seq)
	n.net.Send(n.id, from, &SyncChunk{
		Epoch: req.Epoch, Fold: req.Fold, Seq: req.Seq, Size: size,
		Sum: chunkSum(req.Fold, req.Seq, size),
	}, size)
}

// BreakHeaderBindForTest disables this node's requester-side verification
// of state-sync offers — the certificate check and the chain-fold binding.
// A sabotage hook: tests call it on deployed nodes to prove the
// verification is non-vacuous, since a forged snapshot must install with
// the check broken and be rejected with it intact.
func (n *Node) BreakHeaderBindForTest() { n.trustOffers = true }

// offerValid reports whether an offer proves itself: unless trustOffers,
// the certificate must hold 2f+1 valid precommits for the proposal and the
// certified header must commit to exactly the offered chain (fold is its
// FoldChain); and the declared chunk count must match the snapshot size.
func (n *Node) offerValid(offer *SyncOffer, fold uint64, chunkBytes int) bool {
	snap := offer.Snapshot
	if !n.trustOffers {
		p := offer.Proposal
		if p == nil || !n.verifyCommitCert(p, offer.Commit) ||
			p.Block.CkptEpoch != snap.Last.Epoch || p.Block.CkptFold != fold {
			return false
		}
	}
	return offer.Chunks == syncChunkCount(snap.Bytes, chunkBytes)
}

// handleSyncOffer verifies a state-sync offer (offerValid), then starts
// the chunked transfer or resumes the one in flight. Nothing is installed
// here: InstallSync runs only after every chunk arrived and verified
// (handleSyncChunk).
func (n *Node) handleSyncOffer(from wire.NodeID, offer *SyncOffer) {
	snap := offer.Snapshot
	if snap == nil || n.syncer == nil || n.stopped || n.decided {
		return
	}
	if snap.Last.Height < n.height {
		return // would not advance us; keep block-by-block catch-up
	}
	cb := offer.ChunkBytes
	if cb <= 0 {
		cb = n.params.SyncChunkBytes
	}
	fold := checkpoint.FoldChain(snap.Chain)
	if !n.offerValid(offer, fold, cb) {
		n.syncRejects++
		return
	}
	if f := n.fetch; f != nil {
		if f.snap.Last.Epoch == snap.Last.Epoch && f.fold == fold {
			// Same snapshot re-offered (retry path): resume at the count.
			f.from = from
			n.requestChunk(f)
			return
		}
		if snap.Last.Epoch <= f.snap.Last.Epoch {
			return // already fetching something at least as new
		}
	}
	n.fetch = &syncFetch{
		snap:       snap,
		from:       from,
		fold:       fold,
		chunks:     offer.Chunks,
		chunkBytes: cb,
	}
	n.requestChunk(n.fetch)
}

// requestChunk asks the serving peer for the fetch's first missing chunk.
func (n *Node) requestChunk(f *syncFetch) {
	n.net.Send(n.id, f.from, &SyncChunkRequest{Epoch: f.snap.Last.Epoch, Fold: f.fold, Seq: f.next}, 32)
}

// handleSyncChunk accepts the chunk the fetch in flight is waiting for —
// the one at its received count, of the right size and digest — and
// either requests the next chunk or, once all arrived, installs the
// assembled snapshot and resumes consensus after the checkpoint height.
// Any other chunk is a duplicate or names another snapshot and is
// ignored; one failing verification is dropped, and the retry backoff
// re-requests it.
func (n *Node) handleSyncChunk(c *SyncChunk) {
	f := n.fetch
	if f == nil || n.stopped || n.decided || c.Epoch != f.snap.Last.Epoch || c.Fold != f.fold || c.Seq != f.next {
		return
	}
	if c.Size != syncChunkSize(f.snap.Bytes, f.chunkBytes, c.Seq) || c.Sum != chunkSum(f.fold, c.Seq, c.Size) {
		return
	}
	f.next++
	if f.next < f.chunks {
		n.requestChunk(f)
		return
	}
	// Transfer complete: hand the snapshot to the application. InstallSync
	// re-verifies everything locally checkable; the certificate already
	// vouched for the chain. On rejection the fetch is abandoned and the
	// catch-up retry probes for a better peer.
	snap := f.snap
	n.fetch = nil
	if snap.Last.Height < n.height || !n.syncer.InstallSync(snap) {
		return
	}
	// Heights through the checkpoint are now covered by the installed
	// state; retained blocks below it are superseded.
	n.chain = nil
	n.chainBase = snap.Last.Height
	n.resetHeight(snap.Last.Height + 1)
	n.catchupPending = false
	n.catchupRetries = 0
	n.enterHeight(n.height)
}
