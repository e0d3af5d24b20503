package core

import (
	"bytes"
	"slices"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/consensus"
	"repro/internal/setcrypto"
	"repro/internal/wire"
)

// This file is the server half of the epoch-checkpoint subsystem
// (internal/checkpoint; DESIGN.md §11): sealing a checkpoint every K
// settled epochs, pruning settled state below the horizon, and serving /
// installing state-sync snapshots so a restarted node recovers from the
// latest checkpoint plus a block suffix instead of replaying the whole
// chain.
//
// Determinism argument, in one place: an epoch settles when its f+1-th
// valid proof is processed, proofs travel only inside committed blocks,
// and block processing is strictly ordered — so every correct server
// seals checkpoints with identical content (epoch, cumulative elements,
// digest). That agreement is what the invariant checker verifies in place
// of the pruned epochs. The seal Height is NOT part of the agreement: a
// proof rides in a batch, and a server whose fetch of that batch failed
// (crashed signer) extracts its proofs a block later than peers that held
// the batch locally, so heights may trail by a block under faults —
// cross-server comparisons use checkpoint.Same, which ignores Height.

// epochFrameSize is a snapshot epoch's modeled framing (number, hash and
// element count): a real transfer ships the set's elements plus per-epoch
// framing and wire.EpochProofWireSize per proof.
const epochFrameSize = 80

// maybeSeal seals every checkpoint interval the settled prefix has
// crossed. Called only at block-processing boundaries (processNext), so a
// frozen snapshot always reflects COMPLETE processing of blocks
// 1..curHeight and a state-syncing peer can replay from curHeight+1
// without a gap.
func (s *Server) maybeSeal() {
	k := uint64(s.opts.CheckpointInterval)
	if k == 0 {
		return
	}
	for s.settled >= s.lastCheckpointEpoch()+k {
		s.seal(s.lastCheckpointEpoch() + k)
	}
}

// extendCheckpoint chains eps, the epochs right after ck in number order,
// onto ck: the result is the checkpoint covering them too, and bytes
// grows by their elements' bytes. Height is left as ck's.
func extendCheckpoint(ck checkpoint.Checkpoint, bytes uint64, eps []*Epoch) (checkpoint.Checkpoint, uint64) {
	for _, ep := range eps {
		ck.Epoch = ep.Number
		ck.Digest = checkpoint.ChainEpoch(ck.Digest, ep.Number, ep.Hash)
		ck.Elements += uint64(len(ep.Elements))
		for _, el := range ep.Elements {
			bytes += uint64(el.Size)
		}
	}
	return ck, bytes
}

func (s *Server) lastCheckpointEpoch() uint64 {
	if len(s.checkpoints) == 0 {
		return 0
	}
	return s.checkpoints[len(s.checkpoints)-1].Epoch
}

// seal creates the checkpoint covering epochs 1..target, extending the
// previous checkpoint's digest chain over the newly settled range, then
// freezes the state-sync snapshot and (when enabled) prunes below the
// horizon.
func (s *Server) seal(target uint64) {
	prev := checkpoint.Checkpoint{Digest: checkpoint.Seed()}
	if len(s.checkpoints) > 0 {
		prev = s.checkpoints[len(s.checkpoints)-1]
	}
	ck, bytes := extendCheckpoint(prev, s.ckptBytes, s.history[prev.Epoch-s.prunedEpochs:target-s.prunedEpochs])
	ck.Height = s.curHeight
	s.checkpoints = append(s.checkpoints, ck)
	s.ckptFold = checkpoint.FoldEntry(s.ckptFold, ck)
	s.ckptBytes = bytes
	s.chargeCPU(time.Duration(target-prev.Epoch) * s.opts.Costs.PerBatch / 8)
	s.freezeSyncState(ck)
	if s.rec != nil {
		s.rec.CheckpointSealed(s.id, ck, s.opts.Prune)
	}
	if s.opts.Prune {
		s.prune(ck)
	}
}

// prune drops settled state at or below the checkpoint horizon: the
// server's epochs with their proofs, the ledger node's per-height
// blocks and commit certificates, and the mempool's committed-key
// tombstones. The element index — the_set and each id's epoch — stays: it IS
// the replicated set and the exactly-once filter; what pruning removes is
// the per-epoch and per-block history that only re-proves the past.
func (s *Server) prune(ck checkpoint.Checkpoint) {
	drop := ck.Epoch - s.prunedEpochs
	if drop == 0 {
		return
	}
	// Copy the tail so the pruned prefix's backing array is released.
	s.history = append([]*Epoch(nil), s.history[drop:]...)
	s.prunedEpochs = ck.Epoch
	s.prunedElements = ck.Elements
	s.node.Checkpointed(ck.Height)
}

// SyncState is the application half of a state-sync snapshot: the
// Setchain state needed on top of the checkpoint chain to resume from the
// seal height. It states each fact once — the elements of an epoch at or
// below the checkpoint in Members, of one above it in Epochs — and shares
// with the serving server only what that server never writes again
// (DESIGN.md §11):
//
//   - Epochs and Pending are taken at the seal (freezeSyncState), the only
//     moment they have their seal-height value. An epoch's Elements and Hash
//     never change, so a sealed epoch shares them with the live one; only
//     its Proofs grow, by appends past the length the seal clipped them to.
//   - Members is filled the first time the snapshot is offered to a peer
//     (ServeSnapshot), with views of the element index's epoch slices. The
//     index is grow-only and never restamps an id, so those slices are the
//     seal-time membership at any later moment.
//
// Nothing is written after the first hand-off: a requester reads the
// snapshot while the serving server keeps running, re-serving the same
// snapshot only reads it, and an installer adopts copies of its epochs
// (InstallSync).
type SyncState struct {
	// Members holds, for each epoch n from 1 through the checkpoint, the
	// elements stamped with n at Members[n-1]. Nil until the snapshot is
	// first served.
	Members [][]*wire.Element
	// Epochs are the created epochs above the checkpoint, with the proofs
	// accepted for them as of the seal height, ascending by number.
	Epochs []*Epoch
	// Pending lists Hashchain's batches not yet consolidated at seal time:
	// their remaining signatures arrive in the replayed suffix and must
	// count on top of these. Nil for other algorithms.
	Pending []PendingBatch
}

// PendingBatch is one unconsolidated Hashchain batch of a snapshot.
type PendingBatch struct {
	Hash []byte
	// Signers are the servers whose hash-batch the ledger holds, ascending.
	Signers []wire.NodeID
	// Batch is, under Light, the batch itself. A Light server gets a batch
	// only on its origin's hash-batch, and an installer never replays the
	// blocks at or below the seal height, so without it the rest of the
	// signatures would find no content. Like the hash-batch's own batch, it
	// is not counted in the snapshot's bytes. Nil otherwise.
	Batch *wire.Batch
}

var _ consensus.StateSyncer = (*Server)(nil)

// freezeSyncState captures the seal-time half of the snapshot for this
// checkpoint, at a cost bounded by the checkpoint interval: each epoch
// above the checkpoint is kept as a struct copy with its proofs clipped, and
// Hashchain's pending batches are listed. Members is left to ServeSnapshot,
// and Chain is a capped prefix of the append-only checkpoint chain — later
// seals append past it (or reallocate), never into it.
func (s *Server) freezeSyncState(ck checkpoint.Checkpoint) {
	st := &SyncState{}
	size := int(s.ckptBytes) + len(s.checkpoints)*checkpoint.EntryWireSize
	for _, ep := range s.history[ck.Epoch-s.prunedEpochs:] {
		cp := *ep
		cp.Proofs = slices.Clip(ep.Proofs)
		st.Epochs = append(st.Epochs, &cp)
		size += epochFrameSize + len(ep.Proofs)*wire.EpochProofWireSize
		for _, el := range ep.Elements {
			size += el.WireSize()
		}
	}
	if h, ok := s.alg.(*hashchainAlg); ok {
		st.Pending = h.pendingBatches()
		for _, p := range st.Pending {
			size += len(p.Signers) * wire.EpochProofWireSize
		}
	}
	n := len(s.checkpoints)
	s.syncState = &checkpoint.Snapshot{
		Last:  ck,
		Chain: s.checkpoints[:n:n],
		State: st,
		Bytes: size,
	}
}

// SyncSnapshot implements consensus.StateSyncer: the latest sealed
// snapshot. Its identity (Last, Chain, Bytes) is final; its State is
// complete only in what ServeSnapshot returns for it.
func (s *Server) SyncSnapshot() (*checkpoint.Snapshot, bool) {
	return s.syncState, s.syncState != nil
}

// ServeSnapshot implements consensus.StateSyncer: complete a snapshot this
// server sealed — the newest, or an older one consensus still holds a
// certificate for — by filling its Members, once, with clipped views of the
// element index's epoch slices through the checkpoint. That is exact at any
// time after the seal: the index never rebinds or restamps an id, so an
// epoch's slice only ever gains what a later stamp of its own number adds,
// which on a correct server is nothing once the epoch exists.
// Under the ForgeSnapshot behavior the offer is a forgery built on top.
func (s *Server) ServeSnapshot(snap *checkpoint.Snapshot) *checkpoint.Snapshot {
	st := snap.State.(*SyncState)
	if st.Members == nil {
		st.Members = make([][]*wire.Element, snap.Last.Epoch)
		for i := range st.Members {
			st.Members[i] = slices.Clip(s.elems.epochs[i+1])
		}
	}
	if s.behavior != nil && s.behavior.ForgeSnapshot {
		return s.forgeSnapshot(snap, st)
	}
	return snap
}

// InstallSync implements consensus.StateSyncer: adopt a peer's checkpoint
// snapshot as this server's state. Trust is layered (DESIGN.md §15):
// consensus has ALREADY verified, before calling this, that the
// snapshot's chain folds to the checkpoint commitment a 2f+1-certified
// block header binds — a peer cannot forge sealed history, even history
// this server never saw. What remains here is everything locally
// checkable: the membership must account for exactly the certified epochs
// and cumulative element count, the local checkpoint chain must be a prefix
// of the snapshot's, chain digests covering locally retained epochs must
// recompute, and the snapshot's suffix epochs must hash correctly, agree
// with any local epochs of the same number and carry only proofs
// acceptProof would take. The end-of-run invariant checker cross-validates
// every install on top. Returns false, leaving state untouched, when the
// snapshot is stale or inconsistent.
func (s *Server) InstallSync(snap *checkpoint.Snapshot) bool {
	st, ok := snap.State.(*SyncState)
	if !ok || st == nil {
		return false
	}
	ck := snap.Last
	total := s.prunedEpochs + uint64(len(s.history))
	if len(snap.Chain) == 0 || snap.Chain[len(snap.Chain)-1] != ck {
		return false
	}
	if ck.Epoch+uint64(len(st.Epochs)) < total {
		return false // snapshot older than local state
	}
	// The certified chain commits to the epoch count and the cumulative
	// element count through the checkpoint: the membership must list exactly
	// that many epochs, each holding an element, and that many elements, so a
	// peer cannot pad the set with elements hidden below the prune horizon.
	// No id may appear twice, there or in the suffix: the installer's index
	// would keep only the first.
	if uint64(len(st.Members)) != ck.Epoch {
		return false
	}
	var seen wire.IDMap[struct{}]
	fresh := func(elems []*wire.Element) bool {
		for _, el := range elems {
			if el == nil {
				return false
			}
			if _, ok := seen.Slot(el.ID); !ok {
				return false
			}
		}
		return true
	}
	var count, ckptBytes uint64
	for _, elems := range st.Members {
		if len(elems) == 0 || !fresh(elems) {
			return false
		}
		count += uint64(len(elems))
		for _, el := range elems {
			ckptBytes += uint64(el.Size)
		}
	}
	if count != ck.Elements {
		return false
	}
	for i, mine := range s.checkpoints {
		// Content prefix (Same): the peer's seal heights may differ from
		// ours by a block (see package checkpoint), which is not divergence.
		if i >= len(snap.Chain) || !snap.Chain[i].Same(mine) {
			return false
		}
	}
	// Recompute chain digests over locally retained epochs: every chain
	// entry whose covered range (prev, entry] lies within local history
	// must match what the local epochs hash to. The chain must ascend.
	prev := checkpoint.Checkpoint{Digest: checkpoint.Seed()}
	for _, entry := range snap.Chain {
		if entry.Epoch > total {
			break
		}
		if entry.Epoch <= prev.Epoch {
			return false
		}
		if prev.Epoch >= s.prunedEpochs {
			got, _ := extendCheckpoint(prev, 0, s.history[prev.Epoch-s.prunedEpochs:entry.Epoch-s.prunedEpochs])
			if got.Digest != entry.Digest || got.Elements != entry.Elements {
				return false
			}
		}
		prev = entry
	}
	// Verify the suffix epochs: contiguous numbering, recomputable hashes,
	// agreement with local epochs of the same number, and proofs as
	// acceptProof takes them.
	num := ck.Epoch
	var cost time.Duration
	for _, ep := range st.Epochs {
		num++
		if ep == nil || !fresh(ep.Elements) {
			return false
		}
		if ep.Number != num || !bytes.Equal(ep.Hash, s.epochHashFor(ep.Number, ep.Elements)) {
			return false
		}
		if num > s.prunedEpochs && num <= total {
			if !bytes.Equal(s.history[num-1-s.prunedEpochs].Hash, ep.Hash) {
				return false
			}
		}
		if !s.validProofs(ep) {
			return false
		}
		cost += time.Duration(len(ep.Elements)) * s.opts.Costs.PerElement
	}
	s.chargeCPU(cost)

	// Adopt: checkpoint chain, membership through the checkpoint an epoch at
	// a time, suffix history with its proofs as of the seal height. Each
	// adopted epoch is this server's own copy, its proofs capped at their
	// length: acceptProof appends to them, and the snapshot may be served to
	// other peers too.
	s.checkpoints = append([]checkpoint.Checkpoint(nil), snap.Chain...)
	s.ckptFold = checkpoint.FoldChain(s.checkpoints)
	s.prunedEpochs = ck.Epoch
	s.prunedElements = ck.Elements
	s.ckptBytes = ckptBytes
	for i, elems := range st.Members {
		s.elems.stampEpoch(uint64(i+1), elems)
	}
	s.history = make([]*Epoch, len(st.Epochs))
	for i, ep := range st.Epochs {
		cp := *ep
		cp.Proofs = slices.Clip(ep.Proofs)
		s.history[i] = &cp
		s.elems.stampEpoch(cp.Number, cp.Elements)
	}
	s.settled = ck.Epoch
	s.settle()
	if h, ok := s.alg.(*hashchainAlg); ok {
		h.installPending(st.Pending)
	}
	// Queued blocks predate the checkpoint and are fully covered by the
	// installed state; the replayed suffix arrives through consensus.
	s.blockQueue = nil
	s.syncInstalls++
	if s.opts.Prune {
		s.node.Checkpointed(ck.Height)
	}
	return true
}

// validProofs reports whether every proof of ep is one acceptProof would
// have taken for it: of ep's number, validly signed over ep's hash, and
// from a signer no earlier proof of ep names. It charges nothing: the
// serving server paid for each of them when it accepted it.
func (s *Server) validProofs(ep *Epoch) bool {
	for i, p := range ep.Proofs {
		if p == nil || p.Epoch != ep.Number || !s.validProof(p, ep.Hash) {
			return false
		}
		for _, q := range ep.Proofs[:i] {
			if q.Signer == p.Signer {
				return false
			}
		}
	}
	return true
}

// pendingBatches lists Hashchain's unconsolidated batches in pending order,
// each with its ledger signers ascending and, under Light, its batch.
func (h *hashchainAlg) pendingBatches() []PendingBatch {
	out := make([]PendingBatch, len(h.pending))
	for i, r := range h.pending {
		out[i] = PendingBatch{Hash: r.hash, Signers: r.signers.ids()}
		if h.s.opts.Light {
			out[i].Batch = r.batch
		}
	}
	return out
}

// installPending replaces the signer state with a snapshot's pending
// batches: signatures in blocks at or below the seal height are invisible
// to the installing node, so the suffix replay must count on top of these.
// Everything else a record holds — content, consolidation, a fetch in
// flight — is this server's own and stays, except that a record without a
// batch takes the one a Light snapshot carries for it. Own-signature memory
// is rebuilt from the sets to avoid double-signing. A signer the registry
// does not know cannot have signed anything and is skipped, and so is a
// hash that is not setcrypto.HashSize long: no hash-batch carries one.
func (h *hashchainAlg) installPending(pending []PendingBatch) {
	for len(h.pending) > 0 {
		h.releaseSigners(h.pending[len(h.pending)-1])
	}
	for _, p := range pending {
		if len(p.Hash) != setcrypto.HashSize {
			continue
		}
		r := h.rec(p.Hash)
		if p.Batch != nil {
			r.register(p.Batch)
		}
		for _, id := range p.Signers {
			if h.s.registry.Lookup(int(id)) == nil {
				continue
			}
			h.addSigner(r, id)
			if id == h.s.id {
				r.signedOwn = true
			}
		}
	}
}

// Checkpoints returns the sealed checkpoint chain (read-only).
func (s *Server) Checkpoints() []checkpoint.Checkpoint { return s.checkpoints }

// SyncInstalls returns how many checkpoint snapshots this server has
// installed (state-sync recoveries).
func (s *Server) SyncInstalls() uint64 { return s.syncInstalls }

// HeaderCommitment implements consensus.StateSyncer: the latest sealed
// checkpoint epoch and the fold of the chain through it, stamped into
// every block header this server proposes. (0, checkpoint.Seed()) before
// any seal.
func (s *Server) HeaderCommitment() (uint64, uint64) {
	return s.lastCheckpointEpoch(), s.ckptFold
}

// VerifyCommitment implements consensus.StateSyncer: check a proposed
// header's claimed checkpoint commitment against local sealing. Seal
// points and content are deterministic across correct servers, so a
// claim at or below the local horizon must match the local chain prefix
// bit for bit; a claim ahead of local sealing passes — this validator
// cannot falsify state it has not computed yet, which is exactly the
// f+1-honest-signatures trust state-sync relies on (DESIGN.md §15).
func (s *Server) VerifyCommitment(epoch, fold uint64) bool {
	last := s.lastCheckpointEpoch()
	if epoch > last {
		return true
	}
	if epoch == last {
		return fold == s.ckptFold
	}
	h := checkpoint.Seed()
	for _, c := range s.checkpoints {
		if c.Epoch > epoch {
			break
		}
		h = checkpoint.FoldEntry(h, c)
		if c.Epoch == epoch {
			return h == fold
		}
	}
	// epoch is below the horizon but not a seal point: only the empty
	// chain (epoch 0) is claimable there.
	return epoch == 0 && fold == h
}

// forgeSnapshot is the ForgeSnapshot behavior's offer: a served snapshot
// extended with one fabricated checkpoint that "settles" the honest suffix
// plus a forged epoch of bogus elements. The forgery is crafted to pass
// every LOCAL check a behind requester can run — internally consistent
// digests, hashes, and element counts — so before the header binding it
// installed cleanly and smuggled bogus elements into the requester's set;
// the certified fold check rejects it because the fabricated chain cannot
// fold to any quorum-signed commitment. It keeps Last.Height, so it is
// offered exactly when the honest snapshot would be.
func (s *Server) forgeSnapshot(snap *checkpoint.Snapshot, st *SyncState) *checkpoint.Snapshot {
	const bogusN = 3
	forgedNum := snap.Last.Epoch + uint64(len(st.Epochs)) + 1
	bogus := make([]*wire.Element, 0, bogusN)
	for i := 0; i < bogusN; i++ {
		bogus = append(bogus, bogusElement(0xFD, byte(s.id), byte(forgedNum), byte(i)))
	}
	forgedEp := &Epoch{Number: forgedNum, Elements: bogus}
	forgedEp.Hash = s.epochHashFor(forgedNum, bogus)

	// Fabricated checkpoint covering (Last.Epoch, forgedNum]: chain the
	// honest suffix epochs, then the forged one — internally consistent,
	// provably unsigned. Everything is claimed sealed, so the suffix epochs
	// join the membership and none survive the fabricated horizon.
	eps := append(slices.Clip(st.Epochs), forgedEp)
	ckF, _ := extendCheckpoint(snap.Last, 0, eps)
	members := slices.Clip(st.Members)
	for _, ep := range eps {
		members = append(members, ep.Elements)
	}
	return &checkpoint.Snapshot{
		Last:  ckF,
		Chain: append(slices.Clip(snap.Chain), ckF),
		State: &SyncState{Members: members, Pending: st.Pending},
		Bytes: snap.Bytes + bogusN*bogusSize,
	}
}
