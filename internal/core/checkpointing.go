package core

import (
	"bytes"
	"maps"
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
// seal height. It is built in two halves, both inside the serving server's
// own events, and shares nothing mutable with that server (DESIGN.md §11):
//
//   - the small half — whatever is mutable as of the seal height: suffix
//     epochs with their proofs, Hashchain's pending signers, LastEpoch,
//     CkptBytes — is copied at the seal (freezeSyncState), the only moment
//     it has its seal-height value;
//   - the big half — Members, O(total state) — is built the first time the
//     snapshot is offered to a peer (ServeSnapshot). The element index it
//     is filtered from is grow-only and an entry, once stamped, never
//     changes, so the filter returns the seal-time index at any later
//     moment.
//
// Nothing is written after the first hand-off: a requester reads the
// snapshot while the serving server keeps mutating its live index, re-serving the same snapshot only reads it, and an installer
// adopts copies of its epochs (InstallSync). Only the leaf *wire.Element and
// *wire.EpochProof pointers are shared with the server — immutable wire
// payloads, exactly what the read-only-shared-payload convention permits.
type SyncState struct {
	// Epochs are frozen copies of the created epochs above the checkpoint,
	// with the proofs accepted for them, as of the seal height, ascending by
	// number.
	Epochs []*Epoch
	// LastEpoch is the highest created epoch at seal time (the checkpoint
	// epoch when Epochs is empty).
	LastEpoch uint64
	// Members is the membership index through LastEpoch: each element in an
	// epoch, by id, with the epoch. Nil until the snapshot is first served.
	Members map[wire.ElementID]Member
	// PendingSigners carries Hashchain's ledger signer sets for batches
	// not yet consolidated at seal time: their remaining signatures arrive
	// in the replayed suffix and must count on top of these. Sorted per
	// batch for determinism; nil for other algorithms.
	PendingSigners map[wire.Digest][]wire.NodeID
	// LightBatches carries, under Light, the batch of each pending record.
	// A Light server gets a batch only on its origin's hash-batch, and an
	// installer never replays the blocks at or below the seal height, so
	// without these the rest of the signatures would find no content. Like
	// the hash-batch's own batch, they are not counted in the snapshot's
	// bytes. Nil otherwise.
	LightBatches map[wire.Digest]*wire.Batch
	// CkptBytes is the serving server's modeled element-byte total through
	// the checkpoint, so the installer's next seal sizes its own snapshot
	// consistently.
	CkptBytes uint64
}

// Member is one entry of SyncState.Members: an element and its epoch.
type Member struct {
	Element *wire.Element
	Epoch   uint64
}

var _ consensus.StateSyncer = (*Server)(nil)

// freezeSyncState captures the seal-time half of the snapshot for this
// checkpoint, at a cost bounded by the checkpoint interval: the epochs
// above the checkpoint and their proofs are live structures that keep
// changing, so they are copied now. Members is left to ServeSnapshot, and
// Chain is a capped prefix of the append-only checkpoint chain — later
// seals append past it (or reallocate), never into it.
func (s *Server) freezeSyncState(ck checkpoint.Checkpoint) {
	created := s.prunedEpochs + uint64(len(s.history))
	st := &SyncState{LastEpoch: created, CkptBytes: s.ckptBytes}
	size := int(s.ckptBytes) + len(s.checkpoints)*checkpoint.EntryWireSize
	for e := ck.Epoch + 1; e <= created; e++ {
		ep := s.history[e-1-s.prunedEpochs]
		// Copy the epoch struct, its element and its proof slices; the
		// element and proof pointers themselves are immutable shared payloads.
		st.Epochs = append(st.Epochs, &Epoch{
			Number:   ep.Number,
			Elements: append([]*wire.Element(nil), ep.Elements...),
			Hash:     append([]byte(nil), ep.Hash...),
			Proofs:   append([]*wire.EpochProof(nil), ep.Proofs...),
		})
		size += epochFrameSize + len(ep.Proofs)*wire.EpochProofWireSize
		for _, el := range ep.Elements {
			size += el.WireSize()
		}
	}
	if h, ok := s.alg.(*hashchainAlg); ok {
		st.PendingSigners = h.pendingSigners()
		if s.opts.Light {
			st.LightBatches = h.pendingBatches()
		}
		for _, ids := range st.PendingSigners {
			size += len(ids) * wire.EpochProofWireSize
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
// certificate for — by building its Members, once, from the live element
// index. That is exact at any time after the seal: the index only grows,
// never rebinds an id and never restamps one, and epochs are created in
// number order, so the entries stamped at or below LastEpoch are precisely
// the seal-time index. (Elements of the_set not yet in an epoch at the seal
// are not carried, and Bytes never counted them.)
// Under the ForgeSnapshot behavior the offer is a forgery built on top.
func (s *Server) ServeSnapshot(snap *checkpoint.Snapshot) *checkpoint.Snapshot {
	st := snap.State.(*SyncState)
	if st.Members == nil {
		n := snap.Last.Elements
		for _, ep := range st.Epochs {
			n += uint64(len(ep.Elements))
		}
		members := make(map[wire.ElementID]Member, n)
		for id, m := range s.elems.members(st.LastEpoch) {
			members[id] = m
		}
		st.Members = members
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
// checkable: the local checkpoint chain must be a prefix of the
// snapshot's, chain digests covering locally retained epochs must
// recompute, the membership index must account for exactly the certified
// cumulative element count, and the snapshot's suffix epochs must hash
// correctly and agree with any local epochs of the same number. The
// end-of-run invariant checker cross-validates every install on top.
// Returns false, leaving state untouched, when the snapshot is stale or
// inconsistent.
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
	if st.LastEpoch < total || ck.Epoch+uint64(len(st.Epochs)) != st.LastEpoch {
		return false // snapshot older than local state, or malformed
	}
	// The certified chain commits to the cumulative element count through
	// the checkpoint: the membership index must account for exactly that
	// many elements at or below ck.Epoch (and none beyond LastEpoch), so a
	// peer cannot pad the set with elements hidden below the prune horizon.
	// An element filed under an id that is not its own would land beside the
	// entry the index promised. Every epoch holds at least one element, so
	// the checkpoint covers no more epochs than that count — which also bounds
	// the epoch numbers the index registers by the snapshot's size.
	var below uint64
	for id, m := range st.Members {
		if m.Element == nil || m.Element.ID != id {
			return false
		}
		switch {
		case m.Epoch == 0 || m.Epoch > st.LastEpoch:
			return false
		case m.Epoch <= ck.Epoch:
			below++
		}
	}
	if below != ck.Elements || ck.Epoch > ck.Elements {
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
	// and agreement with local epochs of the same number.
	num := ck.Epoch
	var cost time.Duration
	for _, ep := range st.Epochs {
		num++
		if ep == nil || slices.Contains(ep.Elements, nil) {
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
		cost += time.Duration(len(ep.Elements)) * s.opts.Costs.PerElement
	}
	// The suffix must account for the rest of the membership index: every
	// index entry above the checkpoint names a suffix epoch, and that epoch
	// must actually contain the element — otherwise a peer could smuggle
	// elements into the set through the index while every epoch hash still
	// verified.
	var above uint64
	for _, ep := range st.Epochs {
		for _, el := range ep.Elements {
			if m, ok := st.Members[el.ID]; !ok || m.Epoch != ep.Number {
				return false
			}
			above++
		}
	}
	if below+above != uint64(len(st.Members)) {
		return false
	}
	s.chargeCPU(cost)

	// Adopt: checkpoint chain, suffix history with its proofs as of the
	// seal height, membership through LastEpoch. Each adopted epoch is this
	// server's own copy, its proofs capped at their length: acceptProof
	// appends to them, and the snapshot may be served to other peers too.
	// The index stamps the members at or below the checkpoint an epoch at a
	// time and the suffix through the adopted epochs, whose elements the
	// checks above matched to the rest of the members one for one.
	s.checkpoints = append([]checkpoint.Checkpoint(nil), snap.Chain...)
	s.ckptFold = checkpoint.FoldChain(s.checkpoints)
	s.prunedEpochs = ck.Epoch
	s.prunedElements = ck.Elements
	s.ckptBytes = st.CkptBytes
	s.elems.stampMembers(st.Members, ck.Epoch)
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
		h.installPending(st.PendingSigners, st.LightBatches)
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

// pendingSigners snapshots Hashchain's per-batch ledger signer sets for
// unconsolidated batches, each ascending for deterministic installs.
func (h *hashchainAlg) pendingSigners() map[wire.Digest][]wire.NodeID {
	out := make(map[wire.Digest][]wire.NodeID, len(h.pending))
	for _, r := range h.pending {
		out[wire.DigestOf(r.hash)] = r.signers.ids()
	}
	return out
}

// pendingBatches is what a Light snapshot ships with the pending signer
// sets: the batch of each pending record that has one.
func (h *hashchainAlg) pendingBatches() map[wire.Digest]*wire.Batch {
	out := make(map[wire.Digest]*wire.Batch, len(h.pending))
	for _, r := range h.pending {
		if r.batch != nil {
			out[wire.DigestOf(r.hash)] = r.batch
		}
	}
	return out
}

// installPending replaces the signer state with a snapshot's pending
// sets: signatures in blocks at or below the seal height are invisible to
// the installing node, so the suffix replay must count on top of these.
// Everything else a record holds — content, consolidation, a fetch in
// flight — is this server's own and stays, except that a record without a
// batch takes the one a Light snapshot carries for it. Own-signature memory
// is rebuilt from the sets to avoid double-signing. A signer the registry
// does not know cannot have signed anything and is skipped, and so is a
// hash that is not setcrypto.HashSize long: no hash-batch carries one.
func (h *hashchainAlg) installPending(pending map[wire.Digest][]wire.NodeID, batches map[wire.Digest]*wire.Batch) {
	for len(h.pending) > 0 {
		h.releaseSigners(h.pending[len(h.pending)-1])
	}
	for key, b := range batches {
		if hash := key.Bytes(); len(hash) == setcrypto.HashSize {
			h.rec(hash).register(b)
		}
	}
	for key, ids := range pending {
		hash := key.Bytes()
		if len(hash) != setcrypto.HashSize {
			continue
		}
		r := h.rec(hash)
		for _, id := range ids {
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

// Settled returns the settled-prefix watermark: epochs 1..Settled have
// f+1 proofs locally.
func (s *Server) Settled() uint64 { return s.settled }

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

// forgeSnapshot is the ForgeSnapshot behavior's offer: a deep copy of a
// served snapshot extended with one fabricated checkpoint that "settles"
// the honest suffix plus a forged epoch of bogus elements. The forgery is
// crafted to pass every LOCAL check a behind requester can run —
// internally consistent digests, hashes, and element counts — so before
// the header binding it installed cleanly and smuggled bogus elements into
// the requester's set; the certified fold check rejects it because the
// fabricated chain cannot fold to any quorum-signed commitment. It keeps
// Last.Height, so it is offered exactly when the honest snapshot would be.
func (s *Server) forgeSnapshot(snap *checkpoint.Snapshot, st *SyncState) *checkpoint.Snapshot {
	const bogusN = 3
	forgedNum := st.LastEpoch + 1
	bogus := make([]*wire.Element, 0, bogusN)
	for i := 0; i < bogusN; i++ {
		bogus = append(bogus, bogusElement(0xFD, byte(s.id), byte(forgedNum), byte(i)))
	}
	forgedEp := &Epoch{Number: forgedNum, Elements: bogus}
	forgedEp.Hash = s.epochHashFor(forgedNum, bogus)

	// Fabricated checkpoint covering (Last.Epoch, forgedNum]: chain the
	// honest suffix epochs, then the forged one — internally consistent,
	// provably unsigned.
	ckF, bytes := extendCheckpoint(snap.Last, st.CkptBytes, append(slices.Clip(st.Epochs), forgedEp))

	fst := &SyncState{
		LastEpoch: forgedNum,
		Members:   make(map[wire.ElementID]Member, len(st.Members)+bogusN),
		// Everything is claimed sealed, so no suffix epochs survive the
		// fabricated horizon.
		PendingSigners: st.PendingSigners,
		LightBatches:   st.LightBatches,
		CkptBytes:      bytes,
	}
	maps.Copy(fst.Members, st.Members)
	for _, el := range bogus {
		fst.Members[el.ID] = Member{Element: el, Epoch: forgedNum}
	}
	return &checkpoint.Snapshot{
		Last:  ckF,
		Chain: append(append([]checkpoint.Checkpoint(nil), snap.Chain...), ckF),
		State: fst,
		Bytes: snap.Bytes + bogusN*bogusSize,
	}
}
