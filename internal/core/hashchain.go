package core

import (
	"bytes"
	"encoding/binary"
	"time"

	"repro/internal/batchstore"
	"repro/internal/codec"
	"repro/internal/collector"
	"repro/internal/sim"
	"repro/internal/wire"
)

// hashchainAlg implements Algorithm Hashchain (paper §3), the paper's
// primary contribution: a ready batch is hashed; the batch is stored in the
// local batch store (Register_batch) and the signed 139-byte hash-batch
// ⟨h, sig, v⟩ is appended to the ledger. On seeing a hash-batch in a
// committed block, a server recovers the batch (locally or by Request_batch
// to a signer), verifies it, co-signs the hash, and counts signers; when
// f+1 distinct servers have signed a hash on the ledger the batch
// consolidates into the next epoch.
//
// Two deliberate refinements over the pseudocode (DESIGN.md §3):
//
//   - Signer counting is unconditional (after signature verification) and
//     consolidation position is therefore determined purely by ledger
//     order. The pseudocode only counts a signer after successfully
//     recovering the batch, which lets a Byzantine signer that serves some
//     servers but not others make correct servers consolidate batches in
//     different orders, breaking Consistent-Gets. When the f+1 threshold is
//     reached before the batch is recovered, processing stalls and retries
//     the f+1 signers (at least one is correct and, per the paper's Lemma
//     17, serves the batch), preserving both order and liveness.
//
//   - Batches are prefetched when a hash-batch first enters the mempool,
//     overlapping recovery with consensus instead of paying a fetch RTT
//     inside block processing. The paper's servers achieve the same overlap
//     by handling batch distribution concurrently with CometBFT.
//
// The Light variant removes hash-reversal and validation (paper Fig. 2):
// batches come from a shared oracle store and servers co-sign unseen hashes
// without verification, isolating the hash-reversal bottleneck.
type hashchainAlg struct {
	s   *Server
	seq uint64 // request ids

	hashBuf []byte // scratch for modeled batch hashing, reused across flushes

	signers      map[wire.Digest]map[wire.NodeID]bool
	signedOwn    map[wire.Digest]bool
	contentDone  map[wire.Digest]bool
	proofsDone   map[wire.Digest]bool // proofs extracted at ledger time (once)
	validElems   map[wire.Digest][]*wire.Element
	consolidated map[wire.Digest]bool
	fetches      map[wire.Digest]*fetchState

	// Stats.
	requestsSent   uint64
	requestsServed uint64
	fetchFailures  uint64
	stallRetries   uint64
}

type fetchState struct {
	hash       []byte
	candidates []wire.NodeID
	tried      map[wire.NodeID]bool
	inFlight   bool
	reqID      uint64
	timer      sim.Event
	waiters    []func(ok bool)
}

func newHashchainAlg(s *Server) *hashchainAlg {
	h := &hashchainAlg{
		s:            s,
		signers:      make(map[wire.Digest]map[wire.NodeID]bool),
		signedOwn:    make(map[wire.Digest]bool),
		contentDone:  make(map[wire.Digest]bool),
		proofsDone:   make(map[wire.Digest]bool),
		validElems:   make(map[wire.Digest][]*wire.Element),
		consolidated: make(map[wire.Digest]bool),
		fetches:      make(map[wire.Digest]*fetchState),
	}
	s.coll = collector.New(s.sim, s.opts.CollectorLimit, s.opts.CollectorTimeout, h.flushBatch)
	s.store = batchstore.New()
	return h
}

func (h *hashchainAlg) onAdd(e *wire.Element) { h.s.coll.AddElement(e) }

func (h *hashchainAlg) drain() { h.s.coll.Flush() }

// batchHash computes the canonical hash of a batch: over its full encoding
// in Full mode, over element ids and packed proof identities in Modeled
// mode (same 64-byte digest shape either way). The modeled encoding is
// fixed-width per item, so it is unambiguous without separators, and it is
// built in a scratch buffer reused across flushes.
func (h *hashchainAlg) batchHash(b *wire.Batch) []byte {
	if h.s.opts.Mode == Full {
		return h.s.suite.HashData(codec.EncodeBatch(b))
	}
	buf := h.hashBuf[:0]
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b.Elements)))
	for _, e := range b.Elements {
		buf = append(buf, e.ID[:]...)
	}
	for _, p := range b.Proofs {
		buf = binary.LittleEndian.AppendUint64(buf, p.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Signer))
	}
	h.hashBuf = buf
	return h.s.suite.HashData(buf)
}

// flushBatch is the isReady(batch) handler (pseudocode lines 12-21).
func (h *hashchainAlg) flushBatch(b *wire.Batch) {
	s := h.s
	s.injectBogus(b)
	hash := h.batchHash(b)
	key := wire.DigestOf(hash)
	s.store.Register(hash, b)
	if s.opts.Light && s.opts.SharedStore != nil {
		s.opts.SharedStore.Register(hash, b)
	}
	// Our own elements were validated at Add; cache them as this batch's
	// valid set so consolidation does not re-verify.
	valid := make([]*wire.Element, 0, len(b.Elements))
	for _, e := range b.Elements {
		if s.validElement(e) {
			valid = append(valid, e)
		}
	}
	h.validElems[key] = valid
	h.contentDone[key] = true
	h.signedOwn[key] = true

	s.chargeCPU(time.Duration(b.RawSize())*s.opts.Costs.HashPerByte +
		s.opts.Costs.SignCost + s.opts.Costs.PerBatch)
	hb := &wire.HashBatch{Hash: hash, Sig: s.suite.Sign(s.key, hash), Signer: s.id}
	tx := &wire.Tx{Kind: wire.TxHashBatch, HashBatch: hb}
	if s.rec != nil {
		s.rec.RegisterCarrier(tx.MapKey(), b.Elements)
	}
	s.node.Append(tx)
}

// checkTx validates a hash-batch at mempool admission and prefetches the
// batch so it is usually local by the time the block commits.
func (h *hashchainAlg) checkTx(tx *wire.Tx) bool {
	hb := tx.HashBatch
	if hb == nil || len(hb.Hash) == 0 {
		return false
	}
	h.s.chargeCPU(h.s.opts.Costs.VerifySig)
	if !h.validHashBatchSig(hb) {
		return false
	}
	if !h.s.opts.Light && !h.s.store.Has(hb.Hash) {
		h.prefetch(hb.Hash, hb.Signer)
	}
	return true
}

func (h *hashchainAlg) validHashBatchSig(hb *wire.HashBatch) bool {
	pub := h.s.registry.Lookup(int(hb.Signer))
	if pub == nil {
		return false
	}
	return h.s.suite.Verify(pub, hb.Hash, hb.Sig)
}

// processBlock walks the block's hash-batches strictly in order, keeping
// epoch consolidation deterministic across servers.
func (h *hashchainAlg) processBlock(b *wire.Block, done func()) {
	h.processTx(b.Txs, 0, done)
}

func (h *hashchainAlg) processTx(txs []*wire.Tx, i int, done func()) {
	s := h.s
	// Skip non-hash-batch transactions iteratively (no stack growth).
	for i < len(txs) && txs[i].Kind != wire.TxHashBatch {
		i++
	}
	if i >= len(txs) {
		done()
		return
	}
	hb := txs[i].HashBatch
	next := func() { h.processTx(txs, i+1, done) }
	s.runCosted(s.opts.Costs.VerifySig, func() {
		if !s.opts.Light && !h.validHashBatchSig(hb) {
			next()
			return
		}
		key := wire.DigestOf(hb.Hash)
		if h.consolidated[key] {
			// Signer counting stops at consolidation: the set was released
			// (maybeConsolidate) and late signatures change nothing.
			next()
			return
		}
		set := h.signers[key]
		if set == nil {
			set = make(map[wire.NodeID]bool)
			h.signers[key] = set
		}
		set[hb.Signer] = true
		if s.opts.Light {
			h.lightProcess(hb, key, next)
			return
		}
		if s.store.Has(hb.Hash) {
			h.withContent(key, hb.Hash, next)
			return
		}
		// Batch missing. Before the f+1 threshold a bounded recovery
		// attempt suffices (pseudocode lines 26-29: continue on failure);
		// at or past the threshold the batch MUST be recovered to keep
		// consolidation order consistent, so retry until success.
		mustHave := len(set) >= s.opts.F+1
		h.fetch(hb.Hash, hb.Signer, func(ok bool) {
			if ok {
				h.withContent(key, hb.Hash, next)
				return
			}
			if !mustHave {
				h.fetchFailures++
				next()
				return
			}
			h.stallRetries++
			s.sim.After(s.opts.RetryBackoff, func() {
				h.retryUntilRecovered(key, hb.Hash, next)
			})
		})
	})
}

func (h *hashchainAlg) retryUntilRecovered(key wire.Digest, hash []byte, next func()) {
	if h.s.store.Has(hash) {
		h.withContent(key, hash, next)
		return
	}
	// The batch MUST be recovered (f+1 signers, >= 1 correct): clear the
	// failure memory so all candidates are retried from scratch.
	if st := h.fetches[key]; st != nil && !st.inFlight {
		st.tried = make(map[wire.NodeID]bool)
	}
	h.fetch(hash, -1, func(ok bool) {
		if ok {
			h.withContent(key, hash, next)
			return
		}
		h.stallRetries++
		h.s.sim.After(h.s.opts.RetryBackoff, func() {
			h.retryUntilRecovered(key, hash, next)
		})
	})
}

// lightProcess handles a hash-batch with hash-reversal disabled: co-sign
// without verification; batch content comes from the shared oracle.
func (h *hashchainAlg) lightProcess(hb *wire.HashBatch, key wire.Digest, next func()) {
	s := h.s
	if !s.store.Has(hb.Hash) && s.opts.SharedStore != nil {
		if b := s.opts.SharedStore.Get(hb.Hash); b != nil {
			s.store.Register(hb.Hash, b)
		}
	}
	if !h.signedOwn[key] {
		h.signedOwn[key] = true
		s.chargeCPU(s.opts.Costs.SignCost)
		own := &wire.HashBatch{Hash: hb.Hash, Sig: s.suite.Sign(s.key, hb.Hash), Signer: s.id}
		s.node.Append(&wire.Tx{Kind: wire.TxHashBatch, HashBatch: own})
	}
	if b := s.store.Get(hb.Hash); b != nil && h.contentDone[key] {
		h.extractProofsOnce(key, b)
	}
	if b := s.store.Get(hb.Hash); b != nil && !h.contentDone[key] {
		h.contentDone[key] = true
		valid := b.Elements // Light: all servers correct, skip validation
		h.validElems[key] = valid
		cost := time.Duration(len(valid)) * s.opts.Costs.PerElement
		s.runCosted(cost, func() {
			h.extractProofsOnce(key, b)
			for _, e := range valid {
				s.elems.Add(e)
			}
			h.maybeConsolidate(key)
			next()
		})
		return
	}
	h.maybeConsolidate(key)
	next()
}

// extractProofsOnce records a batch's epoch-proofs the first time the
// batch is observed ON THE LEDGER. This is separate from contentDone
// because a server's own batches have their elements validated at Add time
// (contentDone is pre-set at flush) while their proofs still only count
// once a block carries the batch's hash.
func (h *hashchainAlg) extractProofsOnce(key wire.Digest, b *wire.Batch) {
	if h.proofsDone[key] {
		return
	}
	h.proofsDone[key] = true
	for _, p := range b.Proofs {
		h.s.acceptProof(p)
	}
}

// withContent runs content extraction (once), co-signing (once) and the
// consolidation check for a locally available batch, then continues.
func (h *hashchainAlg) withContent(key wire.Digest, hash []byte, next func()) {
	s := h.s
	b := s.store.Get(hash)
	if b == nil { // raced with nothing: treat as recovery failure
		next()
		return
	}
	if h.contentDone[key] {
		h.extractProofsOnce(key, b)
		h.cosignAndConsolidate(key, hash, next)
		return
	}
	h.contentDone[key] = true
	// First contact with this batch's content: verify every element (the
	// per-element cost that produces the paper's ~20k el/s ceiling) and
	// extract proofs.
	cost := time.Duration(len(b.Elements))*(s.opts.Costs.VerifyElement+s.opts.Costs.PerElement) +
		s.opts.Costs.PerBatch
	s.runCosted(cost, func() {
		valid := make([]*wire.Element, 0, len(b.Elements))
		for _, e := range b.Elements {
			if s.validElement(e) {
				valid = append(valid, e)
			}
		}
		h.validElems[key] = valid
		h.extractProofsOnce(key, b)
		for _, e := range valid {
			s.elems.Add(e)
		}
		h.cosignAndConsolidate(key, hash, next)
	})
}

func (h *hashchainAlg) cosignAndConsolidate(key wire.Digest, hash []byte, next func()) {
	s := h.s
	if !h.signedOwn[key] {
		h.signedOwn[key] = true
		s.chargeCPU(s.opts.Costs.SignCost)
		own := &wire.HashBatch{Hash: hash, Sig: s.suite.Sign(s.key, hash), Signer: s.id}
		s.node.Append(&wire.Tx{Kind: wire.TxHashBatch, HashBatch: own})
	}
	h.maybeConsolidate(key)
	next()
}

// maybeConsolidate performs epoch consolidation once f+1 distinct servers
// have signed the hash on the ledger and the content is known.
func (h *hashchainAlg) maybeConsolidate(key wire.Digest) {
	s := h.s
	if h.consolidated[key] || !h.contentDone[key] {
		return
	}
	if len(h.signers[key]) < s.opts.F+1 {
		return
	}
	h.consolidated[key] = true
	// Release the signer set: consolidation position is fixed, and keeping
	// only unconsolidated sets is what lets state-sync ship exactly the
	// pending signatures (pendingSigners in checkpointing.go).
	delete(h.signers, key)
	g := make([]*wire.Element, 0, len(h.validElems[key]))
	for _, e := range h.validElems[key] {
		if s.elems.Epoch(e.ID) == 0 {
			g = append(g, e)
		}
	}
	delete(h.validElems, key)
	if len(g) == 0 {
		return // proof-only batch: no epoch (quiescence, see vanillaAlg)
	}
	p := s.createEpoch(g)
	s.coll.AddProof(p)
}

// --- batch recovery (Request_batch) ---

// prefetch starts recovery for a hash first seen in the mempool.
func (h *hashchainAlg) prefetch(hash []byte, signer wire.NodeID) {
	key := wire.DigestOf(hash)
	if h.fetches[key] != nil || h.consolidated[key] {
		return
	}
	h.fetch(hash, signer, func(bool) {})
}

// fetch recovers the batch for hash, trying candidate signers one at a time
// with RequestTimeout each, and calls cb exactly once. hint names a known
// signer to try first (-1 for none); known ledger signers are also tried.
func (h *hashchainAlg) fetch(hash []byte, hint wire.NodeID, cb func(ok bool)) {
	if h.s.store.Has(hash) {
		cb(true)
		return
	}
	key := wire.DigestOf(hash)
	st := h.fetches[key]
	if st == nil {
		st = &fetchState{hash: hash, tried: make(map[wire.NodeID]bool)}
		h.fetches[key] = st
	}
	if hint >= 0 && hint != h.s.id {
		st.addCandidate(hint)
	}
	for signer := range h.signers[key] {
		if signer != h.s.id {
			st.addCandidate(signer)
		}
	}
	st.waiters = append(st.waiters, cb)
	if !st.inFlight {
		h.tryNextCandidate(st)
	}
}

func (st *fetchState) addCandidate(id wire.NodeID) {
	for _, c := range st.candidates {
		if c == id {
			return
		}
	}
	st.candidates = append(st.candidates, id)
}

func (h *hashchainAlg) tryNextCandidate(st *fetchState) {
	var target wire.NodeID = -1
	for _, c := range st.candidates {
		if !st.tried[c] {
			target = c
			break
		}
	}
	if target < 0 {
		h.failFetch(st)
		return
	}
	st.tried[target] = true
	st.inFlight = true
	h.seq++
	st.reqID = h.seq
	h.requestsSent++
	h.s.node.Send(target, &batchstore.Request{Hash: st.hash, ReqID: st.reqID},
		batchstore.RequestWireSize)
	reqID := st.reqID
	st.timer = h.s.sim.After(h.s.opts.RequestTimeout, func() {
		if st.inFlight && st.reqID == reqID {
			st.inFlight = false
			h.tryNextCandidate(st)
		}
	})
}

// resolveFetch completes a successful recovery: the batch is registered,
// so the state can be discarded entirely.
func (h *hashchainAlg) resolveFetch(st *fetchState, ok bool) {
	delete(h.fetches, wire.DigestOf(st.hash))
	st.timer.Cancel()
	waiters := st.waiters
	st.waiters = nil
	for _, w := range waiters {
		w(ok)
	}
}

// failFetch reports failure to the current waiters but RETAINS the state
// with its tried set: a later fetch for the same hash fails immediately
// unless a new candidate signer has appeared since. Without this, every
// hash-batch from a Byzantine server that withholds its batch would cost a
// full request timeout inside the strictly ordered block-processing
// pipeline — enough sustained chatter would starve epoch processing.
// The post-quorum recovery path resets the tried set explicitly.
func (h *hashchainAlg) failFetch(st *fetchState) {
	st.inFlight = false
	st.timer.Cancel()
	waiters := st.waiters
	st.waiters = nil
	for _, w := range waiters {
		w(false)
	}
}

// onAppMsg handles the Request_batch protocol traffic.
func (h *hashchainAlg) onAppMsg(from wire.NodeID, payload any, size int) {
	switch msg := payload.(type) {
	case *batchstore.Request:
		h.serveRequest(from, msg)
	case *batchstore.Response:
		h.handleResponse(from, msg)
	}
}

func (h *hashchainAlg) serveRequest(from wire.NodeID, req *batchstore.Request) {
	s := h.s
	if s.behavior != nil && s.behavior.RefuseServe != nil &&
		s.behavior.RefuseServe(int(from), req.Hash) {
		return // Byzantine silence: requester's timeout handles it
	}
	b := s.store.Get(req.Hash)
	resp := &batchstore.Response{Hash: req.Hash, ReqID: req.ReqID, Found: b != nil, Batch: b}
	if b != nil && s.behavior != nil && s.behavior.ServeWrongBatch {
		wrong := &wire.Batch{Elements: append([]*wire.Element(nil), b.Elements...)}
		junk := &wire.Element{Size: 438, Bogus: true}
		junk.ID[0] = 0xEE
		wrong.Elements = append(wrong.Elements, junk)
		resp.Batch = wrong
	}
	h.requestsServed++
	s.chargeCPU(s.opts.Costs.PerBatch)
	s.node.Send(from, resp, resp.ResponseWireSize())
}

func (h *hashchainAlg) handleResponse(from wire.NodeID, resp *batchstore.Response) {
	s := h.s
	key := wire.DigestOf(resp.Hash)
	st := h.fetches[key]
	if st == nil || !st.inFlight || st.reqID != resp.ReqID {
		return // stale or unsolicited
	}
	st.inFlight = false
	st.timer.Cancel()
	if !resp.Found || resp.Batch == nil {
		h.tryNextCandidate(st)
		return
	}
	// Verify Hash(batch_original) == h before accepting (pseudocode line
	// 28); a Byzantine server may serve a wrong batch.
	batch := resp.Batch
	cost := time.Duration(batch.RawSize()) * s.opts.Costs.HashPerByte
	s.runCosted(cost, func() {
		if !bytes.Equal(h.batchHash(batch), resp.Hash) {
			h.tryNextCandidate(st)
			return
		}
		s.store.Register(resp.Hash, batch)
		h.resolveFetch(st, true)
	})
}

// HashchainStats exposes recovery counters for experiments and tests.
type HashchainStats struct {
	RequestsSent   uint64
	RequestsServed uint64
	FetchFailures  uint64
	StallRetries   uint64
	Consolidated   int
}

// HashchainStats returns hash-reversal counters; zero value for other
// algorithms.
func (s *Server) HashchainStats() HashchainStats {
	h, ok := s.alg.(*hashchainAlg)
	if !ok {
		return HashchainStats{}
	}
	return HashchainStats{
		RequestsSent:   h.requestsSent,
		RequestsServed: h.requestsServed,
		FetchFailures:  h.fetchFailures,
		StallRetries:   h.stallRetries,
		Consolidated:   len(h.consolidated),
	}
}
