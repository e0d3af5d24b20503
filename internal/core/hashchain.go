package core

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"time"

	"repro/internal/codec"
	"repro/internal/collector"
	"repro/internal/setcrypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Request_batch recovery timing (DESIGN.md §3).
const (
	// RequestTimeout bounds one Request_batch attempt (the paper: "waits
	// for a limited amount of time").
	RequestTimeout = 2 * time.Second
	// RetryBackoff spaces retry cycles when a batch with f+1 signatures
	// must be recovered before epoch processing can continue.
	RetryBackoff = 500 * time.Millisecond
)

// hashchainAlg implements Algorithm Hashchain (paper §3), the paper's
// primary contribution: a ready batch is hashed; the batch is stored in its
// batch record (Register_batch) and the signed 139-byte hash-batch
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
// The Light variant removes the cost of hash reversal and validation (paper
// Fig. 2), isolating the hash-reversal bottleneck: the origin's hash-batch
// carries its batch (wire.HashBatch.Batch, never counted on the wire), and
// servers co-sign without checking the signature and charge nothing for
// element validation, though they still drop invalid elements.
//
// Every batch costs n hash-batch transactions and every one of them is
// processed by n servers, so the step below runs n² times per batch. It is
// kept to one map probe on a word and no allocation: everything a server
// knows about a batch hash lives in one batchRec, and the walk over a block
// is one cursor whose callback is bound once (DESIGN.md §3).
type hashchainAlg struct {
	s   *Server
	seq uint64 // request ids

	hashBuf []byte // scratch for modeled batch hashing, reused across flushes

	// recs holds one record per batch hash this server has met, in a block,
	// in its mempool or in a snapshot, keyed by the hash's first word
	// (recKey); records whose first words collide are chained through next,
	// and a hit is confirmed against the whole hash. Every hash here is
	// setcrypto.HashSize long: checkTx, step and installPending turn away
	// any other length before a lookup. Records are never deleted. With
	// each record's batch it is the server's hash→batch map, the
	// pseudocode's hash_to_batch.
	recs map[uint64]*batchRec
	// pending lists the records with a non-empty signer set, in no
	// particular order: what a state-sync snapshot ships (pendingSigners).
	pending []*batchRec

	// cur walks the block being processed. A server processes one block at
	// a time (Server.processing), so one cursor serves; stepFn is its step
	// method bound once, handed to the CPU resource as it is.
	cur    blockCursor
	stepFn func()

	// Stats.
	requestsSent   uint64
	requestsServed uint64
	fetchFailures  uint64
	stallRetries   uint64
	consolidated   int
}

// batchRec is one server's whole state for one batch hash.
type batchRec struct {
	hash []byte
	next *batchRec // the next record whose hash has the same first word
	// batch is the batch's content once this server has it: from its own
	// flush, a verified fetch response or, under Light, the origin's
	// hash-batch (register). Nil until then; never replaced once set.
	batch *wire.Batch
	// valid is the batch's valid elements between content extraction and
	// consolidation.
	valid []*wire.Element
	// fetch is the recovery in progress or the memory of a failed one; nil
	// otherwise.
	fetch *fetchState
	// signers is the set of servers whose hash-batch for this hash has been
	// seen on the ledger. Consolidation releases it; a state-sync install
	// replaces it. pendIdx is the record's position in hashchainAlg.pending
	// while the set is non-empty.
	signers nodeSet
	pendIdx int

	signedOwn    bool // own hash-batch appended (or seen in a snapshot)
	contentDone  bool // elements validated and added to the_set
	proofsDone   bool // proofs extracted at ledger time (once)
	consolidated bool
}

// nodeSet is a set of node ids as a bitset indexed by id, grown on demand.
// Ids are registry-known by the time they get here — a ledger signer passed
// validHashBatchSig, a snapshot's signer passes installPending's lookup — so
// they are small and non-negative (servers are FirstID+i).
type nodeSet struct {
	words []uint64
	n     int
}

func (s *nodeSet) has(id wire.NodeID) bool {
	w := int(id >> 6)
	return w < len(s.words) && s.words[w]&(1<<(id&63)) != 0
}

func (s *nodeSet) add(id wire.NodeID) {
	w := int(id >> 6)
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	if bit := uint64(1) << (id & 63); s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.n++
	}
}

// ids returns the members in ascending order.
func (s *nodeSet) ids() []wire.NodeID {
	out := make([]wire.NodeID, 0, s.n)
	for w, word := range s.words {
		for ; word != 0; word &= word - 1 {
			out = append(out, wire.NodeID(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return out
}

// blockCursor is the position of block processing: txs[i] is the next
// transaction to look at, done what to call after the last.
type blockCursor struct {
	txs  []*wire.Tx
	i    int
	done func()
}

type fetchState struct {
	rec        *batchRec
	candidates []wire.NodeID
	tried      nodeSet
	inFlight   bool
	reqID      uint64
	timer      sim.Event
	waiters    []func(ok bool)
}

func newHashchainAlg(s *Server) *hashchainAlg {
	h := &hashchainAlg{s: s, recs: make(map[uint64]*batchRec)}
	h.stepFn = h.step
	s.coll = collector.New(s.sim, s.opts.CollectorLimit, h.flushBatch)
	return h
}

// recKey is a batch hash's key in recs: its first word. A 64-byte hash has
// its entropy spread over every word (a FastSuite digest is one word
// expanded), so the word alone spreads the records; the rest of the hash
// only confirms a hit.
func recKey(hash []byte) uint64 { return binary.LittleEndian.Uint64(hash) }

// lookup returns the record for a batch hash, or nil if there is none. A
// hash of any length but setcrypto.HashSize is a miss: no record has one.
func (h *hashchainAlg) lookup(hash []byte) *batchRec {
	if len(hash) != setcrypto.HashSize {
		return nil
	}
	for r := h.recs[recKey(hash)]; r != nil; r = r.next {
		if bytes.Equal(r.hash, hash) {
			return r
		}
	}
	return nil
}

// rec returns the record for a batch hash, creating it on first sight. The
// hash must be setcrypto.HashSize long.
func (h *hashchainAlg) rec(hash []byte) *batchRec {
	if r := h.lookup(hash); r != nil {
		return r
	}
	if len(hash) != setcrypto.HashSize {
		panic("core: a batch record for a hash that is not setcrypto.HashSize long")
	}
	k := recKey(hash)
	r := &batchRec{hash: hash, next: h.recs[k]}
	h.recs[k] = r
	return r
}

// register is Register_batch: the first batch registered for a hash stands.
func (r *batchRec) register(b *wire.Batch) {
	if r.batch == nil {
		r.batch = b
	}
}

// addSigner counts id as a ledger signer of r.
func (h *hashchainAlg) addSigner(r *batchRec, id wire.NodeID) {
	if r.signers.n == 0 {
		r.pendIdx = len(h.pending)
		h.pending = append(h.pending, r)
	}
	r.signers.add(id)
}

// releaseSigners empties r's signer set and takes r off the pending list.
func (h *hashchainAlg) releaseSigners(r *batchRec) {
	if r.signers.n == 0 {
		return
	}
	last := len(h.pending) - 1
	moved := h.pending[last]
	h.pending[r.pendIdx] = moved
	moved.pendIdx = r.pendIdx
	h.pending[last] = nil
	h.pending = h.pending[:last]
	r.signers = nodeSet{}
}

func (h *hashchainAlg) onAdd(e *wire.Element) { h.s.coll.AddElement(e) }

// fits is always true: a batch travels off the ledger, which carries only
// its 139-byte hash-batch.
func (h *hashchainAlg) fits(*wire.Element) bool { return true }

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
	r := h.rec(hash)
	r.register(b)
	// Our own elements were validated at Add; cache them as this batch's
	// valid set so consolidation does not re-verify.
	r.valid = s.valid(b.Elements)
	r.contentDone = true
	r.signedOwn = true

	s.chargeCPU(time.Duration(b.RawSize())*s.opts.Costs.HashPerByte +
		s.opts.Costs.SignCost + s.opts.Costs.PerBatch)
	hb := &wire.HashBatch{Hash: hash, Sig: s.suite.Sign(s.key, hash), Signer: s.id}
	if s.opts.Light {
		hb.Batch = b
	}
	tx := wire.NewHashBatchTx(hb)
	if s.rec != nil {
		s.rec.RegisterCarrier(tx.MapKey(), b.Elements)
	}
	s.node.Append(tx)
}

// checkTx admits hash-batches and prefetches the batch so it is usually
// local by the time the block commits.
//
// A hash that is not setcrypto.HashSize long is refused before anything
// else: no batch hashes to it, so no server could ever recover its batch.
func (h *hashchainAlg) checkTx(tx *wire.Tx) bool {
	hb := tx.HashBatch
	if tx.Kind != wire.TxHashBatch || hb == nil || len(hb.Hash) != setcrypto.HashSize {
		return false
	}
	h.s.chargeCPU(h.s.opts.Costs.VerifySig)
	if !h.validHashBatchSig(hb) {
		return false
	}
	if !h.s.opts.Light {
		if r := h.rec(hb.Hash); r.batch == nil {
			h.prefetch(r, hb.Signer)
		}
	}
	return true
}

// validHashBatchSig reports whether hb carries its signer's signature of its
// hash. Every server meets the same hash-batch twice, at admission and in a
// block; the first check of the shared object records its verdict, and every
// later one reads it (wire.Verdict). The callers charge the modeled cost.
func (h *hashchainAlg) validHashBatchSig(hb *wire.HashBatch) bool {
	reg := h.s.registry
	if hb.Verified.Holds(reg, hb) {
		return true
	}
	pub := reg.Lookup(int(hb.Signer))
	if pub == nil || !h.s.suite.Verify(pub, hb.Hash, hb.Sig) {
		return false
	}
	hb.Verified.Record(reg, hb)
	return true
}

// processBlock walks the block's hash-batches strictly in order, keeping
// epoch consolidation deterministic across servers.
func (h *hashchainAlg) processBlock(b *wire.Block, done func()) {
	h.cur = blockCursor{txs: b.Txs, done: done}
	h.next()
}

// next submits the step for the block's next hash-batch, or finishes the
// block. Every path out of step reaches it exactly once — directly, or
// through the one callback fetch owes each caller — which is what lets one
// cursor stand in for a chain of continuations.
func (h *hashchainAlg) next() {
	c := &h.cur
	for c.i < len(c.txs) && c.txs[c.i].Kind != wire.TxHashBatch {
		c.i++
	}
	if c.i >= len(c.txs) {
		done := c.done
		h.cur = blockCursor{}
		done() // may start the next block, which resets the cursor
		return
	}
	h.s.runCosted(h.s.opts.Costs.VerifySig, h.stepFn)
}

// step processes the hash-batch under the cursor: count its signer, make
// sure the batch is local, extract its content (once), co-sign (once),
// consolidate at f+1 signers.
func (h *hashchainAlg) step() {
	s := h.s
	hb := h.cur.txs[h.cur.i].HashBatch
	h.cur.i++
	// A hash of the wrong length is skipped like a bad signature (checkTx
	// refuses both, but a Byzantine proposer's block carries what it likes).
	if len(hb.Hash) != setcrypto.HashSize || !s.opts.Light && !h.validHashBatchSig(hb) {
		h.next()
		return
	}
	r := h.rec(hb.Hash)
	if r.consolidated {
		// Signer counting stops at consolidation: the set was released
		// (maybeConsolidate) and late signatures change nothing.
		h.next()
		return
	}
	h.addSigner(r, hb.Signer)
	if s.opts.Light {
		// Only the origin's hash-batch carries the batch, and every server
		// processes it before any co-signature of the hash: a co-signer
		// signs only after processing a hash-batch for it.
		r.register(hb.Batch)
		h.lightProcess(r)
		return
	}
	if r.batch != nil {
		h.withContent(r)
		return
	}
	// Batch missing. Before the f+1 threshold a bounded recovery
	// attempt suffices (pseudocode lines 26-29: continue on failure);
	// at or past the threshold the batch MUST be recovered to keep
	// consolidation order consistent, so retry until success.
	mustHave := r.signers.n >= s.opts.F+1
	h.fetch(r, hb.Signer, func(ok bool) {
		if ok {
			h.withContent(r)
			return
		}
		if !mustHave {
			h.fetchFailures++
			h.next()
			return
		}
		h.stallRetries++
		s.sim.After(RetryBackoff, func() { h.retryUntilRecovered(r) })
	})
}

func (h *hashchainAlg) retryUntilRecovered(r *batchRec) {
	if r.batch != nil {
		h.withContent(r)
		return
	}
	// The batch MUST be recovered (f+1 signers, >= 1 correct): clear the
	// failure memory so all candidates are retried from scratch.
	if st := r.fetch; st != nil && !st.inFlight {
		st.tried = nodeSet{}
	}
	h.fetch(r, -1, func(ok bool) {
		if ok {
			h.withContent(r)
			return
		}
		h.stallRetries++
		h.s.sim.After(RetryBackoff, func() { h.retryUntilRecovered(r) })
	})
}

// lightProcess handles a hash-batch with hash reversal disabled: co-sign
// without verification; the content is the batch the record holds, whose
// invalid elements are dropped as withContent drops them, at no cost.
func (h *hashchainAlg) lightProcess(r *batchRec) {
	s := h.s
	b := r.batch
	h.cosign(r)
	if b != nil && !r.contentDone {
		r.contentDone = true
		valid := s.valid(b.Elements)
		r.valid = valid
		cost := time.Duration(len(valid)) * s.opts.Costs.PerElement
		s.runCosted(cost, func() {
			h.extractProofsOnce(r, b)
			s.elems.addBatch(valid)
			h.maybeConsolidate(r)
			h.next()
		})
		return
	}
	if b != nil {
		h.extractProofsOnce(r, b)
	}
	h.maybeConsolidate(r)
	h.next()
}

// extractProofsOnce records a batch's epoch-proofs the first time the
// batch is observed ON THE LEDGER. This is separate from contentDone
// because a server's own batches have their elements validated at Add time
// (contentDone is pre-set at flush) while their proofs still only count
// once a block carries the batch's hash.
func (h *hashchainAlg) extractProofsOnce(r *batchRec, b *wire.Batch) {
	if r.proofsDone {
		return
	}
	r.proofsDone = true
	for _, p := range b.Proofs {
		h.s.acceptProof(p)
	}
}

// withContent runs content extraction (once), co-signing (once) and the
// consolidation check for a locally available batch, then continues.
func (h *hashchainAlg) withContent(r *batchRec) {
	s := h.s
	b := r.batch
	if b == nil { // raced with nothing: treat as recovery failure
		h.next()
		return
	}
	if r.contentDone {
		h.extractProofsOnce(r, b)
		h.cosignAndConsolidate(r)
		return
	}
	r.contentDone = true
	// First contact with this batch's content: verify every element (the
	// per-element cost that produces the paper's ~20k el/s ceiling) and
	// extract proofs.
	cost := time.Duration(len(b.Elements))*(s.opts.Costs.VerifyElement+s.opts.Costs.PerElement) +
		s.opts.Costs.PerBatch
	s.runCosted(cost, func() {
		r.valid = s.valid(b.Elements)
		h.extractProofsOnce(r, b)
		s.elems.addBatch(r.valid)
		h.cosignAndConsolidate(r)
	})
}

// cosign appends this server's own hash-batch for r, once.
func (h *hashchainAlg) cosign(r *batchRec) {
	if r.signedOwn {
		return
	}
	s := h.s
	r.signedOwn = true
	s.chargeCPU(s.opts.Costs.SignCost)
	own := &wire.HashBatch{Hash: r.hash, Sig: s.suite.Sign(s.key, r.hash), Signer: s.id}
	s.node.Append(wire.NewHashBatchTx(own))
}

func (h *hashchainAlg) cosignAndConsolidate(r *batchRec) {
	h.cosign(r)
	h.maybeConsolidate(r)
	h.next()
}

// maybeConsolidate performs epoch consolidation once f+1 distinct servers
// have signed the hash on the ledger and the content is known.
func (h *hashchainAlg) maybeConsolidate(r *batchRec) {
	s := h.s
	if r.consolidated || !r.contentDone || r.signers.n < s.opts.F+1 {
		return
	}
	r.consolidated = true
	h.consolidated++
	// Release the signer set: consolidation position is fixed, and keeping
	// only unconsolidated sets is what lets state-sync ship exactly the
	// pending signatures (pendingSigners in checkpointing.go).
	h.releaseSigners(r)
	valid := r.valid
	r.valid = nil
	// A proof-only or fully duplicate batch makes no epoch (quiescence, see
	// vanillaAlg).
	if p := s.createEpoch(valid); p != nil {
		s.coll.AddProof(p)
	}
}

// --- batch recovery (Request_batch) ---

// prefetch starts recovery for a hash first seen in the mempool.
func (h *hashchainAlg) prefetch(r *batchRec, signer wire.NodeID) {
	if r.fetch != nil || r.consolidated {
		return
	}
	h.fetch(r, signer, func(bool) {})
}

// fetch recovers r's batch, trying candidate signers one at a time with
// RequestTimeout each, and calls cb exactly once — block processing parks
// its cursor on that promise (next). hint names a known signer to try first
// (-1 for none); known ledger signers follow in ascending id order.
func (h *hashchainAlg) fetch(r *batchRec, hint wire.NodeID, cb func(ok bool)) {
	if r.batch != nil {
		cb(true)
		return
	}
	st := r.fetch
	if st == nil {
		st = &fetchState{rec: r}
		r.fetch = st
	}
	if hint >= 0 && hint != h.s.id {
		st.addCandidate(hint)
	}
	for _, signer := range r.signers.ids() {
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
		if !st.tried.has(c) {
			target = c
			break
		}
	}
	if target < 0 {
		h.failFetch(st)
		return
	}
	st.tried.add(target)
	st.inFlight = true
	h.seq++
	st.reqID = h.seq
	h.requestsSent++
	h.s.node.Send(target, &batchRequest{hash: st.rec.hash, reqID: st.reqID}, batchRequestWireSize)
	reqID := st.reqID
	st.timer = h.s.sim.After(RequestTimeout, func() {
		if st.inFlight && st.reqID == reqID {
			st.inFlight = false
			h.tryNextCandidate(st)
		}
	})
}

// resolveFetch completes a successful recovery: the batch is in the record,
// so the state can be discarded entirely.
func (h *hashchainAlg) resolveFetch(st *fetchState) {
	st.rec.fetch = nil
	st.timer.Cancel()
	waiters := st.waiters
	st.waiters = nil
	for _, w := range waiters {
		w(true)
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

// batchRequest asks the receiver for the batch whose hash is hash
// (Request_batch). reqID lets the requester correlate the response and
// detect late replies.
type batchRequest struct {
	hash  []byte
	reqID uint64
}

// batchRequestWireSize is the bytes a batch request occupies on the network.
const batchRequestWireSize = 80

// batchResponse answers a batchRequest with the batch, or with a nil batch
// when the receiver does not have it (a Byzantine server may also never
// answer).
type batchResponse struct {
	hash  []byte
	reqID uint64
	batch *wire.Batch
}

// wireSize is the response's network footprint.
func (r *batchResponse) wireSize() int {
	if r.batch == nil {
		return 96
	}
	return 96 + r.batch.RawSize()
}

// onAppMsg handles the Request_batch protocol traffic.
func (h *hashchainAlg) onAppMsg(from wire.NodeID, payload any, size int) {
	switch msg := payload.(type) {
	case *batchRequest:
		h.serveRequest(from, msg)
	case *batchResponse:
		h.handleResponse(from, msg)
	}
}

func (h *hashchainAlg) serveRequest(from wire.NodeID, req *batchRequest) {
	s := h.s
	if s.behavior != nil && s.behavior.RefuseServe != nil &&
		s.behavior.RefuseServe(int(from), req.hash) {
		return // Byzantine silence: requester's timeout handles it
	}
	// A plain lookup: a request must not create a record.
	var b *wire.Batch
	if r := h.lookup(req.hash); r != nil {
		b = r.batch
	}
	resp := &batchResponse{hash: req.hash, reqID: req.reqID, batch: b}
	if b != nil && s.behavior != nil && s.behavior.ServeWrongBatch {
		// A copy: the stored batch is shared with every server and epoch.
		wrong := &wire.Batch{Elements: append([]*wire.Element(nil), b.Elements...)}
		wrong.Elements = append(wrong.Elements, bogusElement(0xEE))
		resp.batch = wrong
	}
	h.requestsServed++
	s.chargeCPU(s.opts.Costs.PerBatch)
	s.node.Send(from, resp, resp.wireSize())
}

func (h *hashchainAlg) handleResponse(from wire.NodeID, resp *batchResponse) {
	s := h.s
	// A plain lookup: an unsolicited response must not create a record.
	r := h.lookup(resp.hash)
	if r == nil {
		return
	}
	st := r.fetch
	if st == nil || !st.inFlight || st.reqID != resp.reqID {
		return // stale or unsolicited
	}
	st.inFlight = false
	st.timer.Cancel()
	if resp.batch == nil {
		h.tryNextCandidate(st)
		return
	}
	// Verify Hash(batch_original) == h before accepting (pseudocode line
	// 28); a Byzantine server may serve a wrong batch.
	batch := resp.batch
	cost := time.Duration(batch.RawSize()) * s.opts.Costs.HashPerByte
	s.runCosted(cost, func() {
		if !bytes.Equal(h.batchHash(batch), resp.hash) {
			h.tryNextCandidate(st)
			return
		}
		st.rec.register(batch)
		h.resolveFetch(st)
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
		Consolidated:   h.consolidated,
	}
}
