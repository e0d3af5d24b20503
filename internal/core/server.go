package core

import (
	"errors"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/collector"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/setcrypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Errors returned by Add.
var (
	ErrInvalidElement = errors.New("setchain: invalid element")
	ErrDuplicate      = errors.New("setchain: element already in the_set")
	ErrAdmission      = errors.New("setchain: admission control refused element (mempool saturated)")
	ErrTooLarge       = errors.New("setchain: element too large for a ledger transaction")
)

// Epoch is one entry of the Setchain history: an epoch number, the set of
// elements stamped with it, and the epoch-proofs this server has accepted for
// it. Elements keep their ledger order so all servers hash the epoch
// identically. Elements is read-only: an epoch made of a whole batch is the
// batch's own slice, the same array on every server (filter), and only an
// epoch some element was dropped from is a copy. The Epoch struct itself is
// one server's own, since Proofs grows as that server accepts proofs.
type Epoch struct {
	Number   uint64
	Elements []*wire.Element
	Hash     []byte // canonical Hash(number, elements)
	// Proofs holds one valid proof per distinct signer, in acceptance order
	// (acceptProof). The epoch is committed once it holds f+1. createEpoch
	// sizes it for n, the most a run collects.
	Proofs []*wire.EpochProof
}

// Snapshot is the result of S.get(): (the_set, history, epoch, proofs), the
// proofs riding on their epochs (Epoch.Proofs). It is a zero-copy view of
// live server state, valid until the next simulator event; callers must
// treat it as read-only.
type Snapshot struct {
	Server wire.NodeID
	// TheSet is the server's own element index, not a copy. Even reading it
	// moves its cursor, so read it where the server's events run or after
	// the run, never beside them.
	TheSet  *ElemIndex
	History []*Epoch
	Epoch   uint64
	// PrunedEpochs is the settled prefix dropped below the checkpoint
	// horizon: History[0] is epoch PrunedEpochs+1 and Epoch counts the
	// pruned prefix too. Zero when pruning never ran.
	PrunedEpochs uint64
	// PrunedElements is the element count of the pruned prefix — equal to
	// the latest checkpoint's cumulative Elements.
	PrunedElements uint64
	// Checkpoints is the server's sealed checkpoint chain, ascending
	// (empty when checkpointing is off).
	Checkpoints []checkpoint.Checkpoint
}

// algorithm is the per-variant behavior behind the shared server machinery.
type algorithm interface {
	// onAdd runs after a valid fresh element entered the_set.
	onAdd(e *wire.Element)
	// fits reports whether the algorithm can put e on the ledger: whether
	// the transaction that carries e alone is no larger than the pools
	// accept (mempool.Mempool.MaxTxBytes).
	fits(e *wire.Element) bool
	// checkTx is ABCI CheckTx: it admits the algorithm's own transaction
	// kinds, charging their verification, and refuses every other kind.
	checkTx(tx *wire.Tx) bool
	// processBlock handles one committed block and calls done when state
	// is fully updated (Hashchain may stall on batch recovery in between).
	processBlock(b *wire.Block, done func())
	// drain flushes any pending collector content (experiment shutdown).
	drain()
}

// Server is one Setchain server: the replicated application installed on a
// ledger node, plus the algorithm-specific pipeline.
type Server struct {
	id   wire.NodeID
	n    int
	opts Options
	sim  *sim.Simulator
	cpu  *sim.Resource
	node *ledger.Node

	suite    setcrypto.Suite
	key      setcrypto.KeyPair
	registry *setcrypto.Registry

	// Setchain state (paper §2): the_set, history, epoch, proofs. elems is
	// the_set and the id→epoch index over history in one container; each
	// epoch carries its own proofs.
	elems   ElemIndex
	history []*Epoch

	// Checkpointing state (checkpointing.go). history is base-offset:
	// history[i] is epoch prunedEpochs+i+1; epochs at or below
	// prunedEpochs live only in the checkpoint digests. settled is the
	// contiguous prefix with f+1 proofs; curHeight the block being
	// processed (seal heights are part of the replicated state).
	settled        uint64
	checkpoints    []checkpoint.Checkpoint
	prunedEpochs   uint64
	prunedElements uint64
	ckptBytes      uint64 // modeled element bytes in epochs 1..last checkpoint
	curHeight      uint64
	syncState      *checkpoint.Snapshot
	syncInstalls   uint64
	// ckptFold caches checkpoint.FoldChain(checkpoints) — the header
	// commitment proposers stamp — maintained incrementally at each seal
	// and recomputed on a state-sync install.
	ckptFold uint64

	epochBuf []byte // scratch for epochHashFor's input, reused across epochs

	alg      algorithm
	coll     *collector.Collector
	rec      *metrics.Recorder
	behavior *Behavior

	// Ordered block processing: FinalizeBlock enqueues; blocks are
	// processed strictly in order, possibly asynchronously (CPU cost,
	// batch recovery stalls).
	blockQueue []*wire.Block
	processing bool

	// Stats.
	addsAccepted uint64
	addsRejected uint64
	blocksSeen   uint64
	epochsMade   uint64
	proofsMade   uint64
}

// newServer creates a Setchain server on a ledger node with the options
// Deploy completed. The server installs itself as the node's ABCI
// application and app-message handler.
func newServer(node *ledger.Node, s *sim.Simulator, n int, suite setcrypto.Suite,
	key setcrypto.KeyPair, registry *setcrypto.Registry, opts Options) *Server {
	srv := &Server{
		id:       node.ID,
		n:        n,
		opts:     opts,
		sim:      s,
		cpu:      s.NewResource("setchain-cpu"),
		node:     node,
		suite:    suite,
		key:      key,
		registry: registry,
		ckptFold: checkpoint.Seed(),
	}
	switch opts.Algorithm {
	case Vanilla:
		srv.alg = &vanillaAlg{s: srv}
	case Compresschain:
		srv.alg = newCompressAlg(srv)
	case Hashchain:
		srv.alg = newHashchainAlg(srv)
	default:
		panic("core: unknown algorithm")
	}
	node.SetAppMsgHandler(srv.onAppMsg)
	return srv
}

// SetRecorder attaches experiment metrics.
func (s *Server) SetRecorder(r *metrics.Recorder) { s.rec = r }

// SetBehavior installs Byzantine behavior (nil = correct).
func (s *Server) SetBehavior(b *Behavior) { s.behavior = b }

// ID returns the server's node id.
func (s *Server) ID() wire.NodeID { return s.id }

// Options returns the options the server runs with.
func (s *Server) Options() Options { return s.opts }

// CPU exposes the server's simulated CPU resource (diagnostics).
func (s *Server) CPU() *sim.Resource { return s.cpu }

// Add implements S.add_v(e): validate, insert into the_set, and hand the
// element to the algorithm pipeline (direct append for Vanilla, collector
// for Compresschain/Hashchain).
func (s *Server) Add(e *wire.Element) error {
	if !s.validElement(e) {
		s.addsRejected++
		return ErrInvalidElement
	}
	if s.elems.Has(e.ID) {
		s.addsRejected++
		return ErrDuplicate
	}
	// An element no transaction can carry would never commit: refuse it
	// here, so its client knows, rather than lose it in a refused
	// transaction.
	if !s.alg.fits(e) {
		s.addsRejected++
		return ErrTooLarge
	}
	// Admission gate (DESIGN.md §14): refused elements never enter
	// the_set or any collector, so they structurally cannot commit — the
	// invariant checker's rejected-ID scan is the independent witness.
	if !s.node.AdmitElement() {
		s.addsRejected++
		return ErrAdmission
	}
	s.elems.Add(e)
	s.addsAccepted++
	addCost := s.opts.Costs.VerifyElement + s.opts.Costs.PerElement
	if s.opts.Light {
		// The Light ablations remove the cost of element validation; the
		// check above still runs.
		addCost = s.opts.Costs.PerElement
	}
	s.chargeCPU(addCost)
	s.alg.onAdd(e)
	return nil
}

// Get implements S.get_v(): the current (the_set, history, epoch, proofs).
func (s *Server) Get() Snapshot {
	return Snapshot{
		Server:         s.id,
		TheSet:         &s.elems,
		History:        s.history,
		Epoch:          s.prunedEpochs + uint64(len(s.history)),
		PrunedEpochs:   s.prunedEpochs,
		PrunedElements: s.prunedElements,
		Checkpoints:    s.checkpoints,
	}
}

// Drain flushes pending collector content so in-flight elements reach the
// ledger after clients stop adding (experiment shutdown).
func (s *Server) Drain() { s.alg.drain() }

// --- ABCI ---

// CheckTx validates transactions at mempool admission on every node: the
// algorithm admits its own transaction kinds and refuses every other.
func (s *Server) CheckTx(tx *wire.Tx) bool { return s.alg.checkTx(tx) }

// FinalizeBlock receives committed blocks in ledger order and feeds the
// ordered processing queue.
func (s *Server) FinalizeBlock(b *wire.Block) {
	s.blocksSeen++
	if s.rec != nil {
		s.rec.BlockCommitted(s.id, b)
	}
	s.blockQueue = append(s.blockQueue, b)
	if !s.processing {
		s.processNext()
	}
}

func (s *Server) processNext() {
	// Seal at the block boundary, never mid-block: the settled watermark
	// may have advanced while the just-finished block's txs were processed,
	// but a snapshot frozen mid-block would miss the block's remaining txs
	// — a restarted peer installs the snapshot and replays from Height+1,
	// so proofs and signatures in the tail of the seal block would be lost
	// to it forever (its settled prefix would stall). Sealing here makes
	// "state as of the seal height" exact.
	s.maybeSeal()
	if len(s.blockQueue) == 0 {
		s.processing = false
		return
	}
	s.processing = true
	b := s.blockQueue[0]
	s.blockQueue = s.blockQueue[1:]
	// Blocks are processed strictly in order, so every state change during
	// this block's (possibly asynchronous) processing — including a
	// checkpoint seal — happens at this height on every correct server.
	s.curHeight = b.Height
	s.alg.processBlock(b, s.processNext)
}

func (s *Server) onAppMsg(from wire.NodeID, payload any, size int) {
	if h, ok := s.alg.(*hashchainAlg); ok {
		h.onAppMsg(from, payload, size)
	}
}

// --- shared machinery ---

// chargeCPU books fire-and-forget occupancy on the server's CPU, delaying
// later cost-gated work.
func (s *Server) chargeCPU(d time.Duration) {
	if d > 0 {
		s.cpu.Submit(d, nil)
	}
}

// runCosted executes fn after the given CPU cost clears the server's queue.
// Zero cost still round-trips through the resource to preserve FIFO order
// with earlier costed work.
func (s *Server) runCosted(d time.Duration, fn func()) {
	s.cpu.Submit(d, fn)
}

// validElement is the paper's valid_element(e): clients sign elements, and
// only authenticated valid elements are processed by correct servers.
func (s *Server) validElement(e *wire.Element) bool {
	if e == nil || e.Size <= 0 {
		return false
	}
	if s.opts.Mode == Full {
		pub := s.registry.Lookup(int(e.Client) + clientKeyOffset(s.n))
		if pub == nil {
			return false
		}
		return s.suite.Verify(pub, e.SigningBytes(), e.Sig())
	}
	return !e.Bogus
}

// clientKeyOffset maps client ids into the PKI registry's id space, after
// the n server ids.
func clientKeyOffset(n int) int { return n }

// epochHashFor computes the canonical epoch hash Hash(i, history[i]). The
// input is built in the server's scratch buffer: HashData does not retain it.
func (s *Server) epochHashFor(number uint64, elems []*wire.Element) []byte {
	s.epochBuf = wire.AppendEpochHashInput(s.epochBuf[:0], number, elems)
	return s.suite.HashData(s.epochBuf)
}

// filter returns the elements of elems that keep accepts, in order; keep is
// called once per element, in order. When it accepts them all the result is
// elems itself, capped at its length so that an append to the result can
// never write into the array behind elems; otherwise it is a fresh slice
// that shares nothing with elems. A batch's Elements are frozen once hashed
// (wire.Batch), so the common case — nothing dropped — makes an epoch the
// batch's own slice on every server instead of a copy per server.
func filter(elems []*wire.Element, keep func(*wire.Element) bool) []*wire.Element {
	for i, e := range elems {
		if !keep(e) {
			return filterFrom(elems, i, keep)
		}
	}
	return elems[:len(elems):len(elems)]
}

// filterFrom is filter's result once keep has accepted elems[:i] and
// refused elems[i]: a fresh slice. A hot loop that calls its own keep
// directly, rather than through a func value, and hands over here at the
// first refusal keeps filter's rule without an indirect call per element.
func filterFrom(elems []*wire.Element, i int, keep func(*wire.Element) bool) []*wire.Element {
	out := append(make([]*wire.Element, 0, len(elems)-1), elems[:i]...)
	for _, e := range elems[i+1:] {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// valid returns the valid elements of elems (filter's aliasing rule applies).
func (s *Server) valid(elems []*wire.Element) []*wire.Element {
	return filter(elems, s.validElement)
}

// createEpoch makes the next epoch of those of the given valid elements that
// no epoch holds yet, in their given order, and returns its epoch-proof
// signed by this server — or nil, creating nothing, when none is fresh. The
// index stamps as it filters (ElemIndex.stampEpoch): a second occurrence of
// an id within elems meets the first one's stamp and is dropped like any
// other element already in history.
func (s *Server) createEpoch(elems []*wire.Element) *wire.EpochProof {
	number := s.prunedEpochs + uint64(len(s.history)) + 1
	g := s.elems.stampEpoch(number, elems)
	if len(g) == 0 {
		return nil
	}
	hash := s.epochHashFor(number, g)
	s.history = append(s.history, &Epoch{Number: number, Elements: g, Hash: hash,
		Proofs: make([]*wire.EpochProof, 0, s.n)})
	s.epochsMade++
	signHash := hash
	if s.behavior != nil && s.behavior.CorruptProofs {
		signHash = s.suite.HashData([]byte("corrupt"), hash)
	}
	p := &wire.EpochProof{
		Epoch:     number,
		EpochHash: signHash,
		Sig:       s.suite.Sign(s.key, signHash),
		Signer:    s.id,
	}
	s.proofsMade++
	s.chargeCPU(s.opts.Costs.SignCost + time.Duration(len(g))*s.opts.Costs.PerElement)
	return p
}

// acceptProof implements valid_proof(j, p, w, history[j]) and records the
// proof. Returns whether the proof was valid and new.
func (s *Server) acceptProof(p *wire.EpochProof) bool {
	if p == nil || p.Epoch <= s.prunedEpochs {
		// At or below the checkpoint horizon the epoch is settled and its
		// proofs are folded into the checkpoint digest; late copies carry
		// no information.
		return false
	}
	if p.Epoch > s.prunedEpochs+uint64(len(s.history)) {
		return false
	}
	ep := s.history[p.Epoch-1-s.prunedEpochs]
	s.chargeCPU(s.opts.Costs.VerifySig)
	if !wire.VerifyEpochProof(s.suite, s.registry, p, ep.Hash) {
		return false
	}
	for _, q := range ep.Proofs {
		if q.Signer == p.Signer {
			return false
		}
	}
	ep.Proofs = append(ep.Proofs, p)
	if len(ep.Proofs) == s.opts.F+1 && s.rec != nil {
		s.rec.EpochCommitted(s.id, ep.Number, ep.Elements)
	}
	// Any checkpoint interval the settled prefix crosses is sealed at the
	// end of the current block (processNext), never here — a mid-block seal
	// would freeze a snapshot that cuts the block in two.
	s.settle()
	return true
}

// settle advances the settled prefix over the epochs that hold f+1 proofs.
func (s *Server) settle() {
	top := s.prunedEpochs + uint64(len(s.history))
	for s.settled < top && len(s.history[s.settled-s.prunedEpochs].Proofs) >= s.opts.F+1 {
		s.settled++
	}
}

// injectBogus appends Byzantine junk elements to a batch when configured. It
// runs on the server's own fresh batch before the batch is hashed or
// compressed — the last moment anything may change one (wire.Batch).
func (s *Server) injectBogus(b *wire.Batch) {
	if s.behavior == nil || s.behavior.InjectBogusElements == 0 {
		return
	}
	for i := 0; i < s.behavior.InjectBogusElements; i++ {
		b.Elements = append(b.Elements,
			bogusElement(0xBB, byte(s.id), byte(s.epochsMade), byte(i), byte(s.blocksSeen)))
	}
}

// bogusSize is a Byzantine junk element's size: the paper's ~438-byte
// average element.
const bogusSize = 438

// bogusElement builds an invalid element whose ID begins with the given
// bytes. The first is the attack's marker — 0xBB injected into batches,
// 0xEE in a wrong served batch, 0xFD in a forged snapshot — so the
// attacks' elements never collide.
func bogusElement(id ...byte) *wire.Element {
	e := &wire.Element{Client: wire.ClientID(-1), Size: bogusSize, Bogus: true}
	copy(e.ID[:], id)
	return e
}

// Stats returns server counters.
func (s *Server) Stats() (adds, rejects, blocks, epochs uint64) {
	return s.addsAccepted, s.addsRejected, s.blocksSeen, s.epochsMade
}
