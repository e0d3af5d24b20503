// Package consensus implements a Tendermint-style Byzantine fault tolerant
// consensus engine, the core of this repo's CometBFT substitute. It follows
// the structure of Tendermint/CometBFT consensus (Buchman, Kwon, Milosevic,
// "The latest gossip on BFT consensus"):
//
//   - heights decided one at a time, each through one or more rounds;
//   - rotating proposers; a proposal carries the full block;
//   - two voting phases (prevote, precommit) with 2f+1-of-3f+1 quorums;
//   - value locking: once a validator precommits a block it only prevotes
//     that block — or a later-round re-proposal of the same transactions —
//     until a newer quorum releases it; a locked proposer re-proposes its
//     locked value (the simplified proof-of-lock rule), which keeps the
//     cluster live when message loss splits a round's locks;
//   - timeouts with per-round escalation to skip faulty proposers;
//   - catch-up: a validator that observes a precommit quorum for a block it
//     never received requests the block from a voter.
//
// Tolerates f < n/3 Byzantine validators, the bound the paper notes for
// CometBFT (the Setchain layer above only needs f < n/2 of its own model).
//
// Block pacing follows the paper's measured deployment: one block roughly
// every 1.25 s (block rate ~0.8 blocks/s), enforced as a minimum
// start-to-start interval between heights.
//
// The package is four files: this one holds the messages, Params, Node and
// its accessors; round.go the heights, rounds, votes, locks and commit;
// catchup.go block requests, the future-message buffer, certified blocks
// and the retry backoff; statesync.go the StateSyncer seam, offers, chunks
// and install. See DESIGN.md §4 (ledger stack).
package consensus

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"repro/internal/abci"
	"repro/internal/checkpoint"
	"repro/internal/mempool"
	"repro/internal/netsim"
	"repro/internal/setcrypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Step is the phase of the current round.
type Step uint8

// Round steps in order.
const (
	StepPropose Step = iota
	StepPrevote
	StepPrecommit
)

// VoteType distinguishes the two voting phases.
type VoteType uint8

// Vote phases.
const (
	VotePrevote VoteType = iota
	VotePrecommit
)

func (v VoteType) String() string {
	if v == VotePrevote {
		return "prevote"
	}
	return "precommit"
}

// nilBlockID is the vote value meaning "no block this round".
const nilBlockID = ""

// Proposal is the proposer's block announcement for (height, round).
type Proposal struct {
	Height   uint64
	Round    int32
	Block    *wire.Block
	BlockID  string
	Proposer wire.NodeID
	Sig      []byte
}

// Vote is a prevote or precommit for a block id (or nil) at (height, round).
type Vote struct {
	Height  uint64
	Round   int32
	Type    VoteType
	BlockID string
	Voter   wire.NodeID
	Sig     []byte
}

// BlockRequest asks a peer for the proposal behind a blockID the requester
// saw a precommit quorum for but never received. An empty BlockID asks for
// whatever block was DECIDED at that height (deep catch-up after an
// outage); such responses must carry a commit certificate.
type BlockRequest struct {
	Height  uint64
	BlockID string
}

// BlockResponse answers a BlockRequest. Commit carries the 2f+1 precommit
// votes certifying the decision when the request had no blockID; the
// requester verifies every signature before committing.
type BlockResponse struct {
	Proposal *Proposal
	Commit   []*Vote
}

// SyncOffer answers a deep catch-up BlockRequest the peer can no longer
// serve block-by-block (the height is below its prune horizon, or outside
// its decided-proposal window). The offer carries only the snapshot's
// identity, checkpoint chain, and the certified block header binding that
// chain (a decided proposal whose CkptEpoch/CkptFold equal the snapshot's,
// plus its 2f+1 precommit certificate); the state itself transfers in
// fixed-size chunks (SyncChunkRequest/SyncChunk) so bandwidth caps and link
// faults shape real state-sync latency. The requester verifies the
// certificate and the fold binding BEFORE fetching a single chunk.
type SyncOffer struct {
	Snapshot *checkpoint.Snapshot
	// Proposal/Commit certify the header that binds the snapshot's chain:
	// Proposal.Block.CkptEpoch == Snapshot.Last.Epoch and
	// Proposal.Block.CkptFold == checkpoint.FoldChain(Snapshot.Chain).
	Proposal *Proposal
	Commit   []*Vote
	// Chunks and ChunkBytes describe the transfer: Chunks fixed-size
	// envelopes of ChunkBytes each (the last possibly smaller), covering
	// Snapshot.Bytes modeled bytes in total.
	Chunks     int
	ChunkBytes int
}

// SyncChunkRequest asks the offering peer for one snapshot chunk. Epoch
// and Fold name the snapshot (its Last.Epoch and chain fold) so a stale
// request cannot pull chunks of a different snapshot.
type SyncChunkRequest struct {
	Epoch uint64
	Fold  uint64
	Seq   int
}

// SyncChunk is one fixed-size slice of a snapshot transfer. Size is the
// modeled payload bytes charged through netsim; Sum is the per-chunk
// digest the requester verifies before accepting the chunk (the
// simulation ships state by reference in the offer, so the digest models
// per-chunk hash verification).
type SyncChunk struct {
	Epoch uint64
	Fold  uint64
	Seq   int
	Size  int
	Sum   uint64
}

// voteWireSize approximates a consensus vote's bytes on the wire.
const voteWireSize = 120

// proposalOverhead is the proposal envelope beyond the block's tx bytes.
const proposalOverhead = 200

// CometBFT's round timeouts, fixed as in the paper's deployment.
const (
	// TimeoutCommit is CometBFT's post-commit wait before starting the
	// next height, so the inter-block interval is consensus latency +
	// TimeoutCommit. 1.24 s yields the paper's ~0.8 blocks/s on a LAN and,
	// as in the real system, the block rate degrades as network delay
	// stretches consensus.
	TimeoutCommit = 1240 * time.Millisecond
	// TimeoutPropose is how long validators wait for a proposal in round 0
	// before prevoting nil; each later round adds TimeoutDelta.
	TimeoutPropose = 3 * time.Second
	// TimeoutPrevote / TimeoutPrecommit bound the voting phases after a
	// quorum of conflicting/absent votes is seen.
	TimeoutPrevote   = time.Second
	TimeoutPrecommit = time.Second
	// TimeoutDelta is the per-round escalation added to each timeout.
	TimeoutDelta = 500 * time.Millisecond
)

// Params configures the engine. Build it from PaperParams and override
// fields: NewNode uses every field as given and refuses the zero Params.
type Params struct {
	// MaxBlockBytes is the ledger block size C (PaperParams: 0.5 MiB).
	MaxBlockBytes int
	// SyncChunkBytes is the fixed chunk size of state-sync snapshot
	// transfers (PaperParams: 64 KiB). Snapshots ship as ceil(Bytes/chunk)
	// envelopes, each charged through netsim individually.
	SyncChunkBytes int
}

// PaperParams returns the evaluation configuration (C = 0.5 MiB; with
// TimeoutCommit, one block every 1.25 s).
func PaperParams() Params {
	return Params{
		MaxBlockBytes:  512 * 1024,
		SyncChunkBytes: 64 * 1024,
	}
}

// ProposalMutator lets a Byzantine validator rewrite the transactions of
// blocks it proposes (e.g. to inject invalid Setchain elements, the attack
// the paper's algorithms must filter in FinalizeBlock).
type ProposalMutator func(txs []*wire.Tx) []*wire.Tx

// decision is a committed height's proposal and the precommit certificate
// this node observed for it (nil when the block arrived already certified
// by a peer).
type decision struct {
	prop *Proposal
	cert []*Vote
}

// Node is one validator's consensus state machine.
type Node struct {
	id         wire.NodeID
	validators []wire.NodeID
	sim        *sim.Simulator
	net        *netsim.Network
	params     Params
	suite      setcrypto.Suite
	key        setcrypto.KeyPair
	registry   *setcrypto.Registry
	pool       *mempool.Mempool
	app        abci.Application

	height    uint64
	round     int32
	step      Step
	proposals map[int32]*Proposal
	votes     map[int32]*roundVotes
	lockedID  string
	// lockedProposal is the proposal behind lockedID, nil when the lock
	// came from votes alone. Proposals are bound to their round (the
	// blockID hashes it), so liveness under message loss needs the VALUE:
	// a locked proposer re-proposes the locked transactions in the new
	// round, and other validators recognize the re-proposal by its valueID
	// even though its blockID differs (the simplified form of Tendermint's
	// proof-of-lock re-proposal).
	lockedProposal *Proposal

	// chain holds committed blocks for heights chainBase+1..chainBase+len;
	// blocks at or below chainBase were pruned under a checkpoint horizon
	// (SetRetainHorizon) or skipped by a state-sync install, and are
	// covered by the application's checkpoint digests instead. chainBase
	// is 0 until either happens.
	chain     []*wire.Block
	chainBase uint64
	// decisions retains recently committed heights so lagging peers can
	// catch up after this node advanced.
	decisions map[uint64]decision
	decided   bool // current height decided, waiting for next-height start

	// syncer is the application's checkpoint state-sync hook (nil = no
	// state-sync; deep catch-up then only works within the decided window).
	syncer StateSyncer
	// syncRejects counts state-sync offers dropped by the certified-header
	// verification (bad certificate, or a chain that does not fold to the
	// certified commitment) — the forged-snapshot defense firing.
	syncRejects uint64
	// trustOffers skips that verification (BreakHeaderBindForTest).
	trustOffers bool

	// Serve side of chunked state-sync: servableSnap is the newest local
	// snapshot for which a commit certificate binding its chain fold was
	// observed (commit() refreshes it); servableProp/servableCert are that
	// certificate. serveSnap/serveFold name the snapshot most recently
	// offered — the chunk source — which from a Byzantine application is a
	// forgery of servableSnap.
	servableSnap *checkpoint.Snapshot
	servableProp *Proposal
	servableCert []*Vote
	serveSnap    *checkpoint.Snapshot
	serveFold    uint64

	// Fetch side of chunked state-sync: the offer being assembled, nil
	// when no transfer is in flight. The catch-up retry timer doubles as
	// the resumption engine — a lost chunk is re-requested on the next
	// retry tick, resuming at the received count instead of restarting.
	fetch *syncFetch

	// Deep catch-up state: the highest height observed in buffered future
	// messages and whether a certified-block request is in flight.
	// catchupRetries counts consecutive unproductive retries for the
	// bounded exponential backoff; catchupRng is its jitter stream, a
	// dedicated sim.ChildSeed stream drawn from ONLY on actual retries so
	// runs where every catch-up resolves first try draw nothing from it.
	futureHeight   uint64
	futureSender   wire.NodeID
	catchupPending bool
	catchupRetries int
	catchupRng     *rand.Rand
	stopped        bool
	mutator        ProposalMutator

	// bcast, when set, replaces the per-validator send loop for
	// proposal/vote fan-out (the mesh transport seam, DESIGN.md §13).
	// Catch-up request/response traffic always stays point-to-point.
	bcast func(payload any, size int)

	futureMsgs []any // buffered messages for heights beyond the current one

	idHash  hash.Hash // the suite's stream, reused by every blockID/valueID
	keyBuf  []byte    // scratch for one transaction's key or a header, reused
	signBuf []byte    // scratch for vote/proposal sign bytes, reused across calls

	// Stats.
	roundsUsed  uint64
	catchupReqs uint64
	emptyBlocks uint64
}

// NewNode constructs a validator whose application is abci.NopApplication
// until SetApp installs one. Call Start once the network is wired.
func NewNode(id wire.NodeID, validators []wire.NodeID, s *sim.Simulator, net *netsim.Network,
	params Params, suite setcrypto.Suite, key setcrypto.KeyPair, registry *setcrypto.Registry,
	pool *mempool.Mempool) *Node {
	if params == (Params{}) {
		panic("consensus: zero Params; start from consensus.PaperParams()")
	}
	return &Node{
		decisions:  make(map[uint64]decision),
		id:         id,
		validators: append([]wire.NodeID(nil), validators...),
		sim:        s,
		net:        net,
		params:     params,
		suite:      suite,
		idHash:     suite.NewHash(),
		key:        key,
		registry:   registry,
		pool:       pool,
		app:        abci.NopApplication{},
		height:     1,
		proposals:  make(map[int32]*Proposal),
		votes:      make(map[int32]*roundVotes),
		lockedID:   nilBlockID,
		// No catch-up target until a future message names one; the zero
		// value would silently be node 0, which on a shared fabric belongs
		// to another group.
		futureSender: -1,
	}
}

// SetApp installs the application committed blocks are finalized into.
func (n *Node) SetApp(app abci.Application) { n.app = app }

// SetProposalMutator installs a Byzantine proposal rewrite (tests/faults).
func (n *Node) SetProposalMutator(m ProposalMutator) { n.mutator = m }

// SetStateSyncer installs the application's checkpoint state-sync hook.
func (n *Node) SetStateSyncer(s StateSyncer) { n.syncer = s }

// SetBroadcaster installs the transport used for proposal/vote fan-out.
// nil (the default) keeps the per-validator send loop; the mesh transport
// installs its Gossip publish here. Point-to-point catch-up traffic is
// unaffected either way.
func (n *Node) SetBroadcaster(b func(payload any, size int)) { n.bcast = b }

// SetRetainHorizon prunes committed blocks and decided
// proposals/certificates at or below the given height (the latest
// checkpoint's seal height): lagging peers below the horizon recover via
// state-sync snapshots instead of block replay. Monotone; lower horizons
// are no-ops.
func (n *Node) SetRetainHorizon(h uint64) {
	if h <= n.chainBase {
		return
	}
	drop := h - n.chainBase
	if drop > uint64(len(n.chain)) {
		drop = uint64(len(n.chain))
	}
	// Fresh backing array so the pruned prefix's blocks are collectable.
	n.chain = append([]*wire.Block(nil), n.chain[drop:]...)
	for ht := n.chainBase + 1; ht <= h; ht++ {
		delete(n.decisions, ht)
	}
	n.chainBase = h
}

// Params returns the node's parameters.
func (n *Node) Params() Params { return n.params }

// faults is f, the largest number of Byzantine validators the set
// tolerates (n >= 3f+1).
func (n *Node) faults() int { return (len(n.validators) - 1) / 3 }

// Quorum returns the 2f+1 vote threshold for the validator set.
func (n *Node) Quorum() int { return 2*n.faults() + 1 }

// Chain returns the retained committed blocks in order: heights
// ChainBase()+1 onward (all heights from 1 when nothing was pruned).
func (n *Node) Chain() []*wire.Block { return n.chain }

// ChainBase returns the height below which committed blocks were pruned
// (or skipped by state-sync); 0 means the chain is complete from height 1.
func (n *Node) ChainBase() uint64 { return n.chainBase }

// HeightCommitted returns the number of heights this node has committed or
// adopted via checkpoint install (ChainBase + retained blocks).
func (n *Node) HeightCommitted() uint64 { return n.chainBase + uint64(len(n.chain)) }

// SyncRejects returns how many state-sync offers this node rejected at
// the certified-header check (forged or unprovable snapshots).
func (n *Node) SyncRejects() uint64 { return n.syncRejects }

// RoundsUsed returns the cumulative number of extra rounds consumed (0 when
// every height decides in round 0).
func (n *Node) RoundsUsed() uint64 { return n.roundsUsed }

// CatchupRequests returns how many block-recovery requests this node sent.
func (n *Node) CatchupRequests() uint64 { return n.catchupReqs }

// EmptyBlocks returns how many committed blocks carried no transactions.
func (n *Node) EmptyBlocks() uint64 { return n.emptyBlocks }

// Stop freezes the node (end of experiment).
func (n *Node) Stop() { n.stopped = true }

// Start schedules the first height.
func (n *Node) Start() {
	n.sim.After(0, func() { n.enterHeight(1) })
}

// broadcast sends a consensus message to every other validator of this
// group. The explicit list — rather than netsim's whole-fabric Broadcast —
// keeps a group's consensus traffic inside the group when several groups
// share one network (sharded worlds); validators are id-ascending, so the
// send order (and with it every downstream random draw) matches what
// Broadcast produced for a single-group fabric.
func (n *Node) broadcast(payload any, size int) {
	if n.bcast != nil {
		n.bcast(payload, size)
		return
	}
	for _, v := range n.validators {
		if v != n.id {
			n.net.Send(n.id, v, payload, size)
		}
	}
}

// isValidator reports whether id belongs to this group's validator set.
func (n *Node) isValidator(id wire.NodeID) bool {
	for _, v := range n.validators {
		if v == id {
			return true
		}
	}
	return false
}

// proposalSignBytes renders a proposal's canonical signing bytes into the
// node's scratch buffer. The result is only valid until the next
// *SignBytes call — callers hand it straight to Sign/Verify, which do not
// retain their message argument.
func (n *Node) proposalSignBytes(p *Proposal) []byte {
	buf := n.signBuf[:0]
	buf = binary.LittleEndian.AppendUint64(buf, p.Height)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Round))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Proposer))
	buf = append(buf, p.BlockID...)
	n.signBuf = buf
	return buf
}

// voteSignBytes renders a vote's canonical signing bytes into the node's
// scratch buffer; same lifetime contract as proposalSignBytes.
func (n *Node) voteSignBytes(v *Vote) []byte {
	buf := n.signBuf[:0]
	buf = binary.LittleEndian.AppendUint64(buf, v.Height)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Round))
	buf = append(buf, byte(v.Type))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Voter))
	buf = append(buf, v.BlockID...)
	n.signBuf = buf
	return buf
}

// validVote reports whether v comes from a validator of this group and
// carries that validator's signature.
func (n *Node) validVote(v *Vote) bool {
	if !n.isValidator(v.Voter) {
		return false
	}
	pub := n.registry.Lookup(int(v.Voter))
	return pub != nil && n.suite.Verify(pub, n.voteSignBytes(v), v.Sig)
}

// Receive is the network entry point for all consensus payloads. Messages
// from outside the validator set are dropped before touching any state:
// when several consensus groups share one fabric (sharded worlds,
// internal/shard), a foreign group's proposals and votes must not leak in
// — an accepted foreign proposal would, among other damage, poison the
// deep catch-up target (futureSender) with a node that serves a different
// chain — and a non-validator has no standing in this group's consensus
// regardless.
func (n *Node) Receive(from wire.NodeID, payload any) {
	if n.stopped {
		return
	}
	if !n.isValidator(from) {
		return
	}
	switch msg := payload.(type) {
	case *Proposal:
		n.handleProposal(msg)
	case *Vote:
		n.handleVote(msg)
	case *BlockRequest:
		n.handleBlockRequest(from, msg)
	case *BlockResponse:
		if len(msg.Commit) > 0 {
			n.handleCertifiedBlock(msg)
			return
		}
		if msg.Proposal != nil {
			n.handleProposal(msg.Proposal)
		}
	case *SyncOffer:
		n.handleSyncOffer(from, msg)
	case *SyncChunkRequest:
		n.handleSyncChunkRequest(from, msg)
	case *SyncChunk:
		n.handleSyncChunk(msg)
	}
}

// String summarizes the node state for diagnostics.
func (n *Node) String() string {
	return fmt.Sprintf("consensus[%d h=%d r=%d step=%d chain=%d]",
		n.id, n.height, n.round, n.step, len(n.chain))
}
