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
// See DESIGN.md §4 (ledger stack).
package consensus

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"sort"
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
// its decided-proposal window). It replaces the old single-blob
// SyncResponse: the offer carries only the snapshot's identity, checkpoint
// chain, and the certified block header binding that chain (a decided
// proposal whose CkptEpoch/CkptFold equal the snapshot's, plus its 2f+1
// precommit certificate); the state itself transfers in fixed-size chunks
// (SyncChunkRequest/SyncChunk) so bandwidth caps and link faults shape
// real state-sync latency. The requester verifies the certificate and the
// fold binding BEFORE fetching a single chunk.
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

// chunkSum is the modeled per-chunk digest: snapshot identity + sequence
// + size, folded with the checkpoint digest idiom.
func chunkSum(fold uint64, seq, size int) uint64 {
	h := checkpoint.Mix64(checkpoint.Seed(), fold)
	h = checkpoint.Mix64(h, uint64(seq))
	return checkpoint.Mix64(h, uint64(size))
}

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
// the verified offer, the serving peer, and the received-chunk bitmap
// that makes the transfer resumable — a re-offer or retry resumes from
// the first missing chunk instead of restarting.
type syncFetch struct {
	snap       *checkpoint.Snapshot
	from       wire.NodeID
	epoch      uint64
	fold       uint64
	chunks     int
	chunkBytes int
	got        []bool
	ngot       int
}

// next returns the first missing chunk sequence (chunks are requested one
// at a time, ascending, so this is also the resume point).
func (f *syncFetch) next() int {
	for i, ok := range f.got {
		if !ok {
			return i
		}
	}
	return -1
}

// syncChunkCount is the envelope count for a snapshot of size bytes.
func syncChunkCount(bytes, chunkBytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + chunkBytes - 1) / chunkBytes
}

// voteWireSize approximates a consensus vote's bytes on the wire.
const voteWireSize = 120

// proposalOverhead is the proposal envelope beyond the block's tx bytes.
const proposalOverhead = 200

// Params configures the engine. Build it from PaperParams and override
// fields: NewNode uses every field as given and refuses the zero Params.
type Params struct {
	// MaxBlockBytes is the ledger block size C (PaperParams: 0.5 MiB).
	MaxBlockBytes int
	// TimeoutCommit is CometBFT's post-commit wait before starting the
	// next height, so the inter-block interval is consensus latency +
	// TimeoutCommit. 1.24 s yields the paper's ~0.8 blocks/s on a LAN and,
	// as in the real system, the block rate degrades as network delay
	// stretches consensus.
	TimeoutCommit time.Duration
	// TimeoutPropose is how long validators wait for a proposal in round 0
	// before prevoting nil; each later round adds TimeoutDelta.
	TimeoutPropose time.Duration
	// TimeoutPrevote / TimeoutPrecommit bound the voting phases after a
	// quorum of conflicting/absent votes is seen.
	TimeoutPrevote   time.Duration
	TimeoutPrecommit time.Duration
	// TimeoutDelta is the per-round escalation added to each timeout.
	TimeoutDelta time.Duration
	// SyncChunkBytes is the fixed chunk size of state-sync snapshot
	// transfers (PaperParams: 64 KiB). Snapshots ship as ceil(Bytes/chunk)
	// envelopes, each charged through netsim individually.
	SyncChunkBytes int
}

// PaperParams returns the evaluation configuration (C = 0.5 MiB, one block
// every 1.25 s).
func PaperParams() Params {
	return Params{
		MaxBlockBytes:    512 * 1024,
		TimeoutCommit:    1240 * time.Millisecond,
		TimeoutPropose:   3 * time.Second,
		TimeoutPrevote:   time.Second,
		TimeoutPrecommit: time.Second,
		TimeoutDelta:     500 * time.Millisecond,
		SyncChunkBytes:   64 * 1024,
	}
}

// ProposalMutator lets a Byzantine validator rewrite the transactions of
// blocks it proposes (e.g. to inject invalid Setchain elements, the attack
// the paper's algorithms must filter in FinalizeBlock).
type ProposalMutator func(txs []*wire.Tx) []*wire.Tx

// CommitListener observes committed blocks (metrics, tests).
type CommitListener func(node wire.NodeID, b *wire.Block)

type roundVotes struct {
	votes  [2]map[string]map[wire.NodeID]*Vote // by VoteType: blockID -> voter -> vote
	voters [2]map[wire.NodeID]bool             // distinct voters per type
}

func newRoundVotes() *roundVotes {
	rv := &roundVotes{}
	for i := range rv.votes {
		rv.votes[i] = make(map[string]map[wire.NodeID]*Vote)
		rv.voters[i] = make(map[wire.NodeID]bool)
	}
	return rv
}

func (rv *roundVotes) add(v *Vote) bool {
	t := int(v.Type)
	byID := rv.votes[t][v.BlockID]
	if byID == nil {
		byID = make(map[wire.NodeID]*Vote)
		rv.votes[t][v.BlockID] = byID
	}
	if byID[v.Voter] != nil {
		return false
	}
	byID[v.Voter] = v
	rv.voters[t][v.Voter] = true
	return true
}

// voteOf returns the vote a validator already cast for this type, if any.
func (rv *roundVotes) voteOf(t VoteType, voter wire.NodeID) *Vote {
	for _, byVoter := range rv.votes[int(t)] {
		if v := byVoter[voter]; v != nil {
			return v
		}
	}
	return nil
}

func (rv *roundVotes) count(t VoteType, blockID string) int {
	return len(rv.votes[t][blockID])
}

func (rv *roundVotes) totalVoters(t VoteType) int { return len(rv.voters[t]) }

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

	height      uint64
	round       int32
	step        Step
	heightStart time.Duration
	proposals   map[int32]*Proposal
	votes       map[int32]*roundVotes
	lockedID    string
	lockedRound int32
	// lockedValue/lockedProposal track the VALUE behind lockedID: the
	// round-independent identity of the locked block's transactions, and
	// the proposal carrying them. Proposals are bound to their round (the
	// blockID hashes it), so liveness under message loss needs the value:
	// a locked proposer re-proposes the locked transactions in the new
	// round, and other validators recognize the re-proposal as their
	// locked value even though its blockID differs (the simplified form
	// of Tendermint's proof-of-lock re-proposal). lockedValue is empty
	// when the locked proposal was never received (vote-only lock).
	lockedValue    string
	lockedProposal *Proposal

	// chain holds committed blocks for heights chainBase+1..chainBase+len;
	// blocks at or below chainBase were pruned under a checkpoint horizon
	// (SetRetainHorizon) or skipped by a state-sync install, and are
	// covered by the application's checkpoint digests instead. chainBase
	// is 0 until either happens, so chain[h-1] is height h as it always
	// was.
	chain     []*wire.Block
	chainBase uint64
	// decidedProps/decidedCommits retain the proposals and precommit
	// certificates of recently committed heights so lagging peers can
	// catch up after this node advanced.
	decidedProps   map[uint64]*Proposal
	decidedCommits map[uint64][]*Vote
	decided        bool // current height decided, waiting for next-height start

	// syncer is the application's checkpoint state-sync hook (nil = no
	// state-sync; deep catch-up then only works within the decided window).
	syncer       StateSyncer
	syncInstalls uint64
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
	// retry tick, resuming from the received bitmap instead of restarting.
	fetch *syncFetch

	// Deep catch-up state: the highest height observed in buffered future
	// messages and whether a certified-block request is in flight.
	// catchupRetries counts consecutive unproductive retries for the
	// bounded exponential backoff; catchupRng is its jitter stream, a
	// dedicated sim.ChildSeed stream drawn from ONLY on actual retries so
	// runs where every catch-up resolves first try stay byte-identical.
	futureHeight   uint64
	futureSender   wire.NodeID
	catchupPending bool
	catchupRetries int
	catchupRng     *rand.Rand
	stopped        bool
	mutator        ProposalMutator
	onCommit       CommitListener

	// bcast, when set, replaces the per-validator send loop for
	// proposal/vote fan-out (the mesh transport seam, DESIGN.md §13).
	// Catch-up request/response traffic always stays point-to-point.
	bcast func(payload any, size int)

	futureMsgs []any // buffered messages for heights beyond the current one

	idHash  hash.Hash // the suite's stream, reused by every blockID/valueID
	keyBuf  []byte    // scratch for one transaction's key or a header, reused
	signBuf []byte    // scratch for vote/proposal sign bytes, reused across calls

	// Stats.
	roundsUsed    uint64
	catchupReqs   uint64
	invalidMsgs   uint64
	emptyBlocks   uint64
	totalTxBytes  uint64
	equivocations uint64
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
		decidedProps:   make(map[uint64]*Proposal),
		decidedCommits: make(map[uint64][]*Vote),
		id:             id,
		validators:     append([]wire.NodeID(nil), validators...),
		sim:            s,
		net:            net,
		params:         params,
		suite:          suite,
		idHash:         suite.NewHash(),
		key:            key,
		registry:       registry,
		pool:           pool,
		app:            abci.NopApplication{},
		height:         1,
		proposals:      make(map[int32]*Proposal),
		votes:          make(map[int32]*roundVotes),
		lockedID:       nilBlockID,
		lockedRound:    -1,
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

// SetCommitListener installs a block-commit observer.
func (n *Node) SetCommitListener(l CommitListener) { n.onCommit = l }

// SetStateSyncer installs the application's checkpoint state-sync hook.
func (n *Node) SetStateSyncer(s StateSyncer) { n.syncer = s }

// SetBroadcaster installs the transport used for proposal/vote fan-out.
// nil (the default) keeps the classic per-validator send loop, preserving
// byte-identical traffic for every existing scenario; the mesh transport
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
		delete(n.decidedProps, ht)
		delete(n.decidedCommits, ht)
	}
	n.chainBase = h
}

// Params returns the node's parameters.
func (n *Node) Params() Params { return n.params }

// Quorum returns the 2f+1 vote threshold for the validator set.
func (n *Node) Quorum() int {
	f := (len(n.validators) - 1) / 3
	return 2*f + 1
}

// Height returns the height currently being decided.
func (n *Node) Height() uint64 { return n.height }

// Chain returns the retained committed blocks in order: heights
// ChainBase()+1 onward (all heights from 1 when nothing was pruned).
func (n *Node) Chain() []*wire.Block { return n.chain }

// ChainBase returns the height below which committed blocks were pruned
// (or skipped by state-sync); 0 means the chain is complete from height 1.
func (n *Node) ChainBase() uint64 { return n.chainBase }

// HeightCommitted returns the number of heights this node has committed or
// adopted via checkpoint install (ChainBase + retained blocks).
func (n *Node) HeightCommitted() uint64 { return n.chainBase + uint64(len(n.chain)) }

// SyncInstalls returns how many checkpoint snapshots this node installed.
func (n *Node) SyncInstalls() uint64 { return n.syncInstalls }

// SyncRejects returns how many state-sync offers this node rejected at
// the certified-header check (forged or unprovable snapshots).
func (n *Node) SyncRejects() uint64 { return n.syncRejects }

// RoundsUsed returns the cumulative number of extra rounds consumed (0 when
// every height decides in round 0).
func (n *Node) RoundsUsed() uint64 { return n.roundsUsed }

// CatchupRequests returns how many block-recovery requests this node sent.
func (n *Node) CatchupRequests() uint64 { return n.catchupReqs }

// InvalidMessages returns how many malformed/forged consensus messages
// were dropped.
func (n *Node) InvalidMessages() uint64 { return n.invalidMsgs }

// EmptyBlocks returns how many committed blocks carried no transactions.
func (n *Node) EmptyBlocks() uint64 { return n.emptyBlocks }

// TotalTxBytes returns the cumulative transaction bytes committed.
func (n *Node) TotalTxBytes() uint64 { return n.totalTxBytes }

// Equivocations returns how many conflicting double-votes were detected
// and discarded.
func (n *Node) Equivocations() uint64 { return n.equivocations }

// SignVote signs a vote's canonical bytes; exported for tooling and fault
// injection in tests.
func SignVote(suite setcrypto.Suite, key setcrypto.KeyPair, v *Vote) []byte {
	n := &Node{}
	return suite.Sign(key, n.voteSignBytes(v))
}

// Stop freezes the node (end of experiment).
func (n *Node) Stop() { n.stopped = true }

// Start schedules the first height.
func (n *Node) Start() {
	n.sim.After(0, func() { n.enterHeight(1) })
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
	n.heightStart = n.sim.Now()
	n.enterRound(0)
	n.replayFuture()
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
	n.sim.After(n.timeout(n.params.TimeoutPropose, r), func() {
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

func (n *Node) timeout(base time.Duration, round int32) time.Duration {
	return base + time.Duration(round)*n.params.TimeoutDelta
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
// contents at a height. Locking tracks it alongside the blockID so a
// re-proposal of the same transactions in a later round is recognized as
// the locked value.
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
		n.invalidMsgs++
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

func (n *Node) handleProposal(p *Proposal) {
	if p.Height < n.height {
		return // stale
	}
	if p.Height > n.height {
		n.bufferFuture(p)
		return
	}
	if p.Proposer != n.proposerFor(p.Height, p.Round) {
		n.invalidMsgs++
		return
	}
	pub := n.registry.Lookup(int(p.Proposer))
	if pub == nil || !n.suite.Verify(pub, n.proposalSignBytes(p), p.Sig) {
		n.invalidMsgs++
		return
	}
	// Structural check: the block must match the announced id and respect
	// the size limit. (Application-level tx validity is NOT checked here:
	// the paper's model explicitly allows Byzantine servers to put invalid
	// elements on the ledger; Setchain filters them in FinalizeBlock.)
	if p.Block == nil || p.Block.Height != p.Height ||
		n.blockID(p.Height, p.Round, p.Proposer, p.Block.CkptEpoch, p.Block.CkptFold, p.Block.Txs) != p.BlockID {
		n.invalidMsgs++
		return
	}
	if p.Block.Bytes > n.params.MaxBlockBytes {
		n.invalidMsgs++
		return
	}
	// Header-commitment check: a claimed checkpoint chain at or below this
	// validator's own seal horizon must match its chain prefix exactly; a
	// proposer cannot rewrite sealed history a quorum of validators has
	// reached. Claims ahead of local sealing pass — the validator cannot
	// falsify state it hasn't computed, and 2f+1 such checks are exactly
	// the light-client trust state-sync leans on.
	if n.syncer != nil && !n.syncer.VerifyCommitment(p.Block.CkptEpoch, p.Block.CkptFold) {
		n.invalidMsgs++
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
	id := p.BlockID
	if n.lockedID != nilBlockID && n.lockedID != id {
		if n.lockedValue == "" || n.valueID(p.Height, p.Block.Txs) != n.lockedValue {
			id = nilBlockID
		}
	}
	n.step = StepPrevote
	n.castVote(VotePrevote, id)
	h, r := n.height, n.round
	n.sim.After(n.timeout(n.params.TimeoutPrevote, r), func() {
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
	valid := false
	for _, val := range n.validators {
		if val == v.Voter {
			valid = true
			break
		}
	}
	if !valid {
		n.invalidMsgs++
		return
	}
	pub := n.registry.Lookup(int(v.Voter))
	if pub == nil || !n.suite.Verify(pub, n.voteSignBytes(v), v.Sig) {
		n.invalidMsgs++
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
	// evidence for slashing; here we record it).
	if prev := rv.voteOf(v.Type, v.Voter); prev != nil {
		if prev.BlockID != v.BlockID {
			n.equivocations++
		}
		return
	}
	if !rv.add(v) {
		return
	}
	q := n.Quorum()

	// Round skip: f+1 voters already in a later round means ours is dead.
	f := (len(n.validators) - 1) / 3
	if v.Round > n.round && !n.decided {
		distinct := make(map[wire.NodeID]bool)
		for r, votes := range n.votes {
			if r <= n.round {
				continue
			}
			for _, t := range []VoteType{VotePrevote, VotePrecommit} {
				for voter := range votes.voters[int(t)] {
					distinct[voter] = true
				}
			}
		}
		if len(distinct) >= f+1 {
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
					n.advanceToPrecommit(id)
				} else {
					n.advanceToPrecommit(nilBlockID)
				}
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
// tracking the underlying value when the proposal is known so the lock can
// be re-proposed (and recognized) in later rounds. A newer quorum always
// replaces an older lock, as in Tendermint.
func (n *Node) lockOn(round int32, blockID string) {
	n.lockedID = blockID
	n.lockedRound = round
	if p := n.proposals[round]; p != nil && p.BlockID == blockID {
		n.lockedProposal = p
		n.lockedValue = n.valueID(p.Height, p.Block.Txs)
	} else {
		// Vote-only lock: the quorum arrived but the proposal was lost.
		// The value stays unknown, so this node can only re-prevote the
		// exact blockID (catch-up recovers the block if it commits).
		n.lockedProposal = nil
		n.lockedValue = nilBlockID
	}
}

func (n *Node) advanceToPrecommit(blockID string) {
	n.step = StepPrecommit
	n.castVote(VotePrecommit, blockID)
	h, r := n.height, n.round
	n.sim.After(n.timeout(n.params.TimeoutPrecommit, r), func() {
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

func (n *Node) requestBlock(round int32, blockID string) {
	rv := n.votes[round]
	if rv == nil {
		return
	}
	// Ask the lowest-id precommitter: the target choice shapes message
	// timing, so it must not depend on map iteration order.
	target, found := wire.NodeID(0), false
	for voter := range rv.votes[int(VotePrecommit)][blockID] {
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
	// Serve committed heights from the retained decided proposals, and the
	// in-progress height from the pending proposal set. An empty BlockID is
	// a deep catch-up request and gets the commit certificate too.
	if p := n.decidedProps[req.Height]; p != nil {
		if req.BlockID == "" {
			cert := n.decidedCommits[req.Height]
			size := p.Block.Bytes + proposalOverhead + len(cert)*voteWireSize
			n.net.Send(n.id, from, &BlockResponse{Proposal: p, Commit: cert}, size)
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
	// (pruned under the checkpoint horizon, or outside the decided window):
	// offer the latest CERTIFIED snapshot if it would actually move the
	// requester forward. A snapshot without an observed certificate binding
	// its chain fold is never served — the requester could not verify it,
	// and its retry backoff finds a peer that can prove its offer.
	if req.BlockID == "" && n.syncer != nil && n.servableSnap != nil {
		if n.servableSnap.Last.Height < req.Height {
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
		// The offer ships metadata and proof, not the state: the chain (32
		// modeled bytes per entry, as in core's snapshot sizing), the
		// certified proposal envelope, and the certificate votes.
		size := 32*len(snap.Chain) + proposalOverhead + len(offer.Commit)*voteWireSize
		n.net.Send(n.id, from, offer, size)
	}
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
	total := syncChunkCount(snap.Bytes, cb)
	if req.Seq < 0 || req.Seq >= total {
		return
	}
	size := snap.Bytes - req.Seq*cb
	if size > cb {
		size = cb
	}
	if size < 1 {
		size = 1
	}
	n.net.Send(n.id, from, &SyncChunk{
		Epoch: req.Epoch, Fold: req.Fold, Seq: req.Seq, Size: size,
		Sum: chunkSum(req.Fold, req.Seq, size),
	}, size)
}

// BreakHeaderBindForTest disables this node's requester-side verification
// of state-sync offers — the certificate check and the chain-fold binding —
// restoring the pre-fix trust hole. A sabotage hook: tests call it on
// deployed nodes to prove the verification is non-vacuous, since a forged
// snapshot must install with the check broken and be rejected with it
// intact.
func (n *Node) BreakHeaderBindForTest() { n.trustOffers = true }

// handleSyncOffer verifies a state-sync offer against its certified
// header — the certificate must hold 2f+1 valid precommits for the
// proposal, and the offered chain must fold to the commitment the
// certified header binds — then starts (or resumes) the chunked transfer.
// Nothing is installed here: InstallSync runs only after every chunk
// arrived and verified (handleSyncChunk).
func (n *Node) handleSyncOffer(from wire.NodeID, offer *SyncOffer) {
	snap := offer.Snapshot
	if snap == nil || n.syncer == nil || n.stopped || n.decided {
		return
	}
	if snap.Last.Height < n.height {
		return // would not advance us; keep block-by-block catch-up
	}
	if !n.trustOffers {
		p := offer.Proposal
		if p == nil || p.Block == nil || !n.verifyCommitCert(p, offer.Commit) {
			n.syncRejects++
			n.invalidMsgs++
			return
		}
		// The certified binding: the header commits to exactly this chain.
		if p.Block.CkptEpoch != snap.Last.Epoch ||
			p.Block.CkptFold != checkpoint.FoldChain(snap.Chain) {
			n.syncRejects++
			n.invalidMsgs++
			return
		}
	}
	fold := checkpoint.FoldChain(snap.Chain)
	if f := n.fetch; f != nil {
		if f.epoch == snap.Last.Epoch && f.fold == fold {
			// Same snapshot re-offered (retry path): resume from the bitmap.
			f.from = from
			n.requestChunk(f)
			return
		}
		if snap.Last.Epoch <= f.epoch {
			return // already fetching something at least as new
		}
	}
	cb := offer.ChunkBytes
	if cb <= 0 {
		cb = n.params.SyncChunkBytes
	}
	chunks := syncChunkCount(snap.Bytes, cb)
	if offer.Chunks != chunks {
		n.syncRejects++
		n.invalidMsgs++
		return // chunk accounting does not match the declared snapshot size
	}
	n.fetch = &syncFetch{
		snap:       snap,
		from:       from,
		epoch:      snap.Last.Epoch,
		fold:       fold,
		chunks:     chunks,
		chunkBytes: cb,
		got:        make([]bool, chunks),
	}
	n.requestChunk(n.fetch)
}

// requestChunk asks the serving peer for the fetch's first missing chunk.
func (n *Node) requestChunk(f *syncFetch) {
	seq := f.next()
	if seq < 0 {
		return
	}
	n.net.Send(n.id, f.from, &SyncChunkRequest{Epoch: f.epoch, Fold: f.fold, Seq: seq}, 32)
}

// handleSyncChunk verifies one received chunk against the fetch in flight
// — identity, bounds, per-chunk digest — and either requests the next
// missing chunk or, once the bitmap is full, installs the assembled
// snapshot and resumes consensus after the checkpoint height. A chunk
// failing verification is dropped; the retry backoff re-requests it.
func (n *Node) handleSyncChunk(c *SyncChunk) {
	f := n.fetch
	if f == nil || n.stopped || n.decided {
		return
	}
	if c.Epoch != f.epoch || c.Fold != f.fold || c.Seq < 0 || c.Seq >= f.chunks {
		return
	}
	if f.got[c.Seq] {
		return // duplicate (retry raced the response)
	}
	want := f.snap.Bytes - c.Seq*f.chunkBytes
	if want > f.chunkBytes {
		want = f.chunkBytes
	}
	if want < 1 {
		want = 1
	}
	if c.Size != want || c.Sum != chunkSum(f.fold, c.Seq, c.Size) {
		n.invalidMsgs++
		return
	}
	f.got[c.Seq] = true
	f.ngot++
	if f.ngot < f.chunks {
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
	n.syncInstalls++
	h := snap.Last.Height
	// Heights through h are now covered by the installed checkpoint state;
	// retained blocks below it are superseded.
	n.chain = nil
	n.chainBase = h
	n.height = h + 1
	n.proposals = make(map[int32]*Proposal)
	n.votes = make(map[int32]*roundVotes)
	n.lockedID = nilBlockID
	n.lockedRound = -1
	n.lockedValue = nilBlockID
	n.lockedProposal = nil
	n.round = 0
	n.step = StepPropose
	n.decided = false
	n.catchupPending = false
	n.catchupRetries = 0
	n.enterHeight(n.height)
}

func (n *Node) commit(p *Proposal) {
	n.decided = true
	// The proposal's block is committed as it is: a block is never written
	// after it is proposed (wire.Block), so every node — concurrently, in a
	// partitioned run — holds the one object.
	block := p.Block
	n.chain = append(n.chain, block)
	n.totalTxBytes += uint64(block.Bytes)
	if len(block.Txs) == 0 {
		n.emptyBlocks++
	}
	n.pool.RemoveCommitted(p.Height, block.Txs)
	if n.onCommit != nil {
		n.onCommit(n.id, block)
	}
	n.app.FinalizeBlock(block)

	// Retain the decided proposal and its precommit certificate so lagging
	// peers can request them after we advance; prune the retention window.
	n.decidedProps[p.Height] = p
	for _, r := range sortedRounds(n.votes) {
		byVoter := n.votes[r].votes[int(VotePrecommit)][p.BlockID]
		if len(byVoter) >= n.Quorum() {
			cert := make([]*Vote, 0, len(byVoter))
			for _, v := range byVoter {
				cert = append(cert, v)
			}
			// Certificates travel on the wire; keep their order a function
			// of the votes, not of map iteration.
			sort.Slice(cert, func(i, j int) bool { return cert[i].Voter < cert[j].Voter })
			n.decidedCommits[p.Height] = cert
			break
		}
	}
	if p.Height > 128 {
		delete(n.decidedProps, p.Height-128)
		delete(n.decidedCommits, p.Height-128)
	}

	// Refresh the servable snapshot: when this decided header's checkpoint
	// commitment matches the application's current snapshot, this proposal
	// and its certificate become the proof attached to state-sync offers.
	// The previous servable pair stays until a newer match commits, so a
	// freshly sealed (not yet certified) snapshot never leaves the node
	// unprovable — it just serves the older certified one meanwhile.
	if n.syncer != nil {
		if cert := n.decidedCommits[p.Height]; len(cert) >= n.Quorum() {
			if snap, ok := n.syncer.SyncSnapshot(); ok && snap != n.servableSnap &&
				p.Block.CkptEpoch == snap.Last.Epoch &&
				p.Block.CkptFold == checkpoint.FoldChain(snap.Chain) {
				n.servableSnap = snap
				n.servableProp = p
				n.servableCert = cert
			}
		}
	}
	n.catchupRetries = 0

	// Reset consensus state for the next height NOW: proposals and votes
	// for it can arrive during the commit wait and must not be discarded.
	h := n.height + 1
	n.height = h
	n.proposals = make(map[int32]*Proposal)
	n.votes = make(map[int32]*roundVotes)
	n.lockedID = nilBlockID
	n.lockedRound = -1
	n.lockedValue = nilBlockID
	n.lockedProposal = nil
	n.round = 0
	n.step = StepPropose

	// Pace the chain: CometBFT waits TimeoutCommit after committing before
	// starting the next height, so block rate = 1/(consensus + timeout).
	n.sim.After(n.params.TimeoutCommit, func() { n.enterHeight(h) })
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

// Catch-up retry pacing: the first attempt retries after the flat base
// delay (exactly the old behavior, so runs where every catch-up resolves
// first try stay byte-identical); consecutive unproductive retries back
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
// flight, re-requests its first missing chunk (the resumable half of the
// transfer: lost chunks are recovered from the bitmap, not by
// restarting). One request in flight at a time, retried with bounded
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
	if p.Block == nil || p.Block.Height != p.Height ||
		n.blockID(p.Height, p.Round, p.Proposer, p.Block.CkptEpoch, p.Block.CkptFold, p.Block.Txs) != p.BlockID {
		return false
	}
	seen := make(map[wire.NodeID]bool)
	for _, v := range commit {
		if v == nil || v.Height != p.Height || v.Type != VotePrecommit || v.BlockID != p.BlockID {
			continue
		}
		valid := false
		for _, val := range n.validators {
			if val == v.Voter {
				valid = true
				break
			}
		}
		if !valid || seen[v.Voter] {
			continue
		}
		pub := n.registry.Lookup(int(v.Voter))
		if pub == nil || !n.suite.Verify(pub, n.voteSignBytes(v), v.Sig) {
			continue
		}
		seen[v.Voter] = true
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
		n.invalidMsgs++
		return
	}
	n.catchupPending = false
	n.catchupRetries = 0
	n.proposals[p.Round] = p
	n.commit(p)
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

func (n *Node) onTimeoutPropose(h uint64, r int32) {
	if n.stopped || n.decided || h != n.height || r != n.round || n.step != StepPropose {
		return
	}
	// No acceptable proposal in time: prevote nil (or the locked block).
	id := nilBlockID
	if n.lockedID != nilBlockID {
		id = n.lockedID
	}
	n.step = StepPrevote
	n.castVote(VotePrevote, id)
	n.sim.After(n.timeout(n.params.TimeoutPrevote, r), func() {
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

// String summarizes the node state for diagnostics.
func (n *Node) String() string {
	return fmt.Sprintf("consensus[%d h=%d r=%d step=%d chain=%d]",
		n.id, n.height, n.round, n.step, len(n.chain))
}
