// Package mempool implements the CometBFT-style transaction pool: local
// submission (BroadcastTxAsync in the paper's mapping), CheckTx validation,
// deduplication, capacity limits (the paper raises CometBFT's default to
// 10,000,000 transactions or 2 GB), a per-transaction size limit of one
// block, gossip replication to peers, and reaping for block proposals.
//
// The pool is a ring, a log and a window of states over a shared key
// table. order is the FIFO ring of pooled transactions by admission
// sequence number, which Reap walks. The log of what each block tombstoned
// is the block's own transaction slice. Keys (index.go), one per ledger,
// maps a wire.TxKey to a dense 32-bit ordinal in 8-byte slots of a 32-bit
// tag of the key's hash and the ordinal, and confirms a tag match against
// the first transaction interned with the key. entries is the pool's own
// state for each ordinal — absent, a sequence number, or a tombstone once
// committed — 4 bytes per key and no pointers for the garbage collector to
// scan. A key is probed once per arrival, most arrivals being gossip
// duplicates.
//
// The ring, the states and the table's per-ordinal transaction and count
// are windows of fixed pages (paged.go), indexed by sequence number or by
// ordinal: each grows a page at a time, releases the pages its front has
// passed, and takes its next pages from the ones it released, so a pool
// that admits and commits at a steady backlog allocates no memory for
// them.
//
// See DESIGN.md §4 (ledger stack).
package mempool

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/wire"
)

// Config sets a pool's admission control. The zero Config is the paper's
// pool: admission off, caps MaxTxs and MaxBytes.
type Config struct {
	// Admission is the scenario's admission block as spec.WithDefaults
	// left it (admission.go): its policy, watermark and deferred-queue
	// bounds, and its max_txs/max_bytes, which override MaxTxs/MaxBytes
	// when positive. The zero value leaves admission off.
	Admission spec.AdmissionSpec
}

// PaperConfig returns the evaluation's mempool settings: the zero Config.
func PaperConfig() Config { return Config{} }

// MaxTxs and MaxBytes cap the pooled transactions and bytes: the paper
// raises CometBFT's defaults to 10,000,000 transactions or 2 GB.
const (
	MaxTxs   = 10_000_000
	MaxBytes = 2 << 30
)

// GossipInterval batches first-seen transactions and forwards them to all
// peers once per interval, approximating CometBFT's continuous per-peer
// gossip without per-transaction message explosion.
const GossipInterval = 10 * time.Millisecond

// CheckFunc validates a transaction for admission (ABCI CheckTx).
type CheckFunc func(tx *wire.Tx) bool

// EnterFunc observes a transaction entering this node's pool; used by the
// metrics layer to timestamp the paper's mempool latency stages.
type EnterFunc func(node wire.NodeID, tx *wire.Tx)

// GossipMsg is the network payload carrying batched transactions to peers.
type GossipMsg struct {
	Txs []*wire.Tx
}

// Mempool is one node's transaction pool.
type Mempool struct {
	id    wire.NodeID
	sim   *sim.Simulator
	net   *netsim.Network
	cfg   Config
	check CheckFunc
	enter EnterFunc
	// maxTxs and maxBytes are the caps: MaxTxs and MaxBytes, or the
	// admission block's overrides.
	maxTxs, maxBytes int

	// keys maps a transaction key to its ordinal: the ledger's shared
	// table, or the pool's own when it runs alone.
	keys *Keys
	// entries.get(o) is the pool's state for the key of ordinal o, pool ∪
	// committed in one window: a positive value is a pooled transaction's
	// admission sequence number, tombstone marks a committed key that must
	// never re-enter, and 0 — also every ordinal outside the pages — a key
	// the pool does not hold. held counts the nonzero states, and the pool
	// holds each of those keys in the table. entLo is the oldest ordinal
	// the pool holds, while it holds any: the pages start at its page, and
	// a pool that holds nothing keeps none.
	entries paged[int32]
	entLo   int32
	held    int
	// maxTxBytes, when positive, refuses a larger transaction at admission:
	// one that no block could carry would stop Reap for good.
	maxTxBytes int
	// order is the admission-order ring: the transaction with sequence
	// number seq sits at order.at(seq) until it commits, when its slot is
	// set to nil in place. Every slot before head is nil; compact advances
	// head and releases the pages it has passed. next is the sequence
	// number the next admission gets, the first one 1.
	order paged[*wire.Tx]
	head  int
	next  int
	live  int // entries with a positive value
	bytes int

	// tombstones logs committed blocks by commit height, so that
	// checkpointing can drop the tombstones below the prune horizon
	// (PruneTombstonesBelow), which keeps soak runs bounded.
	tombstones []tombstoneBatch

	// pendingGossip waits for the next gossip flush, which copies it into
	// the message and keeps the buffer; flushFn is the flush method bound
	// once, handed to every timer armFlush sets.
	pendingGossip []*wire.Tx
	flushArmed    bool
	flushFn       func()
	peers         []wire.NodeID

	// bcast, when set, replaces the per-peer gossip send loop (the mesh
	// transport seam, DESIGN.md §13). The mesh relays envelopes itself, so
	// with bcast installed, received transactions are NOT re-originated.
	bcast func(payload any, size int)

	// Admission-control state (admission.go): transactions parked by the
	// delay policy, the single outstanding deadline timer, and counters.
	deferred      []deferredTx
	deferArmed    bool
	admRejected   uint64
	deferredTotal uint64
	expired       uint64

	// Stats.
	admitted  uint64
	rejected  uint64
	dropped   uint64 // capacity drops
	duplicate uint64
}

// tombstoneBatch records what one committed block tombstoned: the block's
// own transaction slice, not a copy of its keys. The block is immutable and
// consensus holds it at least as long — ledger.Node.Checkpointed cuts this
// log and consensus's chain at the same height.
type tombstoneBatch struct {
	height uint64
	txs    []*wire.Tx
}

// tombstone is the state of a committed key.
const tombstone int32 = -1

// New creates a mempool for a node, with a key table of its own until
// ShareKeys hands it a ledger's. peers is the set of other nodes gossip
// reaches. check may be nil (accept all); enter may be nil.
func New(id wire.NodeID, s *sim.Simulator, net *netsim.Network, peers []wire.NodeID, cfg Config, check CheckFunc, enter EnterFunc) *Mempool {
	m := &Mempool{
		id:       id,
		sim:      s,
		net:      net,
		cfg:      cfg,
		maxTxs:   cmp.Or(cfg.Admission.MaxTxs, MaxTxs),
		maxBytes: cmp.Or(cfg.Admission.MaxBytes, MaxBytes),
		check:    check,
		enter:    enter,
		head:     1,
		next:     1,
		peers:    peers,
		keys:     NewKeys(),
	}
	m.flushFn = m.flush
	return m
}

// Config returns the configuration the pool runs with.
func (m *Mempool) Config() Config { return m.cfg }

// ShareKeys makes the pool use k, the key table of the ledger it belongs
// to, in place of its own. It must come before the pool's first add.
func (m *Mempool) ShareKeys(k *Keys) {
	if m.held != 0 {
		panic("mempool: ShareKeys after the pool took its first key")
	}
	m.keys = k
}

// SetMaxTxBytes refuses, from now on, every transaction larger than n bytes
// at admission, counted as rejected, as CometBFT's PreCheckMaxBytes does.
// The ledger passes its block size: Reap stops at the first transaction
// that does not fit, so one that fits no block would stall every later one.
func (m *Mempool) SetMaxTxBytes(n int) { m.maxTxBytes = n }

// MaxTxBytes returns the admission bound SetMaxTxBytes set, 0 for none.
func (m *Mempool) MaxTxBytes() int { return m.maxTxBytes }

// SetCheck replaces the admission filter. Intended for wiring the
// application's CheckTx after construction; not for use mid-run.
func (m *Mempool) SetCheck(check CheckFunc) { m.check = check }

// SetBroadcaster installs the transport used to fan gossip batches out.
// nil (the default) keeps the classic per-peer send loop; the mesh
// transport installs its Gossip publish here, and transitive re-gossip of
// received transactions is then suppressed — the mesh's own relay already
// floods every envelope to not-yet-seen nodes, so re-originating would
// send each transaction O(n) extra times.
func (m *Mempool) SetBroadcaster(b func(payload any, size int)) { m.bcast = b }

// AddTx submits a transaction locally (the paper's BroadcastTxAsync path).
// It validates, pools, and schedules gossip. Returns true if admitted.
// Under the delay admission policy, submissions against a saturated pool
// are parked in the bounded deferred queue instead (admission.go); under
// the reject policy, saturation was already refused at the element gate,
// and the transactions that still arrive here carry admitted elements
// and enter using the watermark headroom.
func (m *Mempool) AddTx(tx *wire.Tx) bool {
	if m.cfg.Admission.Policy == spec.AdmissionDelay && m.Saturated() {
		return m.deferTx(tx)
	}
	return m.add(tx, true)
}

// ReceiveGossip ingests transactions forwarded by a peer. On the classic
// transport, first-seen valid transactions are pooled and re-forwarded
// (flooding, as CometBFT's gossip effectively achieves on a full mesh);
// under a mesh broadcaster the overlay's relay already floods them, so
// they are pooled without re-origination.
func (m *Mempool) ReceiveGossip(msg *GossipMsg) {
	for _, tx := range msg.Txs {
		m.add(tx, m.bcast == nil)
	}
}

func (m *Mempool) add(tx *wire.Tx, gossip bool) bool {
	key := tx.MapKey()
	if key.IsZero() || m.maxTxBytes > 0 && tx.WireSize() > m.maxTxBytes {
		// No payload of the kind it names, or no known kind: nothing to
		// identify it by and nothing CheckTx could inspect. Or larger than
		// a block: never reaped, it would block the pool's head.
		m.rejected++
		return false
	}
	if m.state(m.keys.find(tx, &key)) != 0 {
		m.duplicate++
		return false
	}
	if m.check != nil && !m.check(tx) {
		m.rejected++
		return false
	}
	if m.live >= m.maxTxs || m.bytes+tx.WireSize() > m.maxBytes {
		m.dropped++
		return false
	}
	// A second probe rather than a slot remembered from the first: check
	// runs application code between the two.
	seq := m.next
	if seq > math.MaxInt32 {
		panic(fmt.Sprintf("mempool: sequence number %d does not fit in 32 bits", seq))
	}
	m.hold(m.keys.acquire(tx, &key), int32(seq))
	m.live++
	*m.order.slot(seq) = tx
	m.next++
	m.bytes += tx.WireSize()
	m.admitted++
	if m.enter != nil {
		m.enter(m.id, tx)
	}
	if gossip && (len(m.peers) > 0 || m.bcast != nil) {
		m.pendingGossip = append(m.pendingGossip, tx)
		m.armFlush()
	}
	return true
}

func (m *Mempool) armFlush() {
	if m.flushArmed {
		return
	}
	m.flushArmed = true
	m.sim.After(GossipInterval, m.flushFn)
}

func (m *Mempool) flush() {
	m.flushArmed = false
	if len(m.pendingGossip) == 0 {
		return
	}
	// The message owns its slice: receivers read it after the flush, and
	// a mesh relay keeps it while the entry is queued.
	msg := &GossipMsg{Txs: make([]*wire.Tx, len(m.pendingGossip))}
	copy(msg.Txs, m.pendingGossip)
	clear(m.pendingGossip)
	m.pendingGossip = m.pendingGossip[:0]
	size := 0
	for _, tx := range msg.Txs {
		size += tx.WireSize()
	}
	if m.bcast != nil {
		m.bcast(msg, size)
		return
	}
	for _, p := range m.peers {
		m.net.Send(m.id, p, msg, size)
	}
}

// Reap returns pooled transactions in admission order up to maxBytes total,
// without removing them (they leave the pool when their block commits).
func (m *Mempool) Reap(maxBytes int) []*wire.Tx {
	var out []*wire.Tx
	total := 0
	for seq := m.head; seq < m.next; {
		span := m.order.span(seq, m.next)
		seq += len(span)
		for _, tx := range span {
			if tx == nil {
				continue
			}
			sz := tx.WireSize()
			if total+sz > maxBytes {
				// Txs are admitted in arbitrary size order; stop at the
				// first overflow to keep reaping O(block size) and
				// FIFO-fair.
				return out
			}
			out = append(out, tx)
			total += sz
		}
	}
	return out
}

// RemoveCommitted evicts transactions included in the block committed at
// the given height and compacts the admission ring. The keys stay as
// tombstones, so committed transactions can never re-enter this pool —
// until PruneTombstonesBelow drops tombstones the checkpoint horizon has
// made redundant. The pool keeps txs itself (not a copy) until then: the
// caller must not modify the slice afterwards. A committed block's Txs
// never change, which is what consensus passes.
func (m *Mempool) RemoveCommitted(height uint64, txs []*wire.Tx) {
	if len(txs) > 0 {
		m.tombstones = append(m.tombstones, tombstoneBatch{height: height, txs: txs})
	}
	for _, tx := range txs {
		key := tx.MapKey()
		if key.IsZero() {
			continue // malformed: never pooled, nothing to tombstone
		}
		// A committed tx may have never reached this pool (e.g. it was
		// proposed by another node before gossip arrived). Tombstone it so
		// late gossip is dropped. A block that lists a tx twice finds the
		// tombstone the second time and frees its slot only once.
		ord := m.keys.find(tx, &key)
		switch seq := m.state(ord); {
		case seq == 0:
			m.hold(m.keys.acquire(tx, &key), tombstone)
		case seq > 0:
			slot := m.order.at(int(seq))
			m.bytes -= (*slot).WireSize()
			m.live--
			*slot = nil
			*m.entries.at(int(ord)) = tombstone
		}
	}
	m.compact()
	// Commits free pool space: let deferred transactions in.
	m.drainDeferred()
}

// PruneTombstonesBelow deletes tombstones for transactions committed at or
// below the given height (the latest checkpoint's seal height). Safe
// because everything those transactions carried is settled below the
// checkpoint: if impossibly late gossip re-admits one, the application
// layers drop its content as stale (elements via the membership index,
// proofs and hash-batch signatures via their own horizons), so the worst
// case is a few wasted block bytes — the price of bounded memory.
func (m *Mempool) PruneTombstonesBelow(height uint64) {
	cut := 0
	for cut < len(m.tombstones) && m.tombstones[cut].height <= height {
		for _, tx := range m.tombstones[cut].txs {
			// A key pruned earlier, re-admitted by late gossip and live
			// again has a positive entry and stays.
			key := tx.MapKey()
			if ord := m.keys.find(tx, &key); m.state(ord) < 0 {
				m.drop(ord, &key)
			}
		}
		cut++
	}
	n := copy(m.tombstones, m.tombstones[cut:])
	clear(m.tombstones[n:])
	m.tombstones = m.tombstones[:n]
}

// state returns the pool's state for ordinal ord: 0 for a key it does not
// hold, and for ord 0, the ordinal of no key.
func (m *Mempool) state(ord int32) int32 { return m.entries.get(int(ord)) }

// hold sets the pool's state for ord, a key it did not hold and has just
// acquired in the table, to st (not 0), adding the pages that take it in:
// at the front for a key the table interned before any the pool holds.
func (m *Mempool) hold(ord, st int32) {
	if m.held == 0 || ord < m.entLo {
		m.entLo = ord
	}
	*m.entries.slot(int(ord)) = st
	m.held++
}

// drop clears the pool's state for ord, whose key is key, lets the table
// know, and moves entLo past every ordinal the pool no longer holds at its
// front, releasing the pages it passes: all of them once the pool holds
// nothing.
func (m *Mempool) drop(ord int32, key *wire.TxKey) {
	*m.entries.at(int(ord)) = 0
	m.held--
	m.keys.release(ord, key)
	switch {
	case m.held == 0:
		m.entries.releaseAll()
	case ord == m.entLo:
		for m.entries.get(int(m.entLo)) == 0 {
			m.entLo++
		}
		m.entries.releaseBelow(int(m.entLo))
	}
}

// TombstonedKeys returns how many committed-key tombstones the pool holds
// (soak assertions pin this as bounded under pruning).
func (m *Mempool) TombstonedKeys() int { return m.held - m.live }

// compact advances head past the freed slots at the front of the ring and
// releases the pages wholly behind it: amortized O(1) per committed
// transaction, no index lookups and no copying.
func (m *Mempool) compact() {
	for m.head < m.next && *m.order.at(m.head) == nil {
		m.head++
	}
	m.order.releaseBelow(m.head)
}

// Size returns the number of pooled transactions.
func (m *Mempool) Size() int { return m.live }

// Stats returns counters (admitted, rejected by CheckTx, dropped by
// capacity, duplicates ignored).
func (m *Mempool) Stats() (admitted, rejected, dropped, duplicate uint64) {
	return m.admitted, m.rejected, m.dropped, m.duplicate
}
