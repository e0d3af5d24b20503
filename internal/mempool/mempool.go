// Package mempool implements the CometBFT-style transaction pool: local
// submission (BroadcastTxAsync in the paper's mapping), CheckTx validation,
// deduplication, capacity limits (the paper raises CometBFT's default to
// 10,000,000 transactions or 2 GB), gossip replication to peers, and
// reaping for block proposals.
//
// The pool is a ring, a log and an index. order is the FIFO ring of pooled
// transactions by admission sequence number, which Reap walks. The log of
// what each block tombstoned is the block's own transaction slice. entries
// (index.go) maps a wire.TxKey to a sequence number, or once committed to a
// tombstone naming its place in the log, in 16-byte slots of the key's hash
// and that value: no pointers for the garbage collector to scan, and a hash
// match confirmed against the transaction the value locates. It is probed
// once per arrival, most arrivals being gossip duplicates.
//
// See DESIGN.md §4 (ledger stack).
package mempool

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config sets pool limits and gossip behavior. Build it from PaperConfig
// and override fields: New uses every field as given and refuses the zero
// Config.
type Config struct {
	// MaxTxs caps the number of pooled transactions (paper: 10,000,000).
	MaxTxs int
	// MaxBytes caps pooled bytes (paper: 2 GB).
	MaxBytes int
	// GossipInterval batches first-seen transactions and forwards them to
	// all peers once per interval, approximating CometBFT's continuous
	// per-peer gossip without per-transaction message explosion.
	GossipInterval time.Duration
	// Admission enables backpressure below the hard caps (admission.go);
	// the zero value leaves admission off.
	Admission AdmissionConfig
}

// PaperConfig returns the evaluation's mempool settings.
func PaperConfig() Config {
	return Config{
		MaxTxs:         10_000_000,
		MaxBytes:       2 << 30,
		GossipInterval: 10 * time.Millisecond,
	}
}

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

	// entries is pool ∪ committed in one table: a positive value is a
	// pooled transaction's admission sequence number, a negative one
	// (tombstoneAt) a committed key that must never re-enter. One table
	// instead of a pool index plus a seen-set halves the hot-path inserts.
	entries txIndex
	// order is the admission-order ring: the transaction with sequence
	// number seq sits at order[seq-base] until it commits, when its slot is
	// set to nil in place. Everything before head is nil; compact advances
	// head and slides the live tail down once head passes the midpoint.
	order []*wire.Tx
	head  int
	base  int64 // sequence number of order[0]; the first admission gets 1
	live  int   // entries with a positive value
	bytes int

	// tombstones logs committed blocks by commit height. The tombstones
	// locate their keys in it, and checkpointing drops both below the prune
	// horizon (PruneTombstonesBelow), which keeps soak runs bounded.
	tombstones []tombstoneBatch
	logBase    int64 // batches ever cut off the log's front

	pendingGossip []*wire.Tx
	flushArmed    bool
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
	admitted         uint64
	rejected         uint64
	dropped          uint64 // capacity drops
	duplicate        uint64
	tombstonesPruned uint64
}

// tombstoneAt is the entries value of a committed key: position i of log
// batch b, counting cut batches, complemented to be negative.
func tombstoneAt(b int64, i int) int64 { return ^(b<<32 | int64(i)) }

// txAt returns the transaction an entries value locates (txSource).
func (m *Mempool) txAt(val int64) *wire.Tx {
	if val > 0 {
		return m.order[val-m.base]
	}
	return m.tombstones[^val>>32-m.logBase].txs[uint32(^val)]
}

// tombstoneBatch records what one committed block tombstoned: the block's
// own transaction slice, not a copy of its keys. The block is immutable and
// consensus holds it at least as long — ledger.Node.Checkpointed cuts this
// log and consensus's chain at the same height.
type tombstoneBatch struct {
	height uint64
	txs    []*wire.Tx
}

// New creates a mempool for a node. peers is the set of other nodes gossip
// reaches. check may be nil (accept all); enter may be nil.
func New(id wire.NodeID, s *sim.Simulator, net *netsim.Network, peers []wire.NodeID, cfg Config, check CheckFunc, enter EnterFunc) *Mempool {
	if cfg == (Config{}) {
		panic("mempool: zero Config; start from mempool.PaperConfig()")
	}
	m := &Mempool{
		id:    id,
		sim:   s,
		net:   net,
		cfg:   cfg,
		check: check,
		enter: enter,
		base:  1,
		peers: peers,
	}
	m.entries.txs = m
	return m
}

// Config returns the configuration the pool runs with.
func (m *Mempool) Config() Config { return m.cfg }

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
	if m.cfg.Admission.Policy == AdmissionDelay && m.Saturated() {
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
	if key.IsZero() {
		// No payload of the kind it names, or no known kind: nothing to
		// identify it by and nothing CheckTx could inspect.
		m.rejected++
		return false
	}
	if m.entries.get(tx, &key) != 0 {
		m.duplicate++
		return false
	}
	if m.check != nil && !m.check(tx) {
		m.rejected++
		return false
	}
	if m.live >= m.cfg.MaxTxs || m.bytes+tx.WireSize() > m.cfg.MaxBytes {
		m.dropped++
		return false
	}
	// A second probe rather than a slot remembered from the first: check
	// runs application code between the two.
	m.entries.swap(tx, &key, m.base+int64(len(m.order)))
	m.live++
	m.order = append(m.order, tx)
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
	m.sim.After(m.cfg.GossipInterval, m.flush)
}

func (m *Mempool) flush() {
	m.flushArmed = false
	if len(m.pendingGossip) == 0 {
		return
	}
	msg := &GossipMsg{Txs: m.pendingGossip}
	size := 0
	for _, tx := range msg.Txs {
		size += tx.WireSize()
	}
	m.pendingGossip = nil
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
	for _, tx := range m.order[m.head:] {
		if tx == nil {
			continue
		}
		sz := tx.WireSize()
		if total+sz > maxBytes {
			// Txs are admitted in arbitrary size order; stop at the first
			// overflow to keep reaping O(block size) and FIFO-fair.
			break
		}
		out = append(out, tx)
		total += sz
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
	b := m.logBase + int64(len(m.tombstones))
	if len(txs) > 0 { // logged first: the tombstones locate their keys in it
		m.tombstones = append(m.tombstones, tombstoneBatch{height: height, txs: txs})
	}
	for i, tx := range txs {
		key := tx.MapKey()
		if key.IsZero() {
			continue // malformed: never pooled, nothing to tombstone
		}
		// A committed tx may have never reached this pool (e.g. it was
		// proposed by another node before gossip arrived). Tombstone it so
		// late gossip is dropped. A block that lists a tx twice finds the
		// tombstone the second time and frees its slot only once.
		if seq := m.entries.swap(tx, &key, tombstoneAt(b, i)); seq > 0 {
			slot := seq - m.base
			m.bytes -= m.order[slot].WireSize()
			m.live--
			m.order[slot] = nil
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
			if key := tx.MapKey(); m.entries.delTombstone(tx, &key) {
				m.tombstonesPruned++
			}
		}
		cut++
	}
	if cut > 0 { // after the deletions: no tombstone locates a batch cut off
		m.tombstones = append([]tombstoneBatch(nil), m.tombstones[cut:]...)
		m.logBase += int64(cut)
	}
}

// TombstonedKeys returns how many committed-key tombstones the pool holds
// (soak assertions pin this as bounded under pruning).
func (m *Mempool) TombstonedKeys() int { return m.entries.n - m.live }

// TombstonesPruned returns how many tombstones pruning has dropped.
func (m *Mempool) TombstonesPruned() uint64 { return m.tombstonesPruned }

// compact advances head past the freed slots at the front of the ring
// and, once they are more than half of it, slides the remainder down to
// index 0. A slide copies fewer slots than head advanced since the last
// one, so compaction is amortized O(1) per committed transaction and does
// no index lookups.
func (m *Mempool) compact() {
	for m.head < len(m.order) && m.order[m.head] == nil {
		m.head++
	}
	if m.head < 64 || m.head*2 <= len(m.order) {
		return
	}
	n := copy(m.order, m.order[m.head:])
	clear(m.order[n:]) // release the transactions the stale tail still points at
	m.order = m.order[:n]
	m.base += int64(m.head)
	m.head = 0
}

// Size returns the number of pooled transactions.
func (m *Mempool) Size() int { return m.live }

// Bytes returns the pooled byte total.
func (m *Mempool) Bytes() int { return m.bytes }

// Has reports whether the pool currently holds the given tx key.
func (m *Mempool) Has(key wire.TxKey) bool {
	return m.entries.get(nil, &key) > 0
}

// Stats returns counters (admitted, rejected by CheckTx, dropped by
// capacity, duplicates ignored).
func (m *Mempool) Stats() (admitted, rejected, dropped, duplicate uint64) {
	return m.admitted, m.rejected, m.dropped, m.duplicate
}
