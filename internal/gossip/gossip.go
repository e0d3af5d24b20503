// Package gossip implements the votepool-style relay that backs the mesh
// transport (DESIGN.md §13): a dedup cache — one bit per (origin, sequence
// number), with TTL expiry — plus a bounded, expiring relay log whose every
// flush is shared by all peers' envelopes. The design follows CometBFT's
// votepool — entries carry a digest, a relay remembers which digests it has
// seen, fresh entries are relayed to every peer except the one they arrived
// from, and both the memory of seen digests and the queued entries expire —
// with the CAC framing from PAPERS.md: a peer's backlog is a finite,
// droppable resource, never an unbounded mailbox.
//
// The package is pure bookkeeping over virtual timestamps: no timers, no
// simulator, no network. All expiry happens lazily against the caller's
// clock: a relay is only ever touched by its own node's events, and it
// never observes time except through those events.
package gossip

import (
	"time"

	"repro/internal/wire"
)

// Digest identifies a gossiped message. The simulated fabric is trusted
// (netsim delivers what was sent; Byzantine behavior lives at the protocol
// layer), so an (origin, sequence) pair is a sound identity — no hashing.
type Digest struct {
	Origin wire.NodeID
	Seq    uint64
}

// Entry is one gossiped message as it travels the mesh: the digest that
// names it, the hop count it has accumulated, and the opaque payload with
// its accounted wire size.
type Entry struct {
	Digest  Digest
	Hops    int
	Payload any
	Size    int

	// from is the link the entry arrived on at the relay that queued it
	// (its origin, for an entry originated there), and enqueued the
	// virtual time it was queued; a flush expires entries by it. Set by
	// the queuing relay, never serialized.
	from     wire.NodeID
	enqueued time.Duration
}

// For reports whether a flushed entry is meant for peer. A flush hands
// every peer the same window, and a relay sends an entry neither back on
// the link it arrived on nor to its origin — both have it by construction
// — so each receiver skips the entries for which For(self) is false.
func (e *Entry) For(peer wire.NodeID) bool {
	return peer != e.from && peer != e.Digest.Origin
}

// Config bounds a relay's resources.
type Config struct {
	// QueueCap caps each peer's backlog between two flushes; an entry
	// queued toward a peer whose backlog is full is dropped for that peer
	// (the queued backlog is older and closer to expiring anyway, and
	// dropping the newcomer keeps the operation O(1)).
	QueueCap int
	// EntryTTL expires queued entries that waited too long for a flush:
	// relaying them would spend bandwidth on messages every correct node
	// has long since seen.
	EntryTTL time.Duration
	// DedupTTL is how long a seen digest is remembered. After it lapses the
	// digest counts as fresh again; MaxHops bounds the re-circulation that
	// permits.
	DedupTTL time.Duration
	// MaxHops stops forwarding entries that have already crossed this many
	// links. Any connected overlay has diameter < n, so MaxHops = n is a
	// pure backstop against re-circulation, not a reachability limit.
	MaxHops int
}

// Relay is one node's gossip state: the dedup cache of seen digests and
// the log of entries queued since the last flush. The log stores each entry
// once, whatever the number of peers it is meant for; a peer's backlog is
// the log's entries meant for it (Entry.For), up to QueueCap of them. It is
// not safe for concurrent use, it is touched only by its owning node's
// events, and the clock its callers pass never decreases.
type Relay struct {
	cfg    Config
	peers  []wire.NodeID
	dedup  dedupCache
	log    []Entry     // entries queued since the last flush, oldest first
	queues []peerQueue // queues[i] is peers[i]'s backlog in log
	shares []Share     // Flush's result, reused
	// lastLen is the length of the last flushed log: the capacity the next
	// log starts with, so a steady burst allocates its log once.
	lastLen int

	// Stats counters, all monotone.
	relayed    uint64 // fresh entries fanned out toward peers
	dedupDrops uint64 // ingested entries discarded as already-seen
	queueDrops uint64 // (entry, peer) pairs dropped at a full backlog
	expired    uint64 // queued (entry, peer) pairs discarded past EntryTTL

	expireAll bool // BreakExpiryForTest
}

// peerQueue is one peer's backlog: the entries of the log meant for it and
// queued before it filled.
type peerQueue struct {
	n     int // entries queued toward the peer
	bytes int // their payload bytes (Entry.Size)
	// cut is 0 while the backlog has room. Once it holds QueueCap entries,
	// cut is the log's length at that moment: later entries are dropped
	// toward the peer, so its envelope ends there.
	cut int
}

// Share is one peer's part of a flushed window: the prefix of the window
// its envelope carries, and how many entries of that prefix are meant for
// the peer (Entry.For) with their payload bytes. A share with N = 0 has
// nothing to send.
type Share struct {
	Entries []Entry
	N       int
	Bytes   int
}

// Stats is a point-in-time snapshot of a relay's counters.
type Stats struct {
	Relayed    uint64
	DedupDrops uint64
	QueueDrops uint64
	Expired    uint64
}

// NewRelay builds a relay toward the given peers. Flush reports a peer's
// share at its index in peers.
func NewRelay(peers []wire.NodeID, cfg Config) *Relay {
	return &Relay{
		cfg:    cfg,
		peers:  peers,
		queues: make([]peerQueue, len(peers)),
		shares: make([]Share, len(peers)),
	}
}

// BreakDedupForTest makes every digest look fresh to this relay: its dedup
// cache records nothing, so gossip storms until the hop backstop. A
// sabotage hook: tests call it to prove their exactly-once checks would
// catch a broken cache.
func (r *Relay) BreakDedupForTest() { r.dedup.forgetful = true }

// BreakExpiryForTest makes every entry queued at this relay look expired:
// its flushes ship nothing, so gossip through it starves. A sabotage hook:
// tests call it to prove their liveness checks would catch a starved relay.
func (r *Relay) BreakExpiryForTest() { r.expireAll = true }

// Observe marks a digest as seen without relaying anything, reporting
// whether it was fresh. Originators call it so their own message, looped
// back by a peer, is not re-delivered to them.
func (r *Relay) Observe(d Digest, now time.Duration) bool {
	return r.dedup.mark(d, now, r.cfg.DedupTTL)
}

// Originate queues a new message (hop 0) toward every peer.
func (r *Relay) Originate(e Entry, now time.Duration) {
	e.from = e.Digest.Origin
	r.push(e, now)
}

// Ingest processes an entry received from a peer. A stale digest is
// counted and discarded. A fresh one is remembered and — if the entry has
// hops left — queued, with one more hop, toward every peer except the link
// it arrived on and its origin. The caller delivers the payload locally
// exactly when Ingest returns true.
func (r *Relay) Ingest(from wire.NodeID, e Entry, now time.Duration) bool {
	if !r.dedup.mark(e.Digest, now, r.cfg.DedupTTL) {
		r.dedupDrops++
		return false
	}
	if e.Hops < r.cfg.MaxHops {
		e.Hops++
		e.from = from
		r.push(e, now)
		r.relayed++
	}
	return true
}

// push queues e toward every peer it is meant for that has room, and
// stores it in the log once if any does.
func (r *Relay) push(e Entry, now time.Duration) {
	e.enqueued = now
	stored := false
	for i, p := range r.peers {
		if !e.For(p) {
			continue
		}
		q := &r.queues[i]
		if q.cut != 0 {
			r.queueDrops++
			continue
		}
		if !stored {
			if r.log == nil {
				r.log = make([]Entry, 0, max(r.lastLen, 1))
			}
			r.log = append(r.log, e)
			stored = true
		}
		q.n++
		q.bytes += e.Size
		if q.n == r.cfg.QueueCap {
			q.cut = len(r.log)
		}
	}
}

// Flush closes the log of entries queued since the last flush and returns
// every peer's share of it, shares[i] for peers[i]. The expired prefix of
// the log — every entry under BreakExpiryForTest, else those queued
// EntryTTL or longer ago; queue times never decrease — is counted per peer
// it was meant for and left out of every share. The shares alias one
// window, which nothing writes again (the next entry queued starts a new
// log), so every receiver of an envelope may read it; the returned slice is
// the relay's own and the next Flush overwrites it.
func (r *Relay) Flush(now time.Duration) []Share {
	log := r.log
	pre := 0
	switch {
	case r.expireAll:
		pre = len(log)
	case r.cfg.EntryTTL > 0:
		for pre < len(log) && log[pre].enqueued+r.cfg.EntryTTL <= now {
			pre++
		}
	}
	for i, p := range r.peers {
		q := &r.queues[i]
		end := len(log)
		if q.cut != 0 {
			end = q.cut
		}
		for k := 0; k < min(pre, end); k++ {
			if log[k].For(p) {
				q.n--
				q.bytes -= log[k].Size
				r.expired++
			}
		}
		r.shares[i] = Share{N: q.n, Bytes: q.bytes}
		if q.n > 0 {
			r.shares[i].Entries = log[pre:end]
		}
		*q = peerQueue{}
	}
	if log != nil {
		r.lastLen = len(log)
	}
	r.log = nil
	return r.shares
}

// Stats snapshots the relay's counters.
func (r *Relay) Stats() Stats {
	return Stats{
		Relayed:    r.relayed,
		DedupDrops: r.dedupDrops,
		QueueDrops: r.queueDrops,
		Expired:    r.expired,
	}
}

// dedupCache remembers seen digests until their expiry. A digest's two
// halves are a node id and a counter, so the memory is a bitmap over Seq,
// not a hash table of pairs: a page holds the bits of seqPageSize
// consecutive sequence numbers of one origin, and pages — the only thing
// hashed — are few enough to stay in cache. Seq is arbitrary to this
// package: a sequence number far from every other costs one page, whatever
// the distance, and a page whose last bit clears is released.
//
// Expiry is lazy: a FIFO of (digest, expiry) slots is scanned from the head
// on every mark, so the cache needs no timers and its state advances only
// on its owning node's events. Amortized O(1) per mark.
//
// The bitmap stores no expiry and needs none. A bit is set only by a mark
// that found it clear, and that mark queues exactly one slot; a bit is
// cleared only when its slot is popped. So a set bit always has exactly one
// queued slot, that slot carries the digest's one live expiry, and because
// expire runs before every lookup, "bit set" is "marked and not yet
// expired" — the verdict a digest→expiry table gives, on every call.
type dedupCache struct {
	pages map[seqPageKey]*seqPage
	// cur remembers the page last touched for each origin (direct-mapped by
	// origin, so two origins may share a slot and evict each other): an
	// origin's consecutive sequence numbers reach their page without
	// hashing, however the origins interleave.
	cur [dedupCursors]struct {
		key seqPageKey
		p   *seqPage
	}

	fifo []dedupSlot
	head int

	forgetful bool // BreakDedupForTest: every digest is fresh
}

const (
	seqPageShift = 9
	seqPageSize  = 1 << seqPageShift
	dedupCursors = 64
)

type seqPageKey struct {
	origin wire.NodeID
	page   uint64 // Seq >> seqPageShift
}

type seqPage [seqPageSize / 64]uint64

type dedupSlot struct {
	d   Digest
	exp time.Duration
}

// page returns the page holding d's bit, made if need be, and d's word and
// mask within it, and leaves the origin's cursor on it.
func (c *dedupCache) page(d Digest) (p *seqPage, word int, mask uint64) {
	k := seqPageKey{d.Origin, d.Seq >> seqPageShift}
	word, mask = int(d.Seq%seqPageSize)/64, 1<<(d.Seq%64)
	cur := &c.cur[uint(d.Origin)%dedupCursors]
	if cur.p != nil && cur.key == k {
		return cur.p, word, mask
	}
	p = c.pages[k]
	if p == nil {
		if c.pages == nil {
			c.pages = make(map[seqPageKey]*seqPage)
		}
		p = new(seqPage)
		c.pages[k] = p
	}
	cur.key, cur.p = k, p
	return p, word, mask
}

// mark records the digest as seen until now+ttl and reports whether it
// was fresh (not present, or present but expired).
func (c *dedupCache) mark(d Digest, now, ttl time.Duration) bool {
	if c.forgetful {
		return true
	}
	c.expire(now)
	p, word, mask := c.page(d)
	if p[word]&mask != 0 {
		return false
	}
	p[word] |= mask
	c.fifo = append(c.fifo, dedupSlot{d: d, exp: now + ttl})
	return true
}

// expire pops lapsed slots off the FIFO head, clearing each one's bit.
func (c *dedupCache) expire(now time.Duration) {
	for c.head < len(c.fifo) && c.fifo[c.head].exp <= now {
		c.clear(c.fifo[c.head].d)
		c.head++
	}
	if c.head > len(c.fifo)/2 && c.head > 32 {
		c.fifo = append(c.fifo[:0:0], c.fifo[c.head:]...)
		c.head = 0
	}
}

// clear forgets d, releasing its page if that was the page's last bit.
func (c *dedupCache) clear(d Digest) {
	p, word, mask := c.page(d) // there already: a queued slot's bit is set
	p[word] &^= mask
	if *p == (seqPage{}) {
		cur := &c.cur[uint(d.Origin)%dedupCursors]
		delete(c.pages, cur.key)
		cur.p = nil
	}
}
