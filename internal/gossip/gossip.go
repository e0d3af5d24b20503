// Package gossip implements the votepool-style relay that backs the mesh
// transport (DESIGN.md §13): a dedup cache — one bit per (origin, sequence
// number), with TTL expiry — plus bounded, expiring per-peer relay queues.
// The design follows CometBFT's votepool — entries carry a digest, a relay
// remembers which digests it has seen, fresh entries are re-queued to every
// peer except the one they arrived from, and both the memory of seen
// digests and the queued entries expire — with the CAC framing from
// PAPERS.md: a relay queue is a finite, droppable resource, never an
// unbounded mailbox.
//
// The package is pure bookkeeping over virtual timestamps: no timers, no
// simulator, no network. All expiry happens lazily against the caller's
// clock, which is what makes a relay partition-safe under intra-run PDES
// (DESIGN.md §12) — it is only ever touched by its own node's events, and
// it never observes time except through those events.
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

	// enqueued is the virtual time the entry entered a relay queue; the
	// queue's drain uses it to expire stale entries. Queue-local, never
	// serialized.
	enqueued time.Duration
}

// Config bounds a relay's resources.
type Config struct {
	// QueueCap caps each per-peer queue; a push to a full queue drops the
	// NEW entry (the queued backlog is older and closer to expiring anyway,
	// and dropping the newcomer keeps the operation O(1)).
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

// Relay is one node's gossip state: the dedup cache of seen digests and a
// bounded queue of entries awaiting relay toward each peer. It is not
// safe for concurrent use — by design, since under PDES it must only be
// touched by its owning node's events.
type Relay struct {
	cfg    Config
	peers  []wire.NodeID
	dedup  dedupCache
	queues []relayQueue // queues[i] holds the backlog toward peers[i]

	// Stats counters, all monotone.
	relayed    uint64 // fresh entries fanned out to peer queues
	dedupDrops uint64 // ingested entries discarded as already-seen
	queueDrops uint64 // entries dropped because a peer queue was full
	expired    uint64 // queued entries discarded past EntryTTL

	expireAll bool // BreakExpiryForTest
}

// Stats is a point-in-time snapshot of a relay's counters.
type Stats struct {
	Relayed    uint64
	DedupDrops uint64
	QueueDrops uint64
	Expired    uint64
}

// NewRelay builds a relay with one queue per peer. Enqueue and Flush name a
// peer by its index in peers.
func NewRelay(peers []wire.NodeID, cfg Config) *Relay {
	r := &Relay{cfg: cfg, peers: peers, queues: make([]relayQueue, len(peers))}
	for i := range r.queues {
		r.queues[i].cap = cfg.QueueCap
	}
	return r
}

// BreakDedupForTest makes every digest look fresh to this relay: its dedup
// cache records nothing, so gossip storms until the hop backstop. A
// sabotage hook: tests call it to prove their exactly-once checks would
// catch a broken cache.
func (r *Relay) BreakDedupForTest() { r.dedup.forgetful = true }

// BreakExpiryForTest makes every entry queued at this relay look expired:
// its flushes drain nothing, so gossip through it starves. A sabotage hook:
// tests call it to prove their liveness checks would catch a starved relay.
func (r *Relay) BreakExpiryForTest() { r.expireAll = true }

// Observe marks a digest as seen without relaying anything, reporting
// whether it was fresh. Originators call it so their own message, looped
// back by a peer, is not re-delivered to them.
func (r *Relay) Observe(d Digest, now time.Duration) bool {
	return r.dedup.mark(d, now, r.cfg.DedupTTL)
}

// Ingest processes an entry received from a peer. A stale digest is
// counted and discarded. A fresh one is remembered and — if the entry has
// hops left — re-queued, with one more hop, toward every peer except the
// link it arrived on and its origin (both have it by construction). The
// caller delivers the payload locally exactly when Ingest returns true.
func (r *Relay) Ingest(from wire.NodeID, e Entry, now time.Duration) bool {
	if !r.dedup.mark(e.Digest, now, r.cfg.DedupTTL) {
		r.dedupDrops++
		return false
	}
	if e.Hops < r.cfg.MaxHops {
		fwd := e
		fwd.Hops++
		for i, p := range r.peers {
			if p == from || p == e.Digest.Origin {
				continue
			}
			r.Enqueue(i, fwd, now)
		}
		r.relayed++
	}
	return true
}

// Enqueue queues an entry toward peers[peer], for originators fanning out a
// new message (hop 0) to their whole neighborhood.
func (r *Relay) Enqueue(peer int, e Entry, now time.Duration) {
	e.enqueued = now
	if !r.queues[peer].push(e) {
		r.queueDrops++
	}
}

// Flush drains the non-expired backlog queued toward peers[peer], in FIFO
// order. Entries past EntryTTL are counted and discarded.
func (r *Relay) Flush(peer int, now time.Duration) []Entry {
	out, exp := r.queues[peer].drain(now, r.cfg.EntryTTL, r.expireAll)
	r.expired += exp
	return out
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
// on its owning node's events — the PDES-safety property. Amortized O(1) per
// mark.
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

// relayQueue is one bounded FIFO of entries awaiting flush toward a peer.
type relayQueue struct {
	cap     int
	entries []Entry
	head    int
}

func (q *relayQueue) len() int { return len(q.entries) - q.head }

// push appends an entry, reporting false (drop) when the queue is full.
func (q *relayQueue) push(e Entry) bool {
	if q.cap > 0 && q.len() >= q.cap {
		return false
	}
	q.entries = append(q.entries, e)
	return true
}

// drain removes and returns every queued entry still inside ttl (none when
// expireAll), plus the count it expired. The result is nil for an empty
// queue and otherwise a fresh slice sized once to the backlog: it leaves
// inside an Envelope, so it can be neither pooled nor a view of the queue's
// own storage.
func (q *relayQueue) drain(now, ttl time.Duration, expireAll bool) ([]Entry, uint64) {
	if q.len() == 0 {
		return nil, 0
	}
	out := make([]Entry, 0, q.len())
	var expired uint64
	for ; q.head < len(q.entries); q.head++ {
		e := q.entries[q.head]
		if expireAll || (ttl > 0 && e.enqueued+ttl <= now) {
			expired++
			continue
		}
		out = append(out, e)
	}
	q.entries = q.entries[:0]
	q.head = 0
	return out, expired
}
