// Package gossip implements the votepool-style relay that backs the mesh
// transport (DESIGN.md §13): a digest-keyed dedup cache with TTL expiry
// plus bounded, expiring per-peer relay queues. The design follows
// CometBFT's votepool — entries carry a digest, a relay remembers which
// digests it has seen, fresh entries are re-queued to every peer except
// the one they arrived from, and both the memory of seen digests and the
// queued entries expire — with the CAC framing from PAPERS.md: a relay
// queue is a finite, droppable resource, never an unbounded mailbox.
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

// Sabotage switches for the deliberate-failure tests (DESIGN.md §12
// pattern): prove the equivalence/safety sweeps would catch a broken
// relay by breaking it on purpose. Exported because the harness-level
// sabotage tests live outside this package. Never set in production code.
var (
	breakDedup  bool
	breakExpiry bool
)

// SetBreakDedupForTest makes every digest look fresh: the dedup cache
// records nothing, so gossip storms until the hop backstop. Test-only.
func SetBreakDedupForTest(v bool) { breakDedup = v }

// SetBreakExpiryForTest makes every queued entry look expired: flushes
// drain nothing, so gossip starves completely. Test-only.
func SetBreakExpiryForTest(v bool) { breakExpiry = v }

// Relay is one node's gossip state: the dedup cache of seen digests and a
// bounded queue of entries awaiting relay toward each peer. It is not
// safe for concurrent use — by design, since under PDES it must only be
// touched by its owning node's events.
type Relay struct {
	cfg    Config
	peers  []wire.NodeID
	dedup  dedupCache
	queues map[wire.NodeID]*relayQueue

	// Stats counters, all monotone.
	relayed    uint64 // fresh entries fanned out to peer queues
	dedupDrops uint64 // ingested entries discarded as already-seen
	queueDrops uint64 // entries dropped because a peer queue was full
	expired    uint64 // queued entries discarded past EntryTTL
}

// Stats is a point-in-time snapshot of a relay's counters.
type Stats struct {
	Relayed    uint64
	DedupDrops uint64
	QueueDrops uint64
	Expired    uint64
}

// NewRelay builds a relay with one queue per peer.
func NewRelay(peers []wire.NodeID, cfg Config) *Relay {
	r := &Relay{
		cfg:    cfg,
		peers:  peers,
		dedup:  dedupCache{seen: make(map[Digest]time.Duration)},
		queues: make(map[wire.NodeID]*relayQueue, len(peers)),
	}
	for _, p := range peers {
		r.queues[p] = &relayQueue{cap: cfg.QueueCap}
	}
	return r
}

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
		for _, p := range r.peers {
			if p == from || p == e.Digest.Origin {
				continue
			}
			r.push(p, fwd, now)
		}
		r.relayed++
	}
	return true
}

// Enqueue queues an entry toward one peer, for originators fanning out a
// new message (hop 0) to their whole neighborhood.
func (r *Relay) Enqueue(peer wire.NodeID, e Entry, now time.Duration) {
	r.push(peer, e, now)
}

func (r *Relay) push(peer wire.NodeID, e Entry, now time.Duration) {
	q, ok := r.queues[peer]
	if !ok {
		panic("gossip: enqueue to unknown peer")
	}
	e.enqueued = now
	if !q.push(e) {
		r.queueDrops++
	}
}

// Flush drains the non-expired backlog queued toward one peer, in FIFO
// order. Entries past EntryTTL are counted and discarded.
func (r *Relay) Flush(peer wire.NodeID, now time.Duration) []Entry {
	q, ok := r.queues[peer]
	if !ok {
		return nil
	}
	out, exp := q.drain(now, r.cfg.EntryTTL)
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

// dedupCache remembers seen digests until their expiry. Expiry is lazy: a
// FIFO of (digest, expiry) pairs is scanned from the head on every mark,
// so the cache needs no timers and its state advances only on its owning
// node's events — the PDES-safety property. Amortized O(1) per mark.
type dedupCache struct {
	seen map[Digest]time.Duration // digest -> expiry
	fifo []dedupSlot
	head int
}

type dedupSlot struct {
	d   Digest
	exp time.Duration
}

// mark records the digest as seen until now+ttl and reports whether it
// was fresh (not present, or present but expired).
func (c *dedupCache) mark(d Digest, now, ttl time.Duration) bool {
	if breakDedup {
		return true
	}
	c.expire(now)
	if _, ok := c.seen[d]; ok {
		return false
	}
	exp := now + ttl
	c.seen[d] = exp
	c.fifo = append(c.fifo, dedupSlot{d: d, exp: exp})
	return true
}

// expire pops lapsed slots off the FIFO head. A digest re-marked after
// expiry gets a new slot, so a slot's digest is deleted from the map only
// while the map still holds the slot's own (lapsed) expiry.
func (c *dedupCache) expire(now time.Duration) {
	for c.head < len(c.fifo) && c.fifo[c.head].exp <= now {
		s := c.fifo[c.head]
		if exp, ok := c.seen[s.d]; ok && exp <= now {
			delete(c.seen, s.d)
		}
		c.head++
	}
	if c.head > len(c.fifo)/2 && c.head > 32 {
		c.fifo = append(c.fifo[:0:0], c.fifo[c.head:]...)
		c.head = 0
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

// drain removes and returns every queued entry still inside ttl, plus the
// count it expired. The result is nil for an empty queue and otherwise a
// fresh slice sized once to the backlog: it leaves inside an Envelope, so
// it can be neither pooled nor a view of the queue's own storage.
func (q *relayQueue) drain(now, ttl time.Duration) ([]Entry, uint64) {
	if q.len() == 0 {
		return nil, 0
	}
	out := make([]Entry, 0, q.len())
	var expired uint64
	for ; q.head < len(q.entries); q.head++ {
		e := q.entries[q.head]
		if breakExpiry || (ttl > 0 && e.enqueued+ttl <= now) {
			expired++
			continue
		}
		out = append(out, e)
	}
	q.entries = q.entries[:0]
	q.head = 0
	return out, expired
}
