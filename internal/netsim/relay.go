package netsim

import (
	"time"

	"repro/internal/wire"
)

// The relay half of a mesh node (DESIGN.md §13), modeled on CometBFT's
// votepool: a dedup cache — one bit per (origin, sequence number), with TTL
// expiry — plus a bounded, expiring log of entries to forward whose every
// flush is shared by all peers' envelopes. A peer's backlog is a finite,
// droppable resource, never an unbounded mailbox (the CAC framing of
// PAPERS.md).
//
// The methods in this file are pure bookkeeping over the virtual clock
// their callers pass in: no timers, no simulator, no network. A relay is
// only ever touched by its own node's events, and the clock its callers
// pass never decreases.

// digest identifies a gossiped message. The simulated fabric is trusted
// (the network delivers what was sent; Byzantine behavior lives at the
// protocol layer), so an (origin, sequence) pair is a sound identity — no
// hashing.
type digest struct {
	origin wire.NodeID
	seq    uint64
}

// meshEntry is one gossiped message as it travels the mesh: the digest
// that names it, the hop count it has accumulated, and the opaque payload
// with its accounted wire size.
type meshEntry struct {
	d       digest
	hops    int
	payload any
	size    int

	// from is the link the entry arrived on at the relay that queued it
	// (its origin, for an entry originated there), and enqueued the
	// virtual time it was queued; a flush expires entries by it.
	from     wire.NodeID
	enqueued time.Duration
}

// isFor reports whether a flushed entry is meant for peer. A flush hands
// every peer the same window, and a relay sends an entry neither back on
// the link it arrived on nor to its origin — both have it by construction
// — so each receiver skips the entries for which isFor(self) is false.
func (e *meshEntry) isFor(peer wire.NodeID) bool {
	return peer != e.from && peer != e.d.origin
}

// peerQueue is one peer's backlog: the entries of the log meant for it and
// queued before it filled.
type peerQueue struct {
	n     int // entries queued toward the peer
	bytes int // their payload bytes
	// cut is 0 while the backlog has room. Once it holds queueCap entries,
	// cut is the log's length at that moment: later entries are dropped
	// toward the peer, so its envelope ends there.
	cut int
}

// observe marks a digest as seen without relaying anything, reporting
// whether it was fresh. An originator calls it so its own message, looped
// back by a peer, is not re-delivered to it.
func (mn *meshNode) observe(d digest, now time.Duration) bool {
	return mn.dedup.mark(d, now, mn.dedupTTL)
}

// originate queues a new message (hop 0) toward every peer.
func (mn *meshNode) originate(e meshEntry, now time.Duration) {
	e.from = e.d.origin
	mn.push(e, now)
}

// ingest processes an entry received from a peer. A stale digest is
// counted and discarded. A fresh one is remembered and — if the entry has
// hops left — queued, with one more hop, toward every peer except the link
// it arrived on and its origin. The caller delivers the payload locally
// exactly when ingest returns true.
func (mn *meshNode) ingest(from wire.NodeID, e meshEntry, now time.Duration) bool {
	if !mn.dedup.mark(e.d, now, mn.dedupTTL) {
		mn.st.DedupDrops++
		return false
	}
	if e.hops < mn.maxHops {
		e.hops++
		e.from = from
		mn.push(e, now)
		mn.st.Relayed++
	}
	return true
}

// push queues e toward every peer it is meant for that has room, and
// stores it in the log once if any does. A peer whose backlog is full
// drops the newcomer: the queued backlog is older and closer to expiring
// anyway, and dropping the newcomer keeps the operation O(1).
func (mn *meshNode) push(e meshEntry, now time.Duration) {
	e.enqueued = now
	stored := false
	for i, p := range mn.peers {
		if !e.isFor(p) {
			continue
		}
		q := &mn.queues[i]
		if q.cut != 0 {
			mn.st.QueueDrops++
			continue
		}
		if !stored {
			if mn.log == nil {
				mn.log = make([]meshEntry, 0, max(mn.lastLen, 1))
			}
			mn.log = append(mn.log, e)
			stored = true
		}
		q.n++
		q.bytes += e.size
		if q.n == mn.queueCap {
			q.cut = len(mn.log)
		}
	}
}

// flush closes the log of entries queued since the last flush and hands
// each peer with something to read its envelope, in peer order, through
// send. The expired prefix of the log — every entry under
// BreakExpiryForTest, else those queued entryTTL or longer ago; queue
// times never decrease — is counted per peer it was meant for and left
// out of every envelope. Every envelope starts where the rest of the log
// does, and all but those of peers cut at queueCap run to its end, so the
// uncut peers share one envelope and a cut peer gets its own, shorter one.
// The envelopes alias one window, which nothing writes again (the next
// entry queued starts a new log), so every receiver may read it. An
// envelope's wire size counts only the entries meant for its receiver.
func (mn *meshNode) flush(now time.Duration, send func(to wire.NodeID, env *Envelope, size int)) {
	log := mn.log
	if log != nil {
		mn.lastLen = len(log)
	}
	mn.log = nil
	pre := 0
	switch {
	case mn.expireAll:
		pre = len(log)
	case mn.entryTTL > 0:
		for pre < len(log) && log[pre].enqueued+mn.entryTTL <= now {
			pre++
		}
	}
	var whole *Envelope // the envelope of every peer that reads to the window's end
	for i, p := range mn.peers {
		q := &mn.queues[i]
		end := len(log)
		if q.cut != 0 {
			end = q.cut
		}
		for k := 0; k < min(pre, end); k++ {
			if log[k].isFor(p) {
				q.n--
				q.bytes -= log[k].size
				mn.st.Expired++
			}
		}
		if q.n > 0 {
			env := whole
			switch {
			case end < len(log):
				env = &Envelope{entries: log[pre:end]}
			case whole == nil:
				whole = &Envelope{entries: log[pre:]}
				env = whole
			}
			send(p, env, meshEnvelopeOverhead+q.bytes+q.n*meshEntryOverhead)
		}
		*q = peerQueue{}
	}
}

// dedupCache remembers seen digests until their expiry. A digest's two
// halves are a node id and a counter, so the memory is a bitmap over seq,
// not a hash table of pairs: a page holds the bits of seqPageSize
// consecutive sequence numbers of one origin, and pages — the only thing
// hashed — are few enough to stay in cache. seq is arbitrary to the cache:
// a sequence number far from every other costs one page, whatever the
// distance, and a page whose last bit clears is released.
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

	forgetful bool // a sabotage switch for tests: every digest is fresh
}

const (
	seqPageShift = 9
	seqPageSize  = 1 << seqPageShift
	dedupCursors = 64
)

type seqPageKey struct {
	origin wire.NodeID
	page   uint64 // seq >> seqPageShift
}

type seqPage [seqPageSize / 64]uint64

type dedupSlot struct {
	d   digest
	exp time.Duration
}

// page returns the page holding d's bit, made if need be, and d's word and
// mask within it, and leaves the origin's cursor on it.
func (c *dedupCache) page(d digest) (p *seqPage, word int, mask uint64) {
	k := seqPageKey{d.origin, d.seq >> seqPageShift}
	word, mask = int(d.seq%seqPageSize)/64, 1<<(d.seq%64)
	cur := &c.cur[uint(d.origin)%dedupCursors]
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
func (c *dedupCache) mark(d digest, now, ttl time.Duration) bool {
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
func (c *dedupCache) clear(d digest) {
	p, word, mask := c.page(d) // there already: a queued slot's bit is set
	p[word] &^= mask
	if *p == (seqPage{}) {
		cur := &c.cur[uint(d.origin)%dedupCursors]
		delete(c.pages, cur.key)
		cur.p = nil
	}
}
