package netsim

import (
	"time"

	"repro/internal/wire"
)

// The relay half of a mesh node (DESIGN.md §13), modeled on CometBFT's
// votepool: a dedup cache — one expiry per (origin, sequence number) — plus
// a bounded, expiring log of entries to forward whose every flush is shared
// by all peers' envelopes. A peer's backlog is a finite, droppable resource,
// never an unbounded mailbox (the CAC framing of PAPERS.md).
//
// The methods in this file are pure bookkeeping over the virtual clock
// their callers pass in: no timers, no simulator, no network. A relay is
// touched by its own node's events, and by one more write: the last
// receiver of a flushed window returns it to the relay's free list. The
// clock its callers pass never decreases.

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
// stores it in the open window once if any does. A peer whose backlog is
// full drops the newcomer: the queued backlog is older and closer to
// expiring anyway, and dropping the newcomer keeps the operation O(1).
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
			if mn.open == nil {
				mn.open = mn.takeWindow()
			}
			mn.open.log = append(mn.open.log, e)
			stored = true
		}
		q.n++
		q.bytes += e.size
		if q.n == mn.queueCap {
			q.cut = len(mn.open.log)
		}
	}
}

// flush closes the window of entries queued since the last flush and hands
// each peer with something to read its envelope, in peer order, through
// send, which returns how many deliveries of it the network scheduled. The
// expired prefix of the log — every entry under BreakExpiryForTest, else
// those queued entryTTL or longer ago; queue times never decrease — is
// counted per peer it was meant for and left out of every envelope. Every
// envelope starts where the rest of the log does, and all but those of
// peers cut at queueCap run to its end, so the uncut peers share the
// window's envelope and a cut peer gets its own, shorter one. An
// envelope's wire size counts only the entries meant for its receiver.
//
// The window counts its scheduled deliveries, and nothing writes it until
// the last of them is received (window.received); a flush that scheduled
// none recycles it at once.
func (mn *meshNode) flush(now time.Duration, send func(to wire.NodeID, env *Envelope, size int) int) {
	w := mn.open
	if w == nil {
		return
	}
	mn.open = nil
	log := w.log
	pre := 0
	switch {
	case mn.expireAll:
		pre = len(log)
	case mn.entryTTL > 0:
		for pre < len(log) && log[pre].enqueued+mn.entryTTL <= now {
			pre++
		}
	}
	w.whole.entries = log[pre:]
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
			env := &w.whole
			if end < len(log) {
				env = &Envelope{entries: log[pre:end], w: w}
			}
			w.pending += send(p, env, meshEnvelopeOverhead+q.bytes+q.n*meshEntryOverhead)
		}
		*q = peerQueue{}
	}
	if w.pending == 0 {
		mn.recycle(w)
	}
}

// window is one flush's log and the envelope that views it whole, reused
// flush after flush by the node that owns it. Between a flush and the last
// scheduled delivery of its envelopes the window is read-only; then the
// receiver that read last returns it to its owner's free list. A delivery
// that reaches no handler (a receiver that is down when it arrives) counts
// as read there (msg.deliver).
type window struct {
	log     []meshEntry // the entries queued toward the flush, oldest first
	whole   Envelope    // the envelope of every peer that reads to the log's end
	pending int         // deliveries scheduled and not yet received
	owner   *meshNode
	next    *window // free-list link
}

// maxFreeWindows bounds a node's free list; a window returned to a full
// one is left to the collector.
const maxFreeWindows = 8

// takeWindow returns a spare window of the node's, or a new one.
func (mn *meshNode) takeWindow() *window {
	w := mn.free
	if w == nil {
		w = &window{owner: mn}
		w.whole.w = w
		return w
	}
	mn.free, w.next = w.next, nil
	mn.nfree--
	return w
}

// received records that one scheduled delivery of the window has been
// read; the last one hands the window back to its owner.
func (w *window) received() {
	if w.pending--; w.pending == 0 {
		w.owner.recycle(w)
	}
}

// recycle clears a window nobody reads any more and keeps it, if the free
// list has room.
func (mn *meshNode) recycle(w *window) {
	clear(w.log)
	w.log, w.whole.entries = w.log[:0], nil
	if mn.nfree < maxFreeWindows {
		w.next, mn.free = mn.free, w
		mn.nfree++
	}
}

// dedupCache remembers seen digests until their expiry. A digest's two
// halves are a node id and a counter, so the memory is an array over seq,
// not a hash table of pairs: a page holds the expiries of seqPageSize
// consecutive sequence numbers of one origin, and pages — the only thing
// hashed — are few enough to stay in cache. seq is arbitrary to the cache:
// a sequence number far from every other costs one page, whatever the
// distance.
//
// A digest is fresh iff its stored expiry is at or before now; a page not
// made, or released, reads as all zero, and virtual time never runs below
// zero. That is the verdict of a digest→expiry table on every call, by
// construction: the page is that table, split by origin and seq.
//
// Expiry is lazy, so the cache needs no timers and its state advances only
// on its owning node's events. A queue holds one slot per page, carrying an
// expiry no later than the page's newest. expire pops the slots that have
// lapsed: a page whose newest expiry has passed is released — every digest
// in it reads fresh, as it would with the page gone — and any other is
// queued again at its newest expiry. Each re-queue consumes a distinct,
// later expiry some mark stored, so the work is amortized O(1) per mark.
// A released page goes to a bounded free list, and the next page made is
// that one, cleared.
type dedupCache struct {
	pages map[seqPageKey]*seqPage
	// cur remembers the page last touched for each origin (direct-mapped by
	// origin, so two origins may share a slot and evict each other): an
	// origin's consecutive sequence numbers reach their page without
	// hashing, however the origins interleave.
	cur [dedupCursors]*seqPage

	queue []pageSlot // one slot per page in pages, from head on
	head  int
	free  []*seqPage // released pages, at most maxFreeSeqPages

	forgetful bool // a sabotage switch for tests: every digest is fresh
}

const (
	seqPageShift = 6
	seqPageSize  = 1 << seqPageShift
	dedupCursors = 64
	// maxFreeSeqPages bounds a cache's free list; a page released to a
	// full one is left to the collector.
	maxFreeSeqPages = 16
)

type seqPageKey struct {
	origin wire.NodeID
	page   uint64 // seq >> seqPageShift
}

type seqPage struct {
	key    seqPageKey
	newest time.Duration // the latest expiry in exp
	exp    [seqPageSize]time.Duration
}

type pageSlot struct {
	p   *seqPage
	exp time.Duration
}

// page returns the page holding d's expiry and leaves the origin's cursor
// on it. A page it makes is queued at exp, the expiry its first mark stores.
func (c *dedupCache) page(d digest, exp time.Duration) *seqPage {
	k := seqPageKey{d.origin, d.seq >> seqPageShift}
	cur := &c.cur[uint(d.origin)%dedupCursors]
	if p := *cur; p != nil && p.key == k {
		return p
	}
	p := c.pages[k]
	if p == nil {
		if c.pages == nil {
			c.pages = make(map[seqPageKey]*seqPage)
		}
		if n := len(c.free); n > 0 {
			p, c.free = c.free[n-1], c.free[:n-1]
			*p = seqPage{key: k}
		} else {
			p = &seqPage{key: k}
		}
		c.pages[k] = p
		c.queue = append(c.queue, pageSlot{p, exp})
	}
	*cur = p
	return p
}

// mark records the digest as seen until now+ttl and reports whether it
// was fresh (not present, or present but expired).
func (c *dedupCache) mark(d digest, now, ttl time.Duration) bool {
	if c.forgetful {
		return true
	}
	c.expire(now)
	exp := now + ttl
	p := c.page(d, exp)
	slot := &p.exp[d.seq%seqPageSize]
	if *slot > now {
		return false
	}
	*slot = exp
	p.newest = max(p.newest, exp)
	return true
}

// expire pops the lapsed slots off the queue head, releasing each page
// whose newest expiry has passed and queueing every other one again.
func (c *dedupCache) expire(now time.Duration) {
	for c.head < len(c.queue) && c.queue[c.head].exp <= now {
		p := c.queue[c.head].p
		c.queue[c.head] = pageSlot{}
		c.head++
		if p.newest > now {
			c.queue = append(c.queue, pageSlot{p, p.newest})
		} else {
			c.release(p)
		}
	}
	if c.head > len(c.queue)/2 && c.head > 32 {
		n := copy(c.queue, c.queue[c.head:])
		clear(c.queue[n:])
		c.queue, c.head = c.queue[:n], 0
	}
}

// release forgets a page, and with it every digest in it, and keeps the
// page for reuse if the free list has room.
func (c *dedupCache) release(p *seqPage) {
	delete(c.pages, p.key)
	if cur := &c.cur[uint(p.key.origin)%dedupCursors]; *cur == p {
		*cur = nil
	}
	if len(c.free) < maxFreeSeqPages {
		c.free = append(c.free, p)
	}
}
