package netsim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/wire"
)

// testNode is a relay at node 0 toward peers with small limits: a queue
// cap of 4, a 100 ms entry TTL, a 1 s dedup TTL and 8 hops.
func testNode(peers ...wire.NodeID) *meshNode {
	r := newMeshNode(peers, 8)
	r.queueCap, r.entryTTL, r.dedupTTL = 4, 100*time.Millisecond, time.Second
	return r
}

func entry(origin wire.NodeID, seq uint64) meshEntry {
	return meshEntry{d: digest{origin: origin, seq: seq}, payload: "x", size: 10}
}

// sent is what one flush handed one peer: its envelope (nil when the peer
// had nothing to read) and the envelope's wire size.
type sent struct {
	env  *Envelope
	size int
}

// flushTo flushes r at now and returns what each peer was sent, at the
// peer's index in r.peers. Each envelope counts as one delivery that is
// never received, so no window flushed here is reused.
func flushTo(r *meshNode, now time.Duration) []sent {
	out := make([]sent, len(r.peers))
	r.flush(now, func(to wire.NodeID, env *Envelope, size int) int {
		out[slices.Index(r.peers, to)] = sent{env, size}
		return 1
	})
	return out
}

// meant returns the entries of a flushed envelope meant for peer, in
// order: what the peer reads.
func meant(s sent, peer wire.NodeID) []meshEntry {
	var out []meshEntry
	if s.env == nil {
		return nil
	}
	for i := range s.env.entries {
		if s.env.entries[i].isFor(peer) {
			out = append(out, s.env.entries[i])
		}
	}
	return out
}

// wireSize is the size of an envelope whose receiver reads entries: the
// header, and per entry its payload and framing.
func wireSize(entries []meshEntry) int {
	size := meshEnvelopeOverhead
	for _, e := range entries {
		size += e.size + meshEntryOverhead
	}
	return size
}

func TestIngestDedup(t *testing.T) {
	r := testNode(1, 2, 3)
	e := entry(0, 7)
	if !r.ingest(1, e, 0) {
		t.Fatal("first ingest not fresh")
	}
	if r.ingest(2, e, time.Millisecond) {
		t.Fatal("second ingest of same digest reported fresh")
	}
	if r.st.DedupDrops != 1 || r.st.Relayed != 1 {
		t.Fatalf("stats = %+v, want 1 dedup drop and 1 relayed", r.st)
	}
}

func TestIngestSkipsSourceAndOrigin(t *testing.T) {
	// Peer ids equal their index in the relay's peer list.
	peers := []wire.NodeID{0, 1, 2, 3}
	r := testNode(peers...)
	r.ingest(1, entry(0, 7), 0) // arrived from 1, originated at 0
	got := flushTo(r, 0)
	for _, p := range []int{0, 1} {
		if got[p].env != nil {
			t.Fatalf("entry re-queued toward %d (origin/source)", p)
		}
	}
	for _, p := range []int{2, 3} {
		m := meant(got[p], peers[p])
		if len(m) != 1 || m[0].hops != 1 || got[p].size != wireSize(m) {
			t.Fatalf("peer %d: got %v (%d B), want one entry at hop 1", p, m, got[p].size)
		}
	}
}

func TestDedupTTLExpiry(t *testing.T) {
	r := testNode(1)
	d := digest{origin: 0, seq: 1}
	if !r.observe(d, 0) {
		t.Fatal("first observe not fresh")
	}
	if r.observe(d, r.dedupTTL-1) {
		t.Fatal("observe inside TTL reported fresh")
	}
	if !r.observe(d, r.dedupTTL) {
		t.Fatal("observe after TTL lapse not fresh again")
	}
}

func TestQueueCapDropsNewest(t *testing.T) {
	r := testNode(1)
	for seq := uint64(0); seq < uint64(r.queueCap)+3; seq++ {
		r.originate(entry(0, seq), 0)
	}
	if got := r.st.QueueDrops; got != 3 {
		t.Fatalf("queueDrops = %d, want 3", got)
	}
	s := flushTo(r, 0)[0]
	out := meant(s, 1)
	if len(out) != r.queueCap || s.size != wireSize(out) {
		t.Fatalf("flushed %d entries (%d B), want %d", len(out), s.size, r.queueCap)
	}
	for i, e := range out {
		if e.d.seq != uint64(i) {
			t.Fatalf("entry %d has seq %d: queue dropped old entries instead of new", i, e.d.seq)
		}
	}
}

// A peer whose backlog fills is cut there while the others read on: the
// cut is per peer, over the one shared window.
func TestQueueCapCutsPerPeer(t *testing.T) {
	r := testNode(1, 2)
	for seq := uint64(0); seq < uint64(r.queueCap); seq++ {
		r.ingest(2, entry(0, seq), 0) // meant for 1 only
	}
	r.ingest(1, entry(0, 100), 0) // meant for 2 only
	r.ingest(3, entry(0, 101), 0) // meant for both: 1 is full
	if got := r.st.QueueDrops; got != 1 {
		t.Fatalf("queueDrops = %d, want 1", got)
	}
	s := flushTo(r, 0)
	if got := meant(s[0], 1); len(got) != r.queueCap || got[len(got)-1].d.seq != uint64(r.queueCap)-1 {
		t.Fatalf("peer 1 reads %v, want its first %d entries", got, r.queueCap)
	}
	got := meant(s[1], 2)
	if len(got) != 2 || got[0].d.seq != 100 || got[1].d.seq != 101 || s[1].size != wireSize(got) {
		t.Fatalf("peer 2 reads %v (%d B), want seqs 100 and 101", got, s[1].size)
	}
}

func TestEntryTTLExpiry(t *testing.T) {
	r := testNode(1)
	r.originate(entry(0, 1), 0)
	r.originate(entry(0, 2), r.entryTTL/2)
	s := flushTo(r, r.entryTTL)[0]
	if out := meant(s, 1); len(out) != 1 || out[0].d.seq != 2 || s.size != wireSize(out) {
		t.Fatalf("flush = %v (%d B), want only the young entry (seq 2)", out, s.size)
	}
	if got := r.st.Expired; got != 1 {
		t.Fatalf("expired = %d, want 1", got)
	}
}

// A flush allocates nothing once a window has come back: every peer's
// envelope is the window's one envelope, and when its last delivery is
// received the window returns to the node to hold the next burst. A flush
// of an empty log allocates nothing and sends nothing. A window with a
// delivery outstanding is its readers': the next flush takes another.
func TestFlushAllocatesResultOnce(t *testing.T) {
	peers := []wire.NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	r := testNode(peers...)
	r.queueCap = 0
	var got [9]*Envelope // by peer id
	var sends int
	record := func(to wire.NodeID, env *Envelope, _ int) int { got[to] = env; sends++; return 1 }
	if r.flush(0, record); sends != 0 {
		t.Fatalf("flush of an empty log sends %d envelopes, want none", sends)
	}
	var seq uint64
	burst := func() {
		from := seq
		for range 100 {
			r.originate(entry(0, seq), 0)
			seq++
		}
		r.flush(0, record)
		for _, p := range peers {
			if len(got[p].entries) != 100 || got[p] != got[1] || got[p].entries[99].d.seq != from+99 {
				t.Fatalf("peer %d: %d entries, shared %v; want the one envelope of seqs %d..%d", p,
					len(got[p].entries), got[p] == got[1], from, from+99)
			}
		}
	}
	burst()
	held := got[1] // never received
	heldCopy := slices.Clone(held.entries)
	allocs := testing.AllocsPerRun(10, func() {
		burst()
		if got[1] == held {
			t.Fatal("a window with deliveries outstanding was flushed again")
		}
		for _, p := range peers {
			got[p].w.received()
		}
		sends = 0
		if r.flush(0, record); sends != 0 {
			t.Fatal("second flush not empty")
		}
	})
	if allocs != 0 {
		t.Fatalf("originate 100 toward %d peers + flush into a recycled window allocates %.1f times, want 0", len(peers), allocs)
	}
	if !slices.Equal(held.entries, heldCopy) {
		t.Fatal("a window with deliveries outstanding was written")
	}
}

func TestMaxHopsBackstop(t *testing.T) {
	r := testNode(1, 2)
	e := entry(0, 1)
	e.hops = r.maxHops
	if !r.ingest(3, e, 0) {
		t.Fatal("entry at hop cap should still be fresh (delivered locally)")
	}
	for p, s := range flushTo(r, 0) {
		if s.env != nil {
			t.Fatalf("entry at hop cap was re-queued toward peer %d: %v", p, s.env.entries)
		}
	}
	if got := r.st.Relayed; got != 0 {
		t.Fatalf("relayed = %d, want 0", got)
	}
}

func TestSabotageHooks(t *testing.T) {
	r := testNode(1)
	r.dedup.forgetful = true
	e := entry(0, 1)
	if !r.ingest(2, e, 0) || !r.ingest(2, e, 0) {
		t.Fatal("broken dedup should report every ingest fresh")
	}

	r = testNode(1)
	m := &Mesh{nodes: map[wire.NodeID]*meshNode{0: r}}
	m.BreakExpiryForTest()
	r.originate(entry(0, 2), 0)
	if s := flushTo(r, 0)[0]; s.env != nil {
		t.Fatalf("broken expiry should ship nothing, got %v", s.env.entries)
	}
	if got := r.st.Expired; got != 1 {
		t.Fatalf("broken expiry counted %d expired, want 1", got)
	}
}

// oracleTTL is the dedup TTL of every model-checked run below.
const oracleTTL = 200 * time.Millisecond

// dedupOp is one step of a model-checked run: digest d is marked dt after
// the previous step, or — atExpiry — dt after the moment the model forgets d
// (dt may be negative; ignored if that moment is unknown or already past).
// from and hops only matter when the step is played through ingest.
type dedupOp struct {
	d        digest
	atExpiry bool
	dt       time.Duration
	from     wire.NodeID
	hops     int
}

// oracleSeqBases are where decodeDedupOps draws sequence numbers from, each
// plus 0..15: dense from zero, across page boundaries (63/64, 511/512), and
// far apart up to the end of the range, where the offset wraps around to
// zero.
var oracleSeqBases = [...]uint64{0, 56, 504, 1 << 20, 1 << 40, 1<<40 + 504, 1 << 63, ^uint64(0) - 7}

// oracleOrigins are the origins decodeDedupOps draws from: 0, 64 and 128
// share a slot of the cache's cursor table, as do 1 and 65.
var oracleOrigins = [...]wire.NodeID{0, 1, 2, 64, 65, 128}

// decodeDedupOps reads four bytes per step: origin, sequence-number
// selector, from/hops, and when.
func decodeDedupOps(data []byte) []dedupOp {
	var ops []dedupOp
	for i := 0; i+3 < len(data); i += 4 {
		sel, when := data[i+1], data[i+3]
		op := dedupOp{
			d:    digest{origin: oracleOrigins[data[i]%6], seq: oracleSeqBases[sel>>4%8] + uint64(sel&15)},
			from: wire.NodeID(data[i+2] % 6),
			hops: int(data[i+2] % 4),
		}
		switch when & 3 {
		case 0:
			op.dt = time.Duration(when>>2) * 4 * time.Millisecond
		case 1:
			op.atExpiry = true
		case 2:
			op.atExpiry, op.dt = true, 1
		case 3:
			op.atExpiry, op.dt = true, -1
		}
		ops = append(ops, op)
	}
	return ops
}

// checkAgainstModel plays ops through mark and through the structure the
// pages stand for — a literal digest→expiry table, never pruned — and
// returns the first step on which the two disagree. It returns the final
// clock too.
func checkAgainstModel(ops []dedupOp, mark func(op dedupOp, now time.Duration) bool) (time.Duration, error) {
	model := map[digest]time.Duration{}
	now := time.Duration(0)
	for i, op := range ops {
		exp, seen := model[op.d]
		switch {
		case !op.atExpiry:
			now += op.dt
		case seen && exp+op.dt >= now:
			now = exp + op.dt
		}
		want := !seen || exp <= now
		if want {
			model[op.d] = now + oracleTTL
		}
		if got := mark(op, now); got != want {
			return now, fmt.Errorf("step %d: %v at %v: fresh = %v, the model says %v (its expiry: %v, known: %v)",
				i, op.d, now, got, want, exp, seen)
		}
	}
	return now, nil
}

func markDirect(c *dedupCache) func(dedupOp, time.Duration) bool {
	return func(op dedupOp, now time.Duration) bool { return c.mark(op.d, now, oracleTTL) }
}

// FuzzGossipDedup drives the dedup cache, directly and through a mesh
// node's ingest, with an arbitrary stream of marks decoded from the fuzz
// input, and requires the verdict of a literal digest→expiry table on
// every single call — so a cache that forgets early, remembers too long or
// always says "stale" fails at the first step that shows it. It then checks
// what the mesh needs of the flushed window: no peer's envelope holds a
// duplicate digest or an entry meant for its own origin.
func FuzzGossipDedup(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 9, 9, 9})
	f.Add([]byte{255, 0, 255, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	// One digest, re-marked just before, exactly at and just after expiry.
	f.Add([]byte{0, 0x17, 0, 0, 0, 0x17, 0, 3, 0, 0x17, 0, 1, 0, 0x17, 0, 2})
	// Neighbours across the page boundary and the range's two ends, then a
	// long pause and the same again.
	f.Add([]byte{2, 0x27, 0, 0, 2, 0x28, 0, 0, 2, 0x70, 0, 0, 2, 0x78, 0, 0, 2, 0x27, 0, 252, 2, 0x28, 0, 0, 2, 0x78, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeDedupOps(data)
		var c dedupCache
		if _, err := checkAgainstModel(ops, markDirect(&c)); err != nil {
			t.Fatalf("mark: %v", err)
		}

		peers := []wire.NodeID{0, 1, 2, 3}
		r := newMeshNode(peers, 6)
		r.queueCap, r.entryTTL, r.dedupTTL = 16, 50*time.Millisecond, oracleTTL
		now, err := checkAgainstModel(ops, func(op dedupOp, now time.Duration) bool {
			return r.ingest(op.from, meshEntry{d: op.d, hops: op.hops, payload: "p", size: 1}, now)
		})
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		// Every peer's backlog must be duplicate-free and must not target
		// the entry's own origin.
		for i, s := range flushTo(r, now) {
			p := peers[i]
			seen := map[digest]bool{}
			for _, e := range meant(s, p) {
				if seen[e.d] {
					t.Fatalf("peer %d queue holds digest %v twice", p, e.d)
				}
				seen[e.d] = true
				if e.d.origin == p {
					t.Fatalf("entry from origin %d queued back toward its origin", p)
				}
			}
		}
	})
}

// The model check is only worth its slot in CI if a broken cache fails it.
// Two mutants, each the real cache with one line changed, built here around
// the real mark: one releases a page when its queue slot lapses although a
// later expiry in it is live; one reads an expiry equal to now as live —
// marking at now−1 with a TTL one longer stores the same expiry and turns
// the verdict "expiry ≤ now is fresh" into "expiry < now is fresh".
func TestDedupOracleCatchesBrokenCaches(t *testing.T) {
	mutants := map[string]func(c *dedupCache, d digest, now time.Duration) bool{
		"a page is released while one of its expiries is live": func(c *dedupCache, d digest, now time.Duration) bool {
			for c.head < len(c.queue) && c.queue[c.head].exp <= now {
				c.release(c.queue[c.head].p)
				c.head++
			}
			return c.mark(d, now, oracleTTL)
		},
		"an expiry at now reads as live": func(c *dedupCache, d digest, now time.Duration) bool {
			return c.mark(d, now-1, oracleTTL+1)
		},
	}
	seq := func(n uint64) digest { return digest{origin: 3, seq: n} }
	ops := []dedupOp{
		{d: seq(64), dt: time.Millisecond}, // after 0, where a page never made reads 0 too
		{d: seq(65), dt: oracleTTL / 2},
		{d: seq(64), atExpiry: true},       // fresh again exactly at expiry; (3, 65), on its page, is still live
		{d: seq(65), dt: time.Millisecond}, // and must still read stale
	}
	var c dedupCache
	if _, err := checkAgainstModel(ops, markDirect(&c)); err != nil {
		t.Fatalf("the real cache fails the sequence meant for the mutants: %v", err)
	}
	for name, mark := range mutants {
		var c dedupCache
		_, err := checkAgainstModel(ops, func(op dedupOp, now time.Duration) bool { return mark(&c, op.d, now) })
		if err == nil {
			t.Errorf("mutant %q passes the model check", name)
		} else {
			t.Logf("mutant %q: %v", name, err)
		}
	}
}

// Sequence numbers are arbitrary to the cache: marks at the two ends of the
// range and in the middle cost a page each, not a table as long as the gap.
func TestDedupFarApartMarksCostPages(t *testing.T) {
	least := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var c dedupCache
		for _, seq := range []uint64{0, 1 << 40, ^uint64(0)} {
			if !c.mark(digest{origin: 1, seq: seq}, 0, time.Second) {
				t.Fatalf("seq %d not fresh", seq)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if len(c.pages) != 3 {
			t.Fatalf("%d pages for three far-apart marks", len(c.pages))
		}
		// Once everything has expired the pages are gone too.
		c.expire(time.Second)
		if len(c.pages) != 0 || c.cur[1] != nil || c.head != len(c.queue) {
			t.Fatalf("%d pages left after every digest expired", len(c.pages))
		}
	}
	t.Logf("three far-apart marks allocate %d B", least)
	if least >= 4096 {
		t.Fatalf("three far-apart marks allocate %d B, want < 4 KiB", least)
	}
}

// The steady-state paths of a relay allocate nothing of their own: a mark
// of a digest already seen is an expiry test, a fresh ingest costs its share
// of a page (one per seqPageSize sequence numbers) and of the page queue's
// growth, and a flush reuses the window its last receiver handed back.
func TestRelaySteadyStateAllocations(t *testing.T) {
	r := testNode(1, 2, 3)
	r.queueCap, r.dedupTTL = 0, time.Hour
	const burst = 4 * seqPageSize
	var seq uint64
	ingestBurst := func() {
		for range burst {
			r.ingest(1, entry(0, seq), 0)
			seq++
		}
		r.flush(0, func(wire.NodeID, *Envelope, int) int { return 0 })
	}
	ingestBurst() // the window learns the burst's size
	perBurst := testing.AllocsPerRun(4, ingestBurst)
	// 4 pages, and the page queue or the page map growing now and then.
	if perBurst > 4+1 {
		t.Fatalf("%d fresh ingests allocate %.2f times, want their 4 pages", burst, perBurst)
	}
	seen := entry(0, seq-1)
	if a := testing.AllocsPerRun(100, func() {
		if r.ingest(2, seen, 0) || r.observe(seen.d, 0) {
			t.Fatal("seen digest reported fresh")
		}
	}); a != 0 {
		t.Fatalf("marking a seen digest allocates %.1f times, want 0", a)
	}
}
