package gossip

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/wire"
)

func testConfig() Config {
	return Config{
		QueueCap: 4,
		EntryTTL: 100 * time.Millisecond,
		DedupTTL: time.Second,
		MaxHops:  8,
	}
}

func entry(origin wire.NodeID, seq uint64) Entry {
	return Entry{Digest: Digest{Origin: origin, Seq: seq}, Payload: "x", Size: 10}
}

func TestIngestDedup(t *testing.T) {
	r := NewRelay([]wire.NodeID{1, 2, 3}, testConfig())
	e := entry(0, 7)
	if !r.Ingest(1, e, 0) {
		t.Fatal("first ingest not fresh")
	}
	if r.Ingest(2, e, time.Millisecond) {
		t.Fatal("second ingest of same digest reported fresh")
	}
	st := r.Stats()
	if st.DedupDrops != 1 || st.Relayed != 1 {
		t.Fatalf("stats = %+v, want 1 dedup drop and 1 relayed", st)
	}
}

func TestIngestSkipsSourceAndOrigin(t *testing.T) {
	// Peer ids equal their index in the relay's peer list.
	r := NewRelay([]wire.NodeID{0, 1, 2, 3}, testConfig())
	r.Ingest(1, entry(0, 7), 0) // arrived from 1, originated at 0
	for _, p := range []int{0, 1} {
		if got := r.Flush(p, 0); len(got) != 0 {
			t.Fatalf("entry re-queued toward %d (origin/source)", p)
		}
	}
	for _, p := range []int{2, 3} {
		got := r.Flush(p, 0)
		if len(got) != 1 || got[0].Hops != 1 {
			t.Fatalf("peer %d: got %v, want one entry at hop 1", p, got)
		}
	}
}

func TestDedupTTLExpiry(t *testing.T) {
	cfg := testConfig()
	r := NewRelay([]wire.NodeID{1}, cfg)
	d := Digest{Origin: 0, Seq: 1}
	if !r.Observe(d, 0) {
		t.Fatal("first observe not fresh")
	}
	if r.Observe(d, cfg.DedupTTL-1) {
		t.Fatal("observe inside TTL reported fresh")
	}
	if !r.Observe(d, cfg.DedupTTL) {
		t.Fatal("observe after TTL lapse not fresh again")
	}
}

func TestQueueCapDropsNewest(t *testing.T) {
	cfg := testConfig()
	r := NewRelay([]wire.NodeID{1}, cfg)
	for seq := uint64(0); seq < uint64(cfg.QueueCap)+3; seq++ {
		r.Enqueue(0, entry(0, seq), 0)
	}
	if got := r.Stats().QueueDrops; got != 3 {
		t.Fatalf("queueDrops = %d, want 3", got)
	}
	out := r.Flush(0, 0)
	if len(out) != cfg.QueueCap {
		t.Fatalf("flushed %d entries, want %d", len(out), cfg.QueueCap)
	}
	for i, e := range out {
		if e.Digest.Seq != uint64(i) {
			t.Fatalf("entry %d has seq %d: queue dropped old entries instead of new", i, e.Digest.Seq)
		}
	}
}

func TestEntryTTLExpiry(t *testing.T) {
	cfg := testConfig()
	r := NewRelay([]wire.NodeID{1}, cfg)
	r.Enqueue(0, entry(0, 1), 0)
	r.Enqueue(0, entry(0, 2), cfg.EntryTTL/2)
	out := r.Flush(0, cfg.EntryTTL)
	if len(out) != 1 || out[0].Digest.Seq != 2 {
		t.Fatalf("flush = %v, want only the young entry (seq 2)", out)
	}
	if got := r.Stats().Expired; got != 1 {
		t.Fatalf("expired = %d, want 1", got)
	}
}

// A flush allocates its result once, at the backlog's size, and a flush of
// an empty queue allocates nothing and returns nil. Each result is its own
// slice: it leaves in an Envelope, so a later flush must not write over it.
func TestFlushAllocatesResultOnce(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCap = 0
	r := NewRelay([]wire.NodeID{1}, cfg)
	if got := r.Flush(0, 0); got != nil {
		t.Fatalf("flush of an empty queue = %v, want nil", got)
	}
	var first []Entry
	var seq uint64
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			r.Enqueue(0, entry(0, seq), 0)
			seq++
		}
		out := r.Flush(0, 0)
		if len(out) != 100 || cap(out) != 100 {
			t.Fatalf("flush len/cap = %d/%d, want 100/100", len(out), cap(out))
		}
		if first == nil {
			first = out
		}
		if r.Flush(0, 0) != nil {
			t.Fatal("second flush not nil")
		}
	})
	if allocs != 1 {
		t.Fatalf("enqueue 100 + flush allocates %.1f times, want 1 (the result)", allocs)
	}
	for i, e := range first {
		if e.Digest.Seq != uint64(i) {
			t.Fatalf("first flush's entry %d was overwritten by a later one", i)
		}
	}
}

func TestMaxHopsBackstop(t *testing.T) {
	cfg := testConfig()
	r := NewRelay([]wire.NodeID{1, 2}, cfg)
	e := entry(0, 1)
	e.Hops = cfg.MaxHops
	if !r.Ingest(3, e, 0) {
		t.Fatal("entry at hop cap should still be fresh (delivered locally)")
	}
	for p := range 2 {
		if got := r.Flush(p, 0); len(got) != 0 {
			t.Fatalf("entry at hop cap was re-queued: %v", got)
		}
	}
	if got := r.Stats().Relayed; got != 0 {
		t.Fatalf("relayed = %d, want 0", got)
	}
}

func TestSabotageHooks(t *testing.T) {
	cfg := testConfig()

	r := NewRelay([]wire.NodeID{1}, cfg)
	r.BreakDedupForTest()
	e := entry(0, 1)
	if !r.Ingest(2, e, 0) || !r.Ingest(2, e, 0) {
		t.Fatal("broken dedup should report every ingest fresh")
	}

	r = NewRelay([]wire.NodeID{1}, cfg)
	r.BreakExpiryForTest()
	r.Enqueue(0, entry(0, 2), 0)
	if got := r.Flush(0, 0); len(got) != 0 {
		t.Fatalf("broken expiry should drain nothing, got %v", got)
	}
}

// oracleTTL is the dedup TTL of every model-checked run below.
const oracleTTL = 200 * time.Millisecond

// dedupOp is one step of a model-checked run: digest d is marked dt after
// the previous step, or — atExpiry — dt after the moment the model forgets d
// (dt may be negative; ignored if that moment is unknown or already past).
// from and hops only matter when the step is played through Relay.Ingest.
type dedupOp struct {
	d        Digest
	atExpiry bool
	dt       time.Duration
	from     wire.NodeID
	hops     int
}

// oracleSeqBases are where decodeDedupOps draws sequence numbers from, each
// plus 0..15: dense from zero, across a word boundary (63/64), across a page
// boundary (511/512), and far apart up to the end of the range, where the
// offset wraps around to zero.
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
			d:    Digest{Origin: oracleOrigins[data[i]%6], Seq: oracleSeqBases[sel>>4%8] + uint64(sel&15)},
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
// bitmap replaced — a literal digest→expiry table, never pruned — and
// returns the first step on which the two disagree. It returns the final
// clock too.
func checkAgainstModel(ops []dedupOp, mark func(op dedupOp, now time.Duration) bool) (time.Duration, error) {
	model := map[Digest]time.Duration{}
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

// FuzzGossipDedup drives the dedup cache, directly and through
// Relay.Ingest, with an arbitrary stream of marks decoded from the fuzz
// input, and requires the verdict of a literal digest→expiry table on
// every single call — so a cache that forgets early, remembers too long or
// always says "stale" fails at the first step that shows it. It then checks
// what the mesh needs of the queues: no flushed backlog contains a
// duplicate digest or an entry queued toward its own origin.
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
		r := NewRelay(peers, Config{
			QueueCap: 16,
			EntryTTL: 50 * time.Millisecond,
			DedupTTL: oracleTTL,
			MaxHops:  6,
		})
		now, err := checkAgainstModel(ops, func(op dedupOp, now time.Duration) bool {
			return r.Ingest(op.from, Entry{Digest: op.d, Hops: op.hops, Payload: "p", Size: 1}, now)
		})
		if err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		// Every queued backlog must be duplicate-free and must not target
		// the entry's own origin.
		for i, p := range peers {
			seen := map[Digest]bool{}
			for _, e := range r.Flush(i, now) {
				if seen[e.Digest] {
					t.Fatalf("peer %d queue holds digest %v twice", p, e.Digest)
				}
				seen[e.Digest] = true
				if e.Digest.Origin == p {
					t.Fatalf("entry from origin %d queued back toward its origin", p)
				}
			}
		}
	})
}

// The model check is only worth its slot in CI if a broken cache fails it.
// Two mutants, each the real cache with one line of expire changed, built
// here by doing expire's work before the real mark gets to: one pops lapsed
// slots without clearing their bits, one releases a slot's page although
// other bits in it are still live.
func TestDedupOracleCatchesBrokenCaches(t *testing.T) {
	popLapsed := func(c *dedupCache, now time.Duration, forget func(Digest)) {
		for c.head < len(c.fifo) && c.fifo[c.head].exp <= now {
			forget(c.fifo[c.head].d)
			c.head++
		}
	}
	mutants := map[string]func(*dedupCache, time.Duration){
		"expire leaves the bit set": func(c *dedupCache, now time.Duration) {
			popLapsed(c, now, func(Digest) {})
		},
		"a page is released with live bits": func(c *dedupCache, now time.Duration) {
			popLapsed(c, now, func(d Digest) {
				delete(c.pages, seqPageKey{d.Origin, d.Seq >> seqPageShift})
				c.cur[uint(d.Origin)%dedupCursors].p = nil
			})
		},
	}
	seq := func(n uint64) Digest { return Digest{Origin: 3, Seq: n} }
	ops := []dedupOp{
		{d: seq(64)},
		{d: seq(65), dt: oracleTTL / 2},
		{d: seq(64), atExpiry: true},       // fresh again exactly at expiry; (3, 65) is still live
		{d: seq(65), dt: time.Millisecond}, // and must still read stale
	}
	var c dedupCache
	if _, err := checkAgainstModel(ops, markDirect(&c)); err != nil {
		t.Fatalf("the real cache fails the sequence meant for the mutants: %v", err)
	}
	for name, expire := range mutants {
		var c dedupCache
		_, err := checkAgainstModel(ops, func(op dedupOp, now time.Duration) bool {
			expire(&c, now)
			return c.mark(op.d, now, oracleTTL)
		})
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
			if !c.mark(Digest{Origin: 1, Seq: seq}, 0, time.Second) {
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
		if len(c.pages) != 0 || c.cur[1].p != nil {
			t.Fatalf("%d pages left after every digest expired", len(c.pages))
		}
	}
	t.Logf("three far-apart marks allocate %d B", least)
	if least >= 4096 {
		t.Fatalf("three far-apart marks allocate %d B, want < 4 KiB", least)
	}
}

// The steady-state paths of a relay allocate nothing of their own: a mark
// of a digest already seen is a bit test, and a fresh ingest costs its
// share of a page (one per seqPageSize sequence numbers) plus growth of the
// expiry FIFO and the peer queues, which stop growing once they have seen
// their peak.
func TestRelaySteadyStateAllocations(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCap = 0
	cfg.DedupTTL = time.Hour
	r := NewRelay([]wire.NodeID{1, 2, 3}, cfg)
	const burst = 4 * seqPageSize
	var seq uint64
	ingestBurst := func() {
		for range burst {
			r.Ingest(1, entry(0, seq), 0)
			seq++
		}
		for p := range 3 {
			r.Flush(p, 0)
		}
	}
	ingestBurst() // the queues reach their peak capacity
	perBurst := testing.AllocsPerRun(4, ingestBurst)
	// 4 pages, 2 flush results, and the FIFO doubling now and then.
	if perBurst > 4+2+2 {
		t.Fatalf("%d fresh ingests allocate %.0f times, want their 4 pages and 2 flush results", burst, perBurst)
	}
	seen := entry(0, seq-1)
	if a := testing.AllocsPerRun(100, func() {
		if r.Ingest(2, seen, 0) || r.Observe(seen.Digest, 0) {
			t.Fatal("seen digest reported fresh")
		}
	}); a != 0 {
		t.Fatalf("marking a seen digest allocates %.1f times, want 0", a)
	}
}
