package gossip

import (
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
	r := NewRelay([]wire.NodeID{0, 1, 2, 3}, testConfig())
	r.Ingest(1, entry(0, 7), 0) // arrived from 1, originated at 0
	for _, p := range []wire.NodeID{0, 1} {
		if got := r.Flush(p, 0); len(got) != 0 {
			t.Fatalf("entry re-queued toward %d (origin/source)", p)
		}
	}
	for _, p := range []wire.NodeID{2, 3} {
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
		r.Enqueue(1, entry(0, seq), 0)
	}
	if got := r.Stats().QueueDrops; got != 3 {
		t.Fatalf("queueDrops = %d, want 3", got)
	}
	out := r.Flush(1, 0)
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
	r.Enqueue(1, entry(0, 1), 0)
	r.Enqueue(1, entry(0, 2), cfg.EntryTTL/2)
	out := r.Flush(1, cfg.EntryTTL)
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
	if got := r.Flush(1, 0); got != nil {
		t.Fatalf("flush of an empty queue = %v, want nil", got)
	}
	var first []Entry
	var seq uint64
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 100; i++ {
			r.Enqueue(1, entry(0, seq), 0)
			seq++
		}
		out := r.Flush(1, 0)
		if len(out) != 100 || cap(out) != 100 {
			t.Fatalf("flush len/cap = %d/%d, want 100/100", len(out), cap(out))
		}
		if first == nil {
			first = out
		}
		if r.Flush(1, 0) != nil {
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
	if got := r.Flush(1, 0); len(got) != 0 {
		t.Fatalf("entry at hop cap was re-queued: %v", got)
	}
	if got := r.Stats().Relayed; got != 0 {
		t.Fatalf("relayed = %d, want 0", got)
	}
}

func TestSabotageHooks(t *testing.T) {
	cfg := testConfig()

	SetBreakDedupForTest(true)
	r := NewRelay([]wire.NodeID{1}, cfg)
	e := entry(0, 1)
	if !r.Ingest(2, e, 0) || !r.Ingest(2, e, 0) {
		t.Fatal("broken dedup should report every ingest fresh")
	}
	SetBreakDedupForTest(false)

	SetBreakExpiryForTest(true)
	r = NewRelay([]wire.NodeID{1}, cfg)
	r.Enqueue(1, entry(0, 2), 0)
	if got := r.Flush(1, 0); len(got) != 0 {
		t.Fatalf("broken expiry should drain nothing, got %v", got)
	}
	SetBreakExpiryForTest(false)
}

// FuzzGossipDedup drives a relay with an arbitrary stream of
// (origin, seq, from, time-delta) events decoded from the fuzz input and
// checks the two invariants the mesh depends on: a digest is never
// reported fresh twice inside a dedup-TTL window (no double delivery to
// one node), and no flushed queue contains a duplicate digest or an entry
// queued toward the peer it arrived from or its origin.
func FuzzGossipDedup(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 9, 9, 9})
	f.Add([]byte{255, 0, 255, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		peers := []wire.NodeID{0, 1, 2, 3}
		cfg := Config{
			QueueCap: 16,
			EntryTTL: 50 * time.Millisecond,
			DedupTTL: 200 * time.Millisecond,
			MaxHops:  6,
		}
		r := NewRelay(peers, cfg)
		now := time.Duration(0)
		// freshUntil tracks, per digest, the end of its dedup window as of
		// the last time the relay reported it fresh.
		freshUntil := map[Digest]time.Duration{}
		for i := 0; i+3 < len(data); i += 4 {
			d := Digest{Origin: wire.NodeID(data[i] % 6), Seq: uint64(data[i+1] % 8)}
			from := wire.NodeID(data[i+2] % 6)
			now += time.Duration(data[i+3]) * time.Millisecond
			e := Entry{Digest: d, Hops: int(data[i+2] % 4), Payload: "p", Size: 1}
			fresh := r.Ingest(from, e, now)
			if fresh {
				if until, ok := freshUntil[d]; ok && now < until {
					t.Fatalf("digest %v fresh twice inside its dedup window (now %v < until %v)", d, now, until)
				}
				freshUntil[d] = now + cfg.DedupTTL
			}
		}
		// Every queued backlog must be duplicate-free and must not target
		// the entry's own origin.
		for _, p := range peers {
			seen := map[Digest]bool{}
			for _, e := range r.Flush(p, now) {
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
