package gossip

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
)

// fifoModel is the relay's queues as they were before the shared log: one
// bounded FIFO per peer that drops the newest entry at QueueCap, every
// entry copied into the queue of each peer it is meant for, and a drain
// that expires entry by entry. Its dedup is a literal digest→expiry table.
type fifoModel struct {
	cfg       Config
	peers     []wire.NodeID
	seen      map[Digest]time.Duration
	queues    [][]modelEntry
	expireAll bool
	st        Stats
}

type modelEntry struct {
	e  Entry
	at time.Duration
}

func newFIFOModel(peers []wire.NodeID, cfg Config) *fifoModel {
	return &fifoModel{cfg: cfg, peers: peers, seen: map[Digest]time.Duration{}, queues: make([][]modelEntry, len(peers))}
}

func (m *fifoModel) mark(d Digest, now time.Duration) bool {
	if exp, ok := m.seen[d]; ok && exp > now {
		return false
	}
	m.seen[d] = now + m.cfg.DedupTTL
	return true
}

func (m *fifoModel) enqueue(e Entry, from wire.NodeID, now time.Duration) {
	for i, p := range m.peers {
		if p == from || p == e.Digest.Origin {
			continue
		}
		if m.cfg.QueueCap > 0 && len(m.queues[i]) >= m.cfg.QueueCap {
			m.st.QueueDrops++
			continue
		}
		m.queues[i] = append(m.queues[i], modelEntry{e, now})
	}
}

func (m *fifoModel) ingest(from wire.NodeID, e Entry, now time.Duration) bool {
	if !m.mark(e.Digest, now) {
		m.st.DedupDrops++
		return false
	}
	if e.Hops < m.cfg.MaxHops {
		e.Hops++
		m.enqueue(e, from, now)
		m.st.Relayed++
	}
	return true
}

// drain empties peer i's queue, returning what is still inside EntryTTL.
func (m *fifoModel) drain(i int, now time.Duration) []Entry {
	var out []Entry
	for _, q := range m.queues[i] {
		if m.expireAll || (m.cfg.EntryTTL > 0 && q.at+m.cfg.EntryTTL <= now) {
			m.st.Expired++
			continue
		}
		out = append(out, q.e)
	}
	m.queues[i] = nil
	return out
}

func sameEntries(got, want []Entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, the model has %d", len(got), len(want))
	}
	for k := range got {
		g, w := got[k], want[k]
		if g.Digest != w.Digest || g.Hops != w.Hops || g.Payload != w.Payload || g.Size != w.Size {
			return fmt.Errorf("entry %d is %v/hop %d/%v/%d B, the model has %v/hop %d/%v/%d B",
				k, g.Digest, g.Hops, g.Payload, g.Size, w.Digest, w.Hops, w.Payload, w.Size)
		}
	}
	return nil
}

// relayPeers are the fuzzed relay's peers; it sits at node 0, and origin 5
// is a node that is not its peer.
var relayPeers = []wire.NodeID{1, 2, 3, 4}

// FuzzRelayQueues replays an arbitrary sequence of originations, ingests,
// flushes and clock steps through a Relay and through fifoModel, with
// small caps and TTLs and, on some inputs, BreakExpiryForTest. After every
// step the counters must agree; at every flush each peer must read the
// model's entries, in its order, with the model's entry count and payload
// bytes (its envelope size), every non-empty share must view the one
// window, and the windows handed out earlier must be unchanged.
func FuzzRelayQueues(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 0, 1, 1, 10, 1, 2, 11, 2, 0, 0})
	f.Add([]byte{1, 2, 1, 0, 5, 0, 0, 6, 0, 0, 7, 0, 1, 9, 8, 3, 3, 0, 2, 0, 0})
	f.Add([]byte{3, 3, 0, 1, 17, 4, 1, 33, 5, 3, 255, 0, 1, 17, 4, 2, 0, 0, 0, 1, 2})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := Config{
			QueueCap: int(data[0] % 5), // 0 is unbounded
			EntryTTL: time.Duration(data[1]%4) * 10 * time.Millisecond,
			DedupTTL: 40 * time.Millisecond,
			MaxHops:  3,
		}
		r := NewRelay(relayPeers, cfg)
		m := newFIFOModel(relayPeers, cfg)
		if data[2]%4 == 1 {
			r.BreakExpiryForTest()
			m.expireAll = true
		}
		type handedOut struct {
			share Share
			copy  []Entry
		}
		var windows []handedOut
		var now time.Duration
		var seq uint64
		for step, i := 0, 3; i+2 < len(data); step, i = step+1, i+3 {
			op, a, b := data[i]%5, data[i+1], data[i+2]
			switch op {
			case 0: // originate
				e := Entry{Digest: Digest{Origin: 0, Seq: seq}, Payload: int(seq), Size: int(b % 50)}
				seq++
				if got, want := r.Observe(e.Digest, now), m.mark(e.Digest, now); got != want {
					t.Fatalf("step %d: Observe %v = %v, the model says %v", step, e.Digest, got, want)
				}
				r.Originate(e, now)
				m.enqueue(e, e.Digest.Origin, now)
			case 1, 2: // ingest from a peer; origins 0..5, a handful of seqs so repeats happen
				from := relayPeers[a%4]
				e := Entry{
					Digest:  Digest{Origin: wire.NodeID(a >> 2 % 6), Seq: 1000 + uint64(b%8)},
					Hops:    int(a >> 5 % 4),
					Payload: int(b),
					Size:    int(b),
				}
				if got, want := r.Ingest(from, e, now), m.ingest(from, e, now); got != want {
					t.Fatalf("step %d: Ingest %v from %d = %v, the model says %v", step, e.Digest, from, got, want)
				}
			case 3: // flush
				shares := r.Flush(now)
				var window *Entry
				for k, p := range relayPeers {
					sh := shares[k]
					want := m.drain(k, now)
					got := meant(sh, p)
					if err := sameEntries(got, want); err != nil {
						t.Fatalf("step %d: peer %d reads %v", step, p, err)
					}
					// The mesh sizes an envelope from N and Bytes alone, so
					// equal counts are an equal envelope size.
					bytes := 0
					for _, e := range want {
						bytes += e.Size
					}
					if sh.N != len(want) || sh.Bytes != bytes {
						t.Fatalf("step %d: peer %d share says %d entries/%d B, the model %d/%d", step, p, sh.N, sh.Bytes, len(want), bytes)
					}
					if sh.N == 0 {
						continue
					}
					if window == nil {
						window = &sh.Entries[0]
					} else if &sh.Entries[0] != window {
						t.Fatalf("step %d: peer %d's share is not a view of the flush's window", step, p)
					}
					windows = append(windows, handedOut{sh, append([]Entry(nil), sh.Entries...)})
				}
			case 4: // the clock moves
				now += time.Duration(b%16) * 3 * time.Millisecond
			}
			if got := r.Stats(); got != m.st {
				t.Fatalf("step %d (op %d): counters %+v, the model's %+v", step, op, got, m.st)
			}
		}
		for k, w := range windows {
			for j := range w.copy {
				if w.share.Entries[j] != w.copy[j] {
					t.Fatalf("window %d: entry %d was written after it was handed out", k, j)
				}
			}
		}
	})
}

// BenchmarkRelayFanout relays bursts of 1,000 fresh entries at a fanout-8
// relay and flushes after each: one op is one relayed entry, so B/op and
// allocs/op are per entry.
func BenchmarkRelayFanout(b *testing.B) {
	const burst = 1000
	peers := []wire.NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	r := NewRelay(peers, Config{
		QueueCap: 8192,
		EntryTTL: 250 * time.Millisecond,
		DedupTTL: 10 * time.Millisecond,
		MaxHops:  50,
	})
	var now time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Ingest(peers[i%len(peers)], Entry{Digest: Digest{Origin: 9, Seq: uint64(i)}, Payload: "p", Size: 200}, now)
		if i%burst == burst-1 {
			r.Flush(now)
			now += time.Millisecond
		}
	}
}
