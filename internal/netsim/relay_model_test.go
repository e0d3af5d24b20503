package netsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
)

// fifoModel is the relay's queues as they were before the shared log: one
// bounded FIFO per peer that drops the newest entry at queueCap, every
// entry copied into the queue of each peer it is meant for, and a drain
// that expires entry by entry. Its dedup is a literal digest→expiry table.
type fifoModel struct {
	queueCap           int
	entryTTL, dedupTTL time.Duration
	maxHops            int
	peers              []wire.NodeID
	seen               map[digest]time.Duration
	queues             [][]modelEntry
	expireAll          bool
	st                 MeshStats
}

type modelEntry struct {
	e  meshEntry
	at time.Duration
}

// newFIFOModel models r: its peers, limits and expiry switch.
func newFIFOModel(r *meshNode) *fifoModel {
	return &fifoModel{queueCap: r.queueCap, entryTTL: r.entryTTL, dedupTTL: r.dedupTTL, maxHops: r.maxHops,
		peers: r.peers, seen: map[digest]time.Duration{}, queues: make([][]modelEntry, len(r.peers)), expireAll: r.expireAll}
}

func (m *fifoModel) mark(d digest, now time.Duration) bool {
	if exp, ok := m.seen[d]; ok && exp > now {
		return false
	}
	m.seen[d] = now + m.dedupTTL
	return true
}

func (m *fifoModel) enqueue(e meshEntry, from wire.NodeID, now time.Duration) {
	for i, p := range m.peers {
		if p == from || p == e.d.origin {
			continue
		}
		if m.queueCap > 0 && len(m.queues[i]) >= m.queueCap {
			m.st.QueueDrops++
			continue
		}
		m.queues[i] = append(m.queues[i], modelEntry{e, now})
	}
}

func (m *fifoModel) ingest(from wire.NodeID, e meshEntry, now time.Duration) bool {
	if !m.mark(e.d, now) {
		m.st.DedupDrops++
		return false
	}
	if e.hops < m.maxHops {
		e.hops++
		m.enqueue(e, from, now)
		m.st.Relayed++
	}
	return true
}

// drain empties peer i's queue, returning what is still inside entryTTL.
func (m *fifoModel) drain(i int, now time.Duration) []meshEntry {
	var out []meshEntry
	for _, q := range m.queues[i] {
		if m.expireAll || (m.entryTTL > 0 && q.at+m.entryTTL <= now) {
			m.st.Expired++
			continue
		}
		out = append(out, q.e)
	}
	m.queues[i] = nil
	return out
}

func sameEntries(got, want []meshEntry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, the model has %d", len(got), len(want))
	}
	for k := range got {
		g, w := got[k], want[k]
		if g.d != w.d || g.hops != w.hops || g.payload != w.payload || g.size != w.size {
			return fmt.Errorf("entry %d is %v/hop %d/%v/%d B, the model has %v/hop %d/%v/%d B",
				k, g.d, g.hops, g.payload, g.size, w.d, w.hops, w.payload, w.size)
		}
	}
	return nil
}

// relayPeers are the fuzzed relay's peers; it sits at node 0, and origin 5
// is a node that is not its peer.
var relayPeers = []wire.NodeID{1, 2, 3, 4}

// FuzzRelayQueues replays an arbitrary sequence of originations, ingests,
// flushes and clock steps through a mesh node's relay and through
// fifoModel, with small caps and TTLs and, on some inputs, every entry
// expired (BreakExpiryForTest). After every step the counters must agree;
// at every flush each peer must read the model's entries, in its order,
// at the envelope size those entries make, every envelope sent must view
// the one window, and the windows handed out earlier must be unchanged.
func FuzzRelayQueues(f *testing.F) {
	f.Add([]byte{2, 1, 0, 0, 0, 1, 1, 10, 1, 2, 11, 2, 0, 0})
	f.Add([]byte{1, 2, 1, 0, 5, 0, 0, 6, 0, 0, 7, 0, 1, 9, 8, 3, 3, 0, 2, 0, 0})
	f.Add([]byte{3, 3, 0, 1, 17, 4, 1, 33, 5, 3, 255, 0, 1, 17, 4, 2, 0, 0, 0, 1, 2})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		r := newMeshNode(relayPeers, 3)
		r.queueCap = int(data[0] % 5) // 0 is unbounded
		r.entryTTL = time.Duration(data[1]%4) * 10 * time.Millisecond
		r.dedupTTL = 40 * time.Millisecond
		r.expireAll = data[2]%4 == 1
		m := newFIFOModel(r)
		type handedOut struct {
			env  *Envelope
			copy []meshEntry
		}
		var windows []handedOut
		var now time.Duration
		var seq uint64
		for step, i := 0, 3; i+2 < len(data); step, i = step+1, i+3 {
			op, a, b := data[i]%5, data[i+1], data[i+2]
			switch op {
			case 0: // originate
				e := meshEntry{d: digest{origin: 0, seq: seq}, payload: int(seq), size: int(b % 50)}
				seq++
				if got, want := r.observe(e.d, now), m.mark(e.d, now); got != want {
					t.Fatalf("step %d: observe %v = %v, the model says %v", step, e.d, got, want)
				}
				r.originate(e, now)
				m.enqueue(e, e.d.origin, now)
			case 1, 2: // ingest from a peer; origins 0..5, a handful of seqs so repeats happen
				from := relayPeers[a%4]
				e := meshEntry{
					d:       digest{origin: wire.NodeID(a >> 2 % 6), seq: 1000 + uint64(b%8)},
					hops:    int(a >> 5 % 4),
					payload: int(b),
					size:    int(b),
				}
				if got, want := r.ingest(from, e, now), m.ingest(from, e, now); got != want {
					t.Fatalf("step %d: ingest %v from %d = %v, the model says %v", step, e.d, from, got, want)
				}
			case 3: // flush
				var window *meshEntry
				for k, s := range flushTo(r, now) {
					p := relayPeers[k]
					want := m.drain(k, now)
					if err := sameEntries(meant(s, p), want); err != nil {
						t.Fatalf("step %d: peer %d reads %v", step, p, err)
					}
					if s.env == nil {
						continue
					}
					if s.size != wireSize(want) {
						t.Fatalf("step %d: peer %d's envelope is %d B, the model's entries make %d", step, p, s.size, wireSize(want))
					}
					if window == nil {
						window = &s.env.entries[0]
					} else if &s.env.entries[0] != window {
						t.Fatalf("step %d: peer %d's envelope is not a view of the flush's window", step, p)
					}
					windows = append(windows, handedOut{s.env, append([]meshEntry(nil), s.env.entries...)})
				}
			case 4: // the clock moves
				now += time.Duration(b%16) * 3 * time.Millisecond
			}
			if r.st != m.st {
				t.Fatalf("step %d (op %d): counters %+v, the model's %+v", step, op, r.st, m.st)
			}
		}
		for k, w := range windows {
			for j := range w.copy {
				if w.env.entries[j] != w.copy[j] {
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
	r := newMeshNode(peers, 50)
	r.dedupTTL = 10 * time.Millisecond
	var now time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ingest(peers[i%len(peers)], meshEntry{d: digest{origin: 9, seq: uint64(i)}, payload: "p", size: 200}, now)
		if i%burst == burst-1 {
			r.flush(now, func(wire.NodeID, *Envelope, int) int { return 0 })
			now += time.Millisecond
		}
	}
}
