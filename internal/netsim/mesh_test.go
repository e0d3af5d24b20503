package netsim

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// TestMeshPeersConnectivity is the property test behind the liveness
// argument (DESIGN.md §13): every seeded peer graph at fanout >= 2 is
// connected, degrees honour the fanout, edges are symmetric, and the same
// (seed, ids, fanout) always yields the same graph.
func TestMeshPeersConnectivity(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		for _, n := range []int{2, 3, 4, 5, 10, 31, 50, 100} {
			for _, fanout := range []int{2, 3, 4, 5, 7, 8} {
				ids := make([]wire.NodeID, n)
				for i := range ids {
					ids[i] = wire.NodeID(i)
				}
				peers := MeshPeers(seed, ids, fanout)
				name := fmt.Sprintf("seed=%d n=%d fanout=%d", seed, n, fanout)

				// Degree bounds: an odd fanout rounds up to the next even
				// degree, and the n/2 offset, its own mirror, gives one
				// neighbor where the others give two; so every node has
				// at least fanout (odd) or fanout-1 (even) neighbors, at
				// most n-1, and at most fanout+1.
				minDeg := min(fanout-1+fanout%2, n-1)
				for id, ps := range peers {
					if len(ps) < minDeg || len(ps) > fanout+1 {
						t.Fatalf("%s: node %d has degree %d, want %d..%d", name, id, len(ps), minDeg, fanout+1)
					}
					for _, p := range ps {
						sym := false
						for _, back := range peers[p] {
							if back == id {
								sym = true
							}
						}
						if !sym {
							t.Fatalf("%s: edge %d->%d not symmetric", name, id, p)
						}
					}
				}

				// BFS from node 0 must reach everyone.
				seen := map[wire.NodeID]bool{0: true}
				frontier := []wire.NodeID{0}
				for len(frontier) > 0 {
					var next []wire.NodeID
					for _, u := range frontier {
						for _, v := range peers[u] {
							if !seen[v] {
								seen[v] = true
								next = append(next, v)
							}
						}
					}
					frontier = next
				}
				if len(seen) != n {
					t.Fatalf("%s: graph disconnected, reached %d of %d nodes", name, len(seen), n)
				}

				// Determinism: rebuilding with the same inputs gives the
				// identical adjacency.
				again := MeshPeers(seed, ids, fanout)
				for id := range peers {
					if fmt.Sprint(again[id]) != fmt.Sprint(peers[id]) {
						t.Fatalf("%s: rebuild changed node %d's peers: %v vs %v", name, id, peers[id], again[id])
					}
				}
			}
		}
	}
}

// meshHarness wires a Mesh over a fresh network and records, per node,
// how many times each digest was delivered.
type meshHarness struct {
	s     *sim.Simulator
	net   *Network
	mesh  *Mesh
	seen  map[wire.NodeID]map[digest]int
	nodes int
}

func newMeshHarness(t *testing.T, n, fanout int, seed int64) *meshHarness {
	t.Helper()
	h := &meshHarness{
		s:     sim.New(seed),
		seen:  make(map[wire.NodeID]map[digest]int),
		nodes: n,
	}
	h.net = New(h.s, Config{BaseLatency: 250 * time.Microsecond})
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	for _, id := range ids {
		id := id
		h.seen[id] = make(map[digest]int)
		h.net.AddNode(id, func(from wire.NodeID, payload any, size int) {
			if env, ok := payload.(*Envelope); ok {
				h.mesh.Receive(id, from, env)
			}
		})
	}
	h.mesh = NewMesh(h.net, ids, fanout)
	for _, id := range ids {
		id := id
		h.mesh.SetDeliver(id, func(origin wire.NodeID, payload any, size int) {
			h.seen[id][payload.(digest)]++
		})
	}
	return h
}

// originate has every node publish one message (payload = its digest so
// receivers can count per-digest deliveries).
func (h *meshHarness) originate() {
	for i := 0; i < h.nodes; i++ {
		id := wire.NodeID(i)
		h.s.After(time.Duration(i)*time.Millisecond, func() {
			h.mesh.Gossip(id, digest{origin: id, seq: 0}, 200)
		})
	}
}

// TestMeshExactlyOnceDelivery is the integration contract: over a real
// simulated network, every message reaches every node other than its
// originator exactly once, at any fanout.
func TestMeshExactlyOnceDelivery(t *testing.T) {
	for _, tc := range []struct{ n, fanout int }{
		{4, 2}, {7, 2}, {10, 4}, {20, 8}, {20, 50}, // last = full-mesh degenerate
	} {
		h := newMeshHarness(t, tc.n, tc.fanout, 42)
		h.originate()
		h.s.Run()
		for node, counts := range h.seen {
			for origin := 0; origin < tc.n; origin++ {
				d := digest{origin: wire.NodeID(origin), seq: 0}
				want := 1
				if wire.NodeID(origin) == node {
					want = 0 // no self-delivery, like Broadcast
				}
				if got := counts[d]; got != want {
					t.Fatalf("n=%d fanout=%d: node %d saw digest from %d %d times, want %d",
						tc.n, tc.fanout, node, origin, got, want)
				}
			}
		}
		st := h.mesh.Stats()
		if st.Originated != uint64(tc.n) || st.Delivered != uint64(tc.n*(tc.n-1)) {
			t.Fatalf("n=%d fanout=%d: stats %+v, want %d originated, %d delivered",
				tc.n, tc.fanout, st, tc.n, tc.n*(tc.n-1))
		}
	}
}

// TestMeshBrokenDedupDuplicates sabotages the dedup cache and proves the
// exactly-once check above would catch it: with dedup broken, nodes see
// the same digest more than once (the hop backstop keeps the storm
// finite). If this passes cleanly, the delivery-count assertions are
// vacuous.
func TestMeshBrokenDedupDuplicates(t *testing.T) {
	h := newMeshHarness(t, 5, 2, 42)
	for _, mn := range h.mesh.nodes {
		mn.dedup.forgetful = true
	}
	h.originate()
	h.s.Run()
	dup := false
	for _, counts := range h.seen {
		for _, c := range counts {
			if c > 1 {
				dup = true
			}
		}
	}
	if !dup {
		t.Fatal("broken dedup produced no duplicate delivery — the exactly-once check is vacuous")
	}
}

// TestMeshBrokenExpiryStarves sabotages the relay queue expiry — every
// flush drains nothing — and proves gossip stops entirely: no node
// receives anything. This is what the harness-level Committed>0 checks
// key off.
func TestMeshBrokenExpiryStarves(t *testing.T) {
	h := newMeshHarness(t, 5, 2, 42)
	h.mesh.BreakExpiryForTest()
	h.originate()
	h.s.Run()
	for node, counts := range h.seen {
		if len(counts) != 0 {
			t.Fatalf("broken expiry still delivered %d digests to node %d — starvation checks are vacuous", len(counts), node)
		}
	}
}

// TestMeshDeterministicAcrossRuns pins byte-equal delivery traces for
// identical seeds at the netsim layer (the harness sweeps assert the same
// through full scenarios).
func TestMeshDeterministicAcrossRuns(t *testing.T) {
	run := func() (string, uint64) {
		h := newMeshHarness(t, 10, 4, 7)
		h.originate()
		h.s.Run()
		return fmt.Sprint(h.mesh.Stats()), h.net.Messages()
	}
	s1, m1 := run()
	s2, m2 := run()
	if s1 != s2 || m1 != m2 {
		t.Fatalf("identical seeds diverged: %s/%d vs %s/%d", s1, m1, s2, m2)
	}
}

// TestMeshFlushSharesOneEnvelope pins what one flush allocates: every peer
// whose share is the whole window receives the same *Envelope, and a peer
// cut at its queue cap receives one of its own, holding the window up to its
// cut.
func TestMeshFlushSharesOneEnvelope(t *testing.T) {
	s := sim.New(1)
	net := New(s, Config{BaseLatency: time.Millisecond})
	ids := []wire.NodeID{0, 1, 2, 3}
	got := map[wire.NodeID][]*Envelope{}
	for _, id := range ids {
		net.AddNode(id, func(from wire.NodeID, payload any, size int) {
			if env, ok := payload.(*Envelope); ok && from == 0 {
				got[id] = append(got[id], env)
			}
		})
	}
	m := NewMesh(net, ids, 3) // the full mesh: node 0's peers are 1, 2 and 3

	m.Gossip(0, "uncut", 10)
	s.Run()
	for _, p := range ids[1:] {
		if len(got[p]) != 1 || got[p][0] != got[1][0] || len(got[p][0].entries) != 1 {
			t.Fatalf("uncut flush: peer %d received %v, want the one envelope peer 1 received", p, got[p])
		}
	}

	// Node 0 relays, from peer 1, meshQueueCap+1 entries that originated at
	// node 2: only peer 3 lacks them, so its backlog is cut at meshQueueCap.
	// Its own next message is then queued toward peers 1 and 2 only.
	src := newMeshNode([]wire.NodeID{0}, len(ids))
	src.queueCap, src.entryTTL = meshQueueCap+1, time.Hour
	for i := range meshQueueCap + 1 {
		src.originate(meshEntry{d: digest{origin: 2, seq: uint64(i)}, payload: i, size: 1}, s.Now())
	}
	var relayed *Envelope
	src.flush(s.Now(), func(_ wire.NodeID, env *Envelope, _ int) int { relayed = env; return 1 })
	m.Receive(0, 1, relayed)
	m.Gossip(0, "after the cut", 10)
	s.Run()
	whole, cut := got[1][1], got[3][1]
	if len(got[2]) != 2 || got[2][1] != whole || len(whole.entries) != meshQueueCap+1 {
		t.Fatalf("cut flush: peers 1 and 2 received %p and %v, want one envelope of the whole %d-entry window",
			whole, got[2], meshQueueCap+1)
	}
	if cut == whole || len(cut.entries) != meshQueueCap {
		t.Fatalf("cut flush: peer 3 received %d entries (shared with peer 1: %v), want its own envelope of %d",
			len(cut.entries), cut == whole, meshQueueCap)
	}
}

// TestMeshNumbersMatchDesign is §13's known-answer check: every mesh
// number DESIGN.md §13 states is read back from code, and the section
// must state it in the words below, so prose and code cannot disagree
// silently. The flush delay and the envelope size are measured on a run,
// the hop backstop on a built mesh.
func TestMeshNumbersMatchDesign(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(doc)
	sec = sec[strings.Index(sec, "## §13 "):]
	sec = strings.Join(strings.Fields(sec[:strings.Index(sec, "\n## §14 ")]), " ")

	// One 100-byte payload gossiped at 0 over a 1 ms link: the flush ships
	// one envelope at the flush interval, sized header + payload + framing.
	s := sim.New(1)
	net := New(s, Config{BaseLatency: time.Millisecond})
	var at time.Duration
	var size int
	for _, id := range []wire.NodeID{0, 1} {
		net.AddNode(id, func(_ wire.NodeID, _ any, sz int) { at, size = s.Now(), sz })
	}
	m := NewMesh(net, []wire.NodeID{0, 1}, 2)
	m.Gossip(0, "p", 100)
	s.Run()
	if flush := at - time.Millisecond; flush != meshFlushInterval || net.Messages() != 1 {
		t.Fatalf("%d messages, the envelope left at %v; want one at the flush interval %v", net.Messages(), flush, meshFlushInterval)
	}
	if size != meshEnvelopeOverhead+100+meshEntryOverhead {
		t.Fatalf("a 100-byte payload ships in a %d-byte envelope, want %d + 100 + %d", size, meshEnvelopeOverhead, meshEntryOverhead)
	}
	ids := []wire.NodeID{0, 1, 2, 3, 4, 5, 6}
	net = New(s, Config{})
	for _, id := range ids {
		net.AddNode(id, func(wire.NodeID, any, int) {})
	}
	for id, mn := range NewMesh(net, ids, 2).nodes {
		if mn.maxHops != len(ids) {
			t.Fatalf("node %d forwards up to %d hops in a %d-node mesh, want n", id, mn.maxHops, len(ids))
		}
	}

	for _, claim := range []string{
		fmt.Sprintf("%d ms flush", meshFlushInterval.Milliseconds()),
		fmt.Sprintf("%d bytes of header", meshEnvelopeOverhead),
		fmt.Sprintf("%d bytes of framing", meshEntryOverhead),
		fmt.Sprintf("%d consecutive sequence numbers", seqPageSize),
		fmt.Sprintf("%d-slot cursor table", dedupCursors),
		"hop-count backstop of n",
	} {
		if !strings.Contains(sec, claim) {
			t.Errorf("DESIGN.md §13 does not state %q", claim)
		}
	}
}
