package netsim

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Mesh is the bounded-fanout gossip overlay (DESIGN.md §13): a
// deterministic peer graph over the network's nodes, a relay per node
// (relay.go), and a short flush timer that batches each node's pending
// relay log into one Envelope that every peer receives (a peer cut at its
// queue cap gets a shorter one of its own).
// Protocol layers publish through Gossip() and receive through a
// DeliverFunc; the mesh owns dedup, forwarding, and expiry in between.
//
// The message-complexity win over Broadcast is the batching: a flood
// alone costs ~n·fanout links per payload (worse than broadcast's n-1),
// but every flush ships one envelope per peer carrying the whole burst a
// consensus height generates, so envelopes-per-committed-element drops to
// O(n·fanout / burst) — measured by the mesh_* registry entries.
//
// Determinism: the peer graph is a pure function of the root seed computed
// once at deploy time, and flush iterates a sorted peer slice, never map
// order. See DESIGN.md §13.
type Mesh struct {
	fanout int
	nodes  map[wire.NodeID]*meshNode
}

// DeliverFunc receives a gossiped payload on a node. origin is the node
// that originated the message (not the mesh neighbor that relayed it), so
// protocol-level sender checks keep working.
type DeliverFunc func(origin wire.NodeID, payload any, size int)

// Envelope is the mesh's wire message: what one flush ships toward its
// peers. Its entries are a view of the sender's window, and the envelope
// itself is shared read-only by every peer the window is whole for; the
// receiver reads only the entries meant for it (meshEntry.isFor).
type Envelope struct {
	entries []meshEntry
	w       *window // the window the entries view
}

// MeshStats counts one mesh node's traffic, or a whole mesh's (Mesh.Stats).
type MeshStats struct {
	Originated uint64 // payloads published via Gossip
	Delivered  uint64 // fresh payloads handed to DeliverFuncs
	Relayed    uint64 // fresh entries fanned back out toward peers
	DedupDrops uint64 // received entries discarded as already-seen
	QueueDrops uint64 // entries dropped at full relay queues
	Expired    uint64 // queued entries dropped past their TTL
}

// Add accumulates another node's or mesh's counters.
func (s *MeshStats) Add(o MeshStats) {
	s.Originated += o.Originated
	s.Delivered += o.Delivered
	s.Relayed += o.Relayed
	s.DedupDrops += o.DedupDrops
	s.QueueDrops += o.QueueDrops
	s.Expired += o.Expired
}

// Mesh tuning. The flush interval is the batching window: a payload waits
// at most meshFlushInterval per hop, ~hops·5ms end to end — negligible
// against the ~1.25s consensus block interval. Dedup memory (meshDedupTTL)
// far outlives any plausible redelivery path; after it lapses a digest
// counts as fresh again, and the hop backstop (the overlay size: any
// connected graph's diameter is < n) bounds the re-circulation that
// permits. The entry TTL only discards backlog that missed many
// consecutive flushes (a down or saturated peer link); meshQueueCap caps
// each peer's backlog between two flushes.
const (
	meshFlushInterval = 5 * time.Millisecond
	meshDedupTTL      = 60 * time.Second
	meshEntryTTL      = 250 * time.Millisecond
	meshQueueCap      = 8192
	// Wire-size accounting for the envelope framing: per-entry digest,
	// hop count and length prefix, plus the envelope header.
	meshEntryOverhead    = 24
	meshEnvelopeOverhead = 16
	// meshTopoSalt derives the topology RNG stream from the root seed,
	// disjoint from every per-node stream (node ids are small).
	meshTopoSalt = 0x6d657368 // "mesh"
)

// MeshPeers builds the deterministic peer graph: a circulant topology
// over the sorted ids. Offset 1 (the ring) is always included, which
// guarantees connectivity at any fanout >= 2; the remaining ⌈fanout/2⌉ - 1
// offsets are drawn without replacement from [2, n/2] using an RNG stream
// derived from the seed, so the graph is regular — every node has degree
// 2·⌈fanout/2⌉, one less when the n/2 offset (its own mirror) is drawn —
// and identical for identical (seed, ids, fanout). A fanout >= n-1
// degenerates to the full mesh (gossip over it behaves like broadcast
// plus dedup).
func MeshPeers(seed int64, ids []wire.NodeID, fanout int) map[wire.NodeID][]wire.NodeID {
	sorted := append([]wire.NodeID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	peers := make(map[wire.NodeID][]wire.NodeID, n)
	if n <= 1 {
		for _, id := range sorted {
			peers[id] = nil
		}
		return peers
	}
	if fanout >= n-1 {
		for i, id := range sorted {
			full := make([]wire.NodeID, 0, n-1)
			for j, other := range sorted {
				if j != i {
					full = append(full, other)
				}
			}
			peers[id] = full
		}
		return peers
	}
	m := max((fanout+1)/2, 1)
	offsets := []int{1}
	if m > 1 {
		candidates := make([]int, 0, n/2)
		for o := 2; o <= n/2; o++ {
			candidates = append(candidates, o)
		}
		rng := rand.New(rand.NewSource(sim.ChildSeed(seed, meshTopoSalt)))
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		if len(candidates) > m-1 {
			candidates = candidates[:m-1]
		}
		offsets = append(offsets, candidates...)
	}
	for i, id := range sorted {
		set := map[wire.NodeID]bool{}
		for _, o := range offsets {
			set[sorted[(i+o)%n]] = true
			set[sorted[((i-o)%n+n)%n]] = true
		}
		ps := make([]wire.NodeID, 0, len(set))
		for p := range set {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(a, b int) bool { return ps[a] < ps[b] })
		peers[id] = ps
	}
	return peers
}

// meshNode is one node's part of the mesh: its endpoint (delivery
// callback, sequence numbers, flush timer) and its relay (relay.go). All
// of its state is mutated only by events on its own node's simulator
// queue.
type meshNode struct {
	sim     *sim.Simulator
	peers   []wire.NodeID
	deliver DeliverFunc

	seq        uint64
	flushArmed bool
	flushFn    func()                                            // the flush timer's callback, bound once
	sendFn     func(to wire.NodeID, env *Envelope, size int) int // Network.Send from this node, bound once

	// The relay's limits: the mesh* constants and the overlay size, which
	// tests lower to reach the caps.
	queueCap int
	entryTTL time.Duration
	dedupTTL time.Duration
	maxHops  int

	dedup  dedupCache
	open   *window     // the entries queued since the last flush; nil until the first
	queues []peerQueue // queues[i] is peers[i]'s backlog in open's log
	free   *window     // spare windows, handed back by their last receivers
	nfree  int
	st     MeshStats // this node's counters, all monotone

	expireAll bool // BreakExpiryForTest
}

// newMeshNode builds a node's relay toward peers, with maxHops the size of
// the overlay; NewMesh attaches it to the network.
func newMeshNode(peers []wire.NodeID, maxHops int) *meshNode {
	return &meshNode{
		peers:    peers,
		queueCap: meshQueueCap,
		entryTTL: meshEntryTTL,
		dedupTTL: meshDedupTTL,
		maxHops:  maxHops,
		queues:   make([]peerQueue, len(peers)),
	}
}

// NewMesh builds the overlay over the given node ids with the given
// fanout, seeding the topology from the network's simulator. Call after
// the ids are registered with AddNode; install receivers with SetDeliver
// and route *Envelope payloads arriving at a node into Receive.
func NewMesh(net *Network, ids []wire.NodeID, fanout int) *Mesh {
	peers := MeshPeers(net.sim.Seed(), ids, fanout)
	m := &Mesh{fanout: fanout, nodes: make(map[wire.NodeID]*meshNode, len(ids))}
	for _, id := range ids {
		mn := newMeshNode(peers[id], len(ids))
		mn.sim = net.sim
		mn.flushFn = func() {
			mn.flushArmed = false
			mn.flush(mn.sim.Now(), mn.sendFn)
		}
		mn.sendFn = func(to wire.NodeID, env *Envelope, size int) int { return net.Send(id, to, env, size) }
		m.nodes[id] = mn
	}
	return m
}

// Fanout returns the configured fanout.
func (m *Mesh) Fanout() int { return m.fanout }

// node resolves a node id, panicking for one outside the mesh.
func (m *Mesh) node(id wire.NodeID, op string) *meshNode {
	mn, ok := m.nodes[id]
	if !ok {
		panic("netsim: " + op + " for node outside the mesh")
	}
	return mn
}

// SetDeliver installs the local delivery callback for a node.
func (m *Mesh) SetDeliver(id wire.NodeID, fn DeliverFunc) { m.node(id, "SetDeliver").deliver = fn }

// Gossip publishes a payload from a node into the mesh. The message gets
// a fresh digest, is remembered locally (so the looped-back copy is not
// re-delivered to its originator), and is queued toward every neighbor
// for the next flush. Like Broadcast, it does not deliver to self.
func (m *Mesh) Gossip(from wire.NodeID, payload any, size int) {
	mn := m.node(from, "Gossip")
	now := mn.sim.Now()
	d := digest{origin: from, seq: mn.seq}
	mn.seq++
	mn.observe(d, now)
	mn.st.Originated++
	mn.originate(meshEntry{d: d, payload: payload, size: size}, now)
	mn.armFlush()
}

// Receive ingests an envelope that arrived at self from a mesh neighbor.
// Of the sender's shared window it reads the entries meant for self.
// Fresh ones are delivered locally (with their ORIGIN as the sender) and
// re-queued toward the rest of the neighborhood; stale ones are dropped by
// the relay's dedup cache. Call it once per delivery of the envelope: the
// window goes back to its sender after its last scheduled delivery is read.
func (m *Mesh) Receive(self, from wire.NodeID, env *Envelope) {
	mn := m.node(self, "Receive")
	now := mn.sim.Now()
	for i := range env.entries {
		e := &env.entries[i]
		if !e.isFor(self) {
			continue
		}
		if mn.ingest(from, *e, now) {
			mn.st.Delivered++
			if mn.deliver != nil {
				mn.deliver(e.d.origin, e.payload, e.size)
			}
		}
	}
	env.w.received()
	mn.armFlush()
}

// armFlush schedules the node's next flush on its own simulator queue, if
// one is not already pending. Peer order in a flush is the sorted peer
// slice, never map order, so the send sequence — and with it the
// sender-rng fault/jitter draw sequence — is deterministic.
func (mn *meshNode) armFlush() {
	if mn.flushArmed {
		return
	}
	mn.flushArmed = true
	mn.sim.After(meshFlushInterval, mn.flushFn)
}

// BreakExpiryForTest makes every entry queued at every node of this mesh
// look expired: no flush ships anything, so the overlay starves. A
// sabotage hook for tests outside this package, called between deployment
// and the run.
func (m *Mesh) BreakExpiryForTest() {
	for _, mn := range m.nodes {
		mn.expireAll = true
	}
}

// Stats sums the mesh's counters across nodes.
func (m *Mesh) Stats() MeshStats {
	var st MeshStats
	for _, mn := range m.nodes {
		st.Add(mn.st)
	}
	return st
}
