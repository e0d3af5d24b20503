package netsim

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/gossip"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Mesh is the bounded-fanout gossip overlay (DESIGN.md §13): a
// deterministic peer graph over the network's nodes, one gossip.Relay per
// node, and a short flush timer that batches each node's pending relay
// log into one Envelope that every peer receives (a peer cut at its queue
// cap gets a shorter one of its own).
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
	net    *Network
	fanout int
	ids    []wire.NodeID // sorted
	peers  map[wire.NodeID][]wire.NodeID
	eps    map[wire.NodeID]*meshEndpoint
}

// DeliverFunc receives a gossiped payload on a node. origin is the node
// that originated the message (not the mesh neighbor that relayed it), so
// protocol-level sender checks keep working.
type DeliverFunc func(origin wire.NodeID, payload any, size int)

// Envelope is the mesh's wire message: what one flush ships toward its
// peers. Entries is a view of the sender's window, and the envelope itself
// is shared read-only by every peer the window is whole for; the receiver
// reads only the entries meant for it (gossip.Entry.For).
type Envelope struct {
	Entries []gossip.Entry
}

// MeshStats aggregates the endpoint and relay counters across a mesh.
type MeshStats struct {
	Originated uint64 // payloads published via Gossip
	Delivered  uint64 // fresh payloads handed to DeliverFuncs
	Relayed    uint64 // fresh entries fanned back out toward peers
	DedupDrops uint64 // received entries discarded as already-seen
	QueueDrops uint64 // entries dropped at full relay queues
	Expired    uint64 // queued entries dropped past their TTL
}

// Add accumulates another snapshot (per-shard aggregation).
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
// against the ~1.25s consensus block interval. Dedup memory far outlives
// any plausible redelivery path; the entry TTL only discards backlog that
// missed many consecutive flushes (a down or saturated peer link).
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
// guarantees connectivity at any fanout >= 2; the remaining fanout/2 - 1
// offsets are drawn without replacement from [2, n/2] using an RNG stream
// derived from the seed, so the graph is "k-regular-ish" — every node has
// the same degree ~= fanout — and identical for identical (seed, ids,
// fanout). A fanout >= n-1
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
	m := fanout / 2
	if m < 1 {
		m = 1
	}
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

// meshEndpoint is one node's slice of the mesh. All of its state is
// mutated only by events on its own node's simulator queue.
type meshEndpoint struct {
	mesh    *Mesh
	id      wire.NodeID
	sim     *sim.Simulator
	peers   []wire.NodeID
	relay   *gossip.Relay
	deliver DeliverFunc

	seq        uint64
	flushArmed bool
	flushFn    func() // flush, bound once for every timer armFlush sets
	originated uint64
	delivered  uint64
}

// NewMesh builds the overlay over the given node ids with the given
// fanout, seeding the topology from the network's simulator. Call after
// the ids are registered with AddNode; install receivers with SetDeliver
// and route *Envelope payloads arriving at a node into Receive.
func NewMesh(net *Network, ids []wire.NodeID, fanout int) *Mesh {
	sorted := append([]wire.NodeID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	m := &Mesh{
		net:    net,
		fanout: fanout,
		ids:    sorted,
		peers:  MeshPeers(net.sim.Seed(), sorted, fanout),
		eps:    make(map[wire.NodeID]*meshEndpoint, len(sorted)),
	}
	cfg := gossip.Config{
		QueueCap: meshQueueCap,
		EntryTTL: meshEntryTTL,
		DedupTTL: meshDedupTTL,
		// Any connected graph's diameter is < n, so n hops is a pure
		// re-circulation backstop, never a reachability limit.
		MaxHops: len(sorted),
	}
	for _, id := range sorted {
		ep := &meshEndpoint{
			mesh:  m,
			id:    id,
			sim:   net.sim,
			peers: m.peers[id],
			relay: gossip.NewRelay(m.peers[id], cfg),
		}
		ep.flushFn = ep.flush
		m.eps[id] = ep
	}
	return m
}

// Fanout returns the configured fanout.
func (m *Mesh) Fanout() int { return m.fanout }

// SetDeliver installs the local delivery callback for a node.
func (m *Mesh) SetDeliver(id wire.NodeID, fn DeliverFunc) {
	ep, ok := m.eps[id]
	if !ok {
		panic("netsim: SetDeliver for node outside the mesh")
	}
	ep.deliver = fn
}

// Gossip publishes a payload from a node into the mesh. The message gets
// a fresh digest, is remembered locally (so the looped-back copy is not
// re-delivered to its originator), and is queued toward every neighbor
// for the next flush. Like Broadcast, it does not deliver to self.
func (m *Mesh) Gossip(from wire.NodeID, payload any, size int) {
	ep, ok := m.eps[from]
	if !ok {
		panic("netsim: Gossip from node outside the mesh")
	}
	now := ep.sim.Now()
	d := gossip.Digest{Origin: from, Seq: ep.seq}
	ep.seq++
	ep.relay.Observe(d, now)
	ep.originated++
	ep.relay.Originate(gossip.Entry{Digest: d, Payload: payload, Size: size}, now)
	ep.armFlush()
}

// Receive ingests an envelope that arrived at self from a mesh neighbor.
// Of the sender's shared window it reads the entries meant for self
// (gossip.Entry.For). Fresh ones are delivered locally (with their ORIGIN
// as the sender) and re-queued toward the rest of the neighborhood; stale
// ones are dropped by the relay's dedup cache.
func (m *Mesh) Receive(self, from wire.NodeID, env *Envelope) {
	ep, ok := m.eps[self]
	if !ok {
		panic("netsim: Receive on node outside the mesh")
	}
	now := ep.sim.Now()
	for i := range env.Entries {
		e := &env.Entries[i]
		if !e.For(self) {
			continue
		}
		if ep.relay.Ingest(from, *e, now) {
			ep.delivered++
			if ep.deliver != nil {
				ep.deliver(e.Digest.Origin, e.Payload, e.Size)
			}
		}
	}
	ep.armFlush()
}

// armFlush schedules the endpoint's next flush on its own node's
// simulator queue, if one is not already pending.
func (ep *meshEndpoint) armFlush() {
	if ep.flushArmed {
		return
	}
	ep.flushArmed = true
	ep.sim.After(meshFlushInterval, ep.flushFn)
}

// flush ships each neighbor's share of the relay's window. Every share
// starts where the window does, and all but those of peers cut at QueueCap
// run to its end, so the uncut peers receive one envelope between them and
// a cut peer its own, shorter one. An envelope's wire size counts only the
// entries meant for its receiver. Peer order is the sorted slice, never map
// order, so the send sequence — and with it the sender-rng fault/jitter
// draw sequence — is deterministic.
func (ep *meshEndpoint) flush() {
	ep.flushArmed = false
	shares := ep.relay.Flush(ep.sim.Now())
	longest := 0
	for _, sh := range shares {
		longest = max(longest, len(sh.Entries))
	}
	var whole *Envelope // the envelope of every share that views the whole window
	for i, sh := range shares {
		if sh.N == 0 {
			continue
		}
		env := whole
		switch {
		case len(sh.Entries) < longest:
			env = &Envelope{Entries: sh.Entries}
		case whole == nil:
			whole = &Envelope{Entries: sh.Entries}
			env = whole
		}
		size := meshEnvelopeOverhead + sh.Bytes + sh.N*meshEntryOverhead
		ep.mesh.net.Send(ep.id, ep.peers[i], env, size)
	}
}

// BreakExpiryForTest breaks every relay of this mesh the way
// gossip.Relay.BreakExpiryForTest does: no flush ships anything, so the
// overlay starves. A sabotage hook for tests outside this package, called
// between deployment and the run.
func (m *Mesh) BreakExpiryForTest() {
	for _, ep := range m.eps {
		ep.relay.BreakExpiryForTest()
	}
}

// Stats sums the mesh's counters across endpoints.
func (m *Mesh) Stats() MeshStats {
	var st MeshStats
	for _, id := range m.ids {
		ep := m.eps[id]
		st.Originated += ep.originated
		st.Delivered += ep.delivered
		rs := ep.relay.Stats()
		st.Relayed += rs.Relayed
		st.DedupDrops += rs.DedupDrops
		st.QueueDrops += rs.QueueDrops
		st.Expired += rs.Expired
	}
	return st
}
