// Package netsim simulates the cluster network the paper's evaluation runs
// on: reliable point-to-point links between servers with configurable base
// latency, jitter, an additive artificial delay (the paper's network_delay
// parameter used to emulate WAN deployments), and per-node egress bandwidth.
//
// Reliability matches the paper's model ("messages sent between correct
// processes are eventually delivered only once, and no spurious messages
// are generated"): by default delivery is guaranteed and exactly-once,
// though delayed. Byzantine behavior is modeled at the protocol layer, not
// by corrupting the network.
//
// Chaos scenarios deliberately break that default through the Faults
// controller (faults.go): node crashes, link-level partitions, and
// per-link message drop/duplication/reordering and delay spikes. All fault
// state has a single owner — Faults — and every mutation is tagged with a
// Cause so independent fault sources compose (DESIGN.md §8).
//
// See DESIGN.md §2 (layering) and §8 (fault model).
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Handler receives a delivered message on a node. from is the sender,
// payload the (shared, read-only by convention) message object, and size
// its wire size in bytes.
type Handler func(from wire.NodeID, payload any, size int)

// Config describes link characteristics.
type Config struct {
	// BaseLatency is the one-way propagation delay inside the cluster
	// (LAN). The paper's cluster is a single rack; ~250µs is typical.
	BaseLatency time.Duration
	// ExtraDelay is the paper's network_delay parameter: an artificial
	// latency added to ALL communications between servers (0/30/100 ms).
	ExtraDelay time.Duration
	// Jitter adds a uniformly distributed random delay in [0, Jitter).
	Jitter time.Duration
	// Bandwidth is per-node egress bandwidth in bytes/second; 0 means
	// unlimited. Transmissions on one node serialize through its egress.
	Bandwidth float64
}

// DefaultLANConfig mirrors the paper's cluster: sub-millisecond LAN latency,
// gigabit-class egress, no artificial delay.
func DefaultLANConfig() Config {
	return Config{
		BaseLatency: 250 * time.Microsecond,
		Jitter:      100 * time.Microsecond,
		Bandwidth:   125e6, // 1 Gbit/s
	}
}

// Network is the simulated cluster fabric.
type Network struct {
	sim    *sim.Simulator
	cfg    Config
	nodes  map[wire.NodeID]*node
	faults *Faults // lazily created by Faults(); nil until any fault exists

	// simFor maps a node to the simulator (partition) that owns it. nil
	// means every node runs on the root simulator (the sequential path).
	simFor func(wire.NodeID) *sim.Simulator

	// Cached conservative lookahead window for partitioned execution;
	// invalidated whenever topology or link delays change (AddNode,
	// SetSimResolver, Faults.SetLink).
	lookahead      time.Duration
	lookaheadValid bool
}

type node struct {
	net     *Network
	id      wire.NodeID
	handler Handler
	egress  *sim.Resource
	// sim is the simulator (partition) owning this node: all of its sends,
	// deliveries, and egress grants execute as events on this queue.
	sim *sim.Simulator
	// rng is the node's private random stream, seeded from
	// sim.ChildSeed(rootSeed, id). Link-fault and jitter draws for messages
	// this node SENDS come from here, so the draw sequence depends only on
	// the node's own event order — identical whether the run is sequential
	// or partitioned, and whatever the worker interleaving.
	rng *rand.Rand
	// down caches whether any fault cause currently holds the node down;
	// only Faults.SetDown writes it (single fault-state owner).
	down bool
	// free is the node's list of spare message records (see msg): Send takes
	// from the sender's list, delivery returns to the receiver's.
	free  *msg
	nfree int

	// Per-node stats, attributed to the sending node so concurrent
	// partitions never share a counter; network totals are summed on read.
	bytesOut   uint64
	msgsOut    uint64
	dropped    uint64
	duplicated uint64
	reordered  uint64
}

// New creates an empty network on the given simulator.
func New(s *sim.Simulator, cfg Config) *Network {
	return &Network{sim: s, cfg: cfg, nodes: make(map[wire.NodeID]*node)}
}

// SetSimResolver installs the node→partition mapping for partitioned runs.
// It must be called before any AddNode; nodes the resolver maps to nil run
// on the root simulator.
func (n *Network) SetSimResolver(f func(wire.NodeID) *sim.Simulator) {
	if len(n.nodes) > 0 {
		panic("netsim: SetSimResolver after AddNode")
	}
	n.simFor = f
	n.lookaheadValid = false
}

func (n *Network) simOf(id wire.NodeID) *sim.Simulator {
	if n.simFor != nil {
		if s := n.simFor(id); s != nil {
			return s
		}
	}
	return n.sim
}

// AddNode registers a node and its delivery handler. Registering an id
// twice replaces the handler (used by tests to interpose).
func (n *Network) AddNode(id wire.NodeID, h Handler) {
	if existing, ok := n.nodes[id]; ok {
		existing.handler = h
		return
	}
	ns := n.simOf(id)
	n.nodes[id] = &node{
		net:     n,
		id:      id,
		handler: h,
		sim:     ns,
		rng:     sim.ChildRand(ns.Seed(), uint64(id)),
		egress:  ns.NewResource(fmt.Sprintf("egress-%d", id)),
	}
	n.lookaheadValid = false
}

// SetDown marks a node as crashed: it neither sends nor receives. It is a
// convenience shim over Faults().SetDown with CauseManual; fault sources
// with their own lifecycle (Byzantine presets, scheduled plans) should use
// the Faults controller directly so their state composes.
func (n *Network) SetDown(id wire.NodeID, down bool) {
	n.Faults().SetDown(id, CauseManual, down)
}

// NodeIDs returns the registered node ids in ascending order.
func (n *Network) NodeIDs() []wire.NodeID {
	ids := make([]wire.NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		ids = append(ids, id)
	}
	// Insertion sort: n is at most tens of nodes.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// Send transmits payload of the given wire size from one node to another.
// On a fault-free link delivery is reliable and exactly-once; latency is
// transmission time (size/bandwidth, serialized per sender) plus
// propagation (base + extra + jitter). Installed link faults may drop,
// duplicate, hold back (reorder) or further delay the message. Sending to
// self delivers after a negligible loopback delay, does not consume egress
// bandwidth, and is never subject to link faults.
func (n *Network) Send(from, to wire.NodeID, payload any, size int) {
	src, ok := n.nodes[from]
	if !ok {
		panic(fmt.Sprintf("netsim: send from unknown node %d", from))
	}
	dst, ok := n.nodes[to]
	if !ok {
		panic(fmt.Sprintf("netsim: send to unknown node %d", to))
	}
	if src.down {
		return // crashed nodes emit nothing
	}
	src.msgsOut++
	src.bytesOut += uint64(size)

	if from == to {
		m := src.takeMsg()
		m.src, m.dst, m.payload, m.size = src, dst, payload, size
		src.sim.After(time.Microsecond, m.deliverFn)
		return
	}

	// Link faults. All probability draws happen here, at send time, from the
	// SENDER's private random stream, so the draw sequence depends only on
	// the sender's own event order — deterministic per seed and identical
	// across IntraWorkers settings (DESIGN.md §12).
	var lf LinkFault
	if n.faults != nil && n.faults.linkActive() {
		if n.faults.Blocked(from, to) {
			src.dropped++
			return
		}
		lf = n.faults.Link(from, to)
		if lf.Drop > 0 && src.rng.Float64() < lf.Drop {
			src.dropped++
			return
		}
	}

	prop := n.cfg.BaseLatency + n.cfg.ExtraDelay + lf.ExtraDelay
	if n.cfg.Jitter > 0 {
		prop += time.Duration(src.rng.Int63n(int64(n.cfg.Jitter)))
	}
	if lf.Reorder > 0 && src.rng.Float64() < lf.Reorder {
		src.reordered++
		if lf.ReorderDelay > 0 {
			prop += time.Duration(src.rng.Int63n(int64(lf.ReorderDelay)))
		}
	}
	dup := lf.Duplicate > 0 && src.rng.Float64() < lf.Duplicate
	var txTime time.Duration
	if n.cfg.Bandwidth > 0 {
		txTime = time.Duration(float64(size) / n.cfg.Bandwidth * float64(time.Second))
	}
	// The sender's egress serializes transmissions; propagation then runs
	// concurrently with later transmissions.
	m := src.takeMsg()
	m.src, m.dst, m.prop, m.payload, m.size, m.dup = src, dst, prop, payload, size, dup
	src.egress.Submit(txTime, m.grantFn)
}

// msg is one message on its way from Send to its handler. The two events
// of its life — the sender's egress grant, then delivery — are its own
// methods, bound once when the record is made, so a message schedules no
// closure; and the record itself is reused: Send takes one from the SENDING
// node's free list and delivery returns it to the RECEIVING node's. Each
// list is therefore touched only by events of the node that owns it, which
// is the partitioned executor's rule (DESIGN.md §12) — no shared pool, no
// lock. Records drift toward nodes that receive more than they send; a full
// list (maxFreeMsgs) leaves the surplus to the collector.
type msg struct {
	src, dst *node
	prop     time.Duration
	payload  any
	size     int
	dup      bool
	next     *msg // free-list link

	grantFn   func() // m.granted
	deliverFn func() // m.deliver
}

const maxFreeMsgs = 1024

func (nd *node) takeMsg() *msg {
	m := nd.free
	if m == nil {
		m = &msg{}
		m.grantFn, m.deliverFn = m.granted, m.deliver
		return m
	}
	nd.free, m.next = m.next, nil
	nd.nfree--
	return m
}

// granted runs when the sender's egress has transmitted the message.
func (m *msg) granted() {
	if m.dup {
		// The duplicate is a message of its own, a base latency behind.
		m.src.duplicated++
		d := m.src.takeMsg()
		d.src, d.dst, d.payload, d.size = m.src, m.dst, m.payload, m.size
		d.prop = m.prop + m.src.net.cfg.BaseLatency
		m.propagate()
		d.propagate()
		return
	}
	m.propagate()
}

// propagate schedules delivery prop after the egress grant. When source and
// destination live on different partitions the delivery crosses queues via
// the destination's inbox; prop includes the cross-partition link floor
// (BaseLatency + ExtraDelay + LinkFault.ExtraDelay), which is what makes
// the Lookahead window safe.
func (m *msg) propagate() {
	src := m.src.sim
	if dst := m.dst.sim; src != dst {
		src.SendCross(dst, src.Now()+m.prop, m.deliverFn)
		return
	}
	src.After(m.prop, m.deliverFn)
}

// deliver hands the message to the destination's handler, after giving the
// record back: the handler may send, and may as well reuse it.
func (m *msg) deliver() {
	from, dst, payload, size := m.src.id, m.dst, m.payload, m.size
	m.src, m.dst, m.payload = nil, nil, nil
	if dst.nfree < maxFreeMsgs {
		m.next, dst.free = dst.free, m
		dst.nfree++
	}
	if dst.down || dst.handler == nil {
		return
	}
	dst.handler(from, payload, size)
}

// Broadcast sends payload to every other registered node.
func (n *Network) Broadcast(from wire.NodeID, payload any, size int) {
	for _, id := range n.NodeIDs() {
		if id != from {
			n.Send(from, id, payload, size)
		}
	}
}

// Messages returns the total number of messages sent.
func (n *Network) Messages() uint64 {
	var total uint64
	for _, nd := range n.nodes {
		total += nd.msgsOut
	}
	return total
}

// BytesSent returns the total bytes placed on the network.
func (n *Network) BytesSent() uint64 {
	var total uint64
	for _, nd := range n.nodes {
		total += nd.bytesOut
	}
	return total
}

// Lookahead returns the conservative PDES window: a lower bound on the
// propagation delay of any message that crosses partition boundaries. A
// partition may execute all events below min(other clocks) + Lookahead
// without missing an incoming message. The value is BaseLatency +
// ExtraDelay, raised by the minimum LinkFault.ExtraDelay only when EVERY
// cross-partition directed link carries one (a single uncovered link pins
// the floor at the base). Jitter, reordering, and duplication only ever add
// delay, and egress queueing only delays the grant, so the floor is safe.
//
// The value is cached; AddNode, SetSimResolver, and Faults.SetLink
// invalidate it. Fault-plan events apply link changes and invalidate in the
// same sim event (see faults.go), and the World re-reads Lookahead every
// round, so a delay change is honored from the next round on.
func (n *Network) Lookahead() time.Duration {
	if !n.lookaheadValid {
		n.lookahead = n.computeLookahead()
		n.lookaheadValid = true
	}
	return n.lookahead
}

func (n *Network) computeLookahead() time.Duration {
	cross := 0
	for _, u := range n.nodes {
		for _, v := range n.nodes {
			if u.sim != v.sim {
				cross++
			}
		}
	}
	if cross == 0 {
		// All nodes share one queue: no message ever crosses partitions.
		return time.Duration(math.MaxInt64)
	}
	base := n.cfg.BaseLatency + n.cfg.ExtraDelay
	covered := 0
	minExtra := time.Duration(math.MaxInt64)
	if n.faults != nil {
		for k, lf := range n.faults.links {
			u, okU := n.nodes[k.from]
			v, okV := n.nodes[k.to]
			if okU && okV && u.sim != v.sim && lf.ExtraDelay > 0 {
				covered++
				if lf.ExtraDelay < minExtra {
					minExtra = lf.ExtraDelay
				}
			}
		}
	}
	if covered == cross {
		base += minExtra
	}
	return base
}

// NodeBytesOut returns the egress byte count for one node.
func (n *Network) NodeBytesOut(id wire.NodeID) uint64 {
	if nd, ok := n.nodes[id]; ok {
		return nd.bytesOut
	}
	return 0
}
