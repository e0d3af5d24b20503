package netsim

// This file is the network's fault layer: the single owner of all injected
// fault state. Node liveness (crash/silence) and link behavior (blocking,
// probabilistic loss/duplication/reordering, delay spikes) are mutated only
// through the Faults controller, and every mutation is tagged with a Cause.
// That makes independently written fault sources compose: a Byzantine
// behavior that silences a server (CauseByzantine) and a scheduled fault plan
// that crashes and later restarts the same server (CausePlan) each retract
// only their own contribution — the restart does not revive the
// still-Byzantine-silent node. See DESIGN.md §8 (fault model).

import (
	"time"

	"repro/internal/wire"
)

// Cause tags who installed a piece of fault state, so independent fault
// sources can retract their own contribution without clobbering others.
type Cause string

// The causes used by this repo's fault sources. Any non-empty string is a
// valid cause; tests may invent their own.
const (
	// CauseByzantine tags the always-on silent-server fault a Byzantine
	// spec's "silent" behavior installs.
	CauseByzantine Cause = "byzantine"
	// CausePlan tags faults installed by internal/faults scheduled plans
	// (crash/restart, partition/heal, link events).
	CausePlan Cause = "plan"
)

// LinkFault describes the unreliable behavior of one directed link. The
// zero value is a perfect link (netsim's default: reliable, exactly-once).
type LinkFault struct {
	// Drop is the probability a message on the link is lost.
	Drop float64
	// Duplicate is the probability a message is delivered twice; the copy
	// arrives one BaseLatency after the original.
	Duplicate float64
	// Reorder is the probability a message is held back by an extra delay
	// uniform in [0, ReorderDelay), letting later messages overtake it.
	Reorder float64
	// ReorderDelay bounds the reordering hold-back.
	ReorderDelay time.Duration
	// ExtraDelay is added to every message's propagation time (delay
	// spikes, asymmetric WAN links).
	ExtraDelay time.Duration
}

// IsZero reports whether the link behaves perfectly.
func (lf LinkFault) IsZero() bool { return lf == LinkFault{} }

// linkKey identifies a directed link.
type linkKey struct {
	from, to wire.NodeID
}

// Faults owns every piece of injected fault state on a Network. All
// mutation goes through it; Network.Send only reads.
type Faults struct {
	net *Network
	// down holds the active down-causes per node. A node is down while at
	// least one cause is active; the node's cached down flag is the OR.
	down map[wire.NodeID]map[Cause]bool
	// blocks holds the active block-causes per directed link.
	blocks map[linkKey]map[Cause]bool
	// links holds the probabilistic fault configuration per directed link.
	links map[linkKey]LinkFault
}

// Faults returns the network's fault controller, creating it on first use.
func (n *Network) Faults() *Faults {
	if n.faults == nil {
		n.faults = &Faults{
			net:    n,
			down:   make(map[wire.NodeID]map[Cause]bool),
			blocks: make(map[linkKey]map[Cause]bool),
			links:  make(map[linkKey]LinkFault),
		}
	}
	return n.faults
}

// SetDown marks a node down (or back up) on behalf of one cause. The node
// stays down while any cause is active: a fault plan's restart cannot
// revive a silent Byzantine node, and vice versa. Unknown node
// ids are ignored.
func (f *Faults) SetDown(id wire.NodeID, cause Cause, down bool) {
	nd, ok := f.net.nodes[id]
	if !ok {
		return
	}
	causes := f.down[id]
	if down {
		if causes == nil {
			causes = make(map[Cause]bool)
			f.down[id] = causes
		}
		causes[cause] = true
	} else {
		delete(causes, cause)
	}
	nd.down = len(causes) > 0
}

// Down reports whether the node is currently down (any cause active).
func (f *Faults) Down(id wire.NodeID) bool {
	return len(f.down[id]) > 0
}

// DownCauses returns how many distinct causes currently hold the node down.
func (f *Faults) DownCauses(id wire.NodeID) int { return len(f.down[id]) }

// Block stops all delivery on the directed link from→to on behalf of one
// cause, until the same cause unblocks it (or Heal clears the cause).
func (f *Faults) Block(cause Cause, from, to wire.NodeID) {
	k := linkKey{from, to}
	causes := f.blocks[k]
	if causes == nil {
		causes = make(map[Cause]bool)
		f.blocks[k] = causes
	}
	causes[cause] = true
}

// Unblock retracts one cause's block on the directed link. The link stays
// blocked while other causes remain.
func (f *Faults) Unblock(cause Cause, from, to wire.NodeID) {
	k := linkKey{from, to}
	causes := f.blocks[k]
	delete(causes, cause)
	if len(causes) == 0 {
		delete(f.blocks, k)
	}
}

// Blocked reports whether the directed link is currently blocked.
func (f *Faults) Blocked(from, to wire.NodeID) bool {
	return len(f.blocks[linkKey{from, to}]) > 0
}

// Partition blocks, on behalf of cause, every link between nodes in
// different groups (both directions). Nodes absent from all groups keep
// full connectivity. Heal with the same cause reconnects everything the
// partition cut.
func (f *Faults) Partition(cause Cause, groups ...[]wire.NodeID) {
	for i, a := range groups {
		for _, b := range groups[i+1:] {
			for _, u := range a {
				for _, v := range b {
					f.Block(cause, u, v)
					f.Block(cause, v, u)
				}
			}
		}
	}
}

// Heal retracts every link block the cause installed (partitions and
// individual Block calls alike). Node down state is untouched.
func (f *Faults) Heal(cause Cause) {
	for k, causes := range f.blocks {
		delete(causes, cause)
		if len(causes) == 0 {
			delete(f.blocks, k)
		}
	}
}

// SetLink installs the probabilistic fault configuration for the directed
// link from→to, replacing whatever was set before. A zero LinkFault
// restores the perfect link.
func (f *Faults) SetLink(from, to wire.NodeID, lf LinkFault) {
	k := linkKey{from, to}
	if lf.IsZero() {
		delete(f.links, k)
		return
	}
	f.links[k] = lf
}

// Link returns the link's current fault configuration (zero = perfect).
func (f *Faults) Link(from, to wire.NodeID) LinkFault {
	return f.links[linkKey{from, to}]
}

// Dropped returns how many messages link faults discarded (blocks + drops).
// Counters live on the sending node and are summed on read.
func (f *Faults) Dropped() uint64 {
	var total uint64
	for _, nd := range f.net.nodes {
		total += nd.dropped
	}
	return total
}

// Duplicated returns how many duplicate deliveries link faults created.
func (f *Faults) Duplicated() uint64 {
	var total uint64
	for _, nd := range f.net.nodes {
		total += nd.duplicated
	}
	return total
}

// Reordered returns how many messages were held back for reordering.
func (f *Faults) Reordered() uint64 {
	var total uint64
	for _, nd := range f.net.nodes {
		total += nd.reordered
	}
	return total
}

// linkActive reports whether any link-level fault state exists at all; the
// Send hot path checks this once before touching the maps.
func (f *Faults) linkActive() bool {
	return len(f.blocks) > 0 || len(f.links) > 0
}
