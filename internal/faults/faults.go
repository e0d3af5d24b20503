// Package faults schedules deterministic fault injection for a simulated
// Setchain deployment: a Plan is a list of timestamped events — node
// crashes and restarts, network partitions and heals, and per-link message
// drop/duplication/reordering probabilities and delay spikes — installed
// as ordinary simulator events. Because the events execute on the virtual
// clock and all randomness comes from the simulator's seeded stream, a
// faulted run is exactly as reproducible as a fault-free one: same seed,
// same plan ⇒ same schedule, bit for bit.
//
// The plan drives netsim's Faults controller under netsim.CausePlan, so it
// composes with the always-on silent Byzantine servers (which use
// netsim.CauseByzantine): restarting a node the plan crashed never
// revives a node a Byzantine spec silenced.
//
// Plans are usually written as JSON (spec.FaultSpec, a "faults" block in
// any scenario document or a standalone file for setchain-bench -faults)
// and converted by internal/harness; the chaos_* registry entries ship
// ready-made schedules. Determinism is what makes faulted runs usable as
// regression pins in the generated RESULTS.md.
//
// See DESIGN.md §8 (fault model and the invariant checker).
package faults

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Kind names a fault event's action.
type Kind string

// The fault event kinds.
const (
	// Crash takes Nodes down (they neither send nor receive).
	Crash Kind = "crash"
	// Restart brings Nodes back up (unless another cause holds them down).
	Restart Kind = "restart"
	// Partition blocks every link between nodes in different Groups.
	Partition Kind = "partition"
	// Heal removes every link BLOCK the plan installed (i.e. undoes
	// Partition). It does not touch LinkFaults: restoring a link that a
	// Link event degraded takes another Link event with a zero Fault.
	Heal Kind = "heal"
	// Link sets the LinkFault for every directed link in From×To (both
	// directions; empty From/To mean "all nodes"), replacing whatever the
	// plan set on those links before — repeat every field a later event
	// (e.g. a delay spike) should keep. A zero Fault restores perfect
	// links.
	Link Kind = "link"
)

// Event is one scheduled fault action.
type Event struct {
	// At is the virtual time the action executes.
	At time.Duration
	// Kind selects the action; the fields below apply per kind.
	Kind Kind
	// Nodes are the targets of Crash/Restart.
	Nodes []wire.NodeID
	// Groups are Partition's sides; nodes absent from every group keep
	// full connectivity.
	Groups [][]wire.NodeID
	// From/To scope a Link event; empty means every registered node.
	From, To []wire.NodeID
	// Fault is the link behavior a Link event installs.
	Fault netsim.LinkFault
}

// Plan is a deterministic fault schedule. The zero value is a no-op.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan schedules nothing.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// Scaled returns a copy of the plan with every event time multiplied by f,
// so a run-time scale factor shrinks the whole timeline — workload rate,
// send window and fault schedule together. f == 1 (or <= 0, the harness's
// "unset") returns the plan unchanged.
func (p Plan) Scaled(f float64) Plan {
	if f == 1 || f <= 0 || p.Empty() {
		return p
	}
	out := Plan{Events: make([]Event, len(p.Events))}
	copy(out.Events, p.Events)
	for i := range out.Events {
		out.Events[i].At = time.Duration(float64(out.Events[i].At) * f)
	}
	return out
}

// Plans carry no validator of their own: spec.FaultSpec.validate is the
// single authority (every production path — JSON documents, registry
// cells, -faults files, matrix axes — flows through it before FromSpec
// converts to a Plan). Install is tolerant of out-of-range ids: netsim
// ignores fault state for nodes that do not exist.

// Install schedules every event of the plan on the simulator, acting on
// the network's fault controller under netsim.CausePlan. Call it after the
// deployment's nodes are registered and before the run starts. Events
// sharing a timestamp execute in plan order.
func (p Plan) Install(s *sim.Simulator, net *netsim.Network) {
	if p.Empty() {
		return
	}
	f := net.Faults()
	for _, ev := range p.Events {
		ev := ev
		s.At(ev.At, func() { apply(f, net, ev) })
	}
}

func apply(f *netsim.Faults, net *netsim.Network, ev Event) {
	switch ev.Kind {
	case Crash:
		for _, id := range ev.Nodes {
			f.SetDown(id, netsim.CausePlan, true)
		}
	case Restart:
		for _, id := range ev.Nodes {
			f.SetDown(id, netsim.CausePlan, false)
		}
	case Partition:
		f.Partition(netsim.CausePlan, ev.Groups...)
	case Heal:
		f.Heal(netsim.CausePlan)
	case Link:
		from, to := ev.From, ev.To
		if len(from) == 0 {
			from = net.NodeIDs()
		}
		if len(to) == 0 {
			to = net.NodeIDs()
		}
		for _, u := range from {
			for _, v := range to {
				if u == v {
					continue
				}
				f.SetLink(u, v, ev.Fault)
				f.SetLink(v, u, ev.Fault)
			}
		}
	}
}
