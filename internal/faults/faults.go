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
// Plans are written as JSON (spec.FaultSpec, a "faults" block in any
// scenario document or a standalone file for setchain-bench -faults), and a
// plan is that block's event list as it is: this package only executes it.
// The chaos_* registry entries ship ready-made schedules. Determinism is
// what makes faulted runs usable as regression pins in the generated
// RESULTS.md.
//
// See DESIGN.md §8 (fault model and the invariant checker).
package faults

import (
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/wire"
)

// Plan is a deterministic fault schedule: a scenario spec's fault events
// (spec.FaultEventSpec; the action names are spec's Fault* constants). The
// zero value is a no-op.
type Plan struct {
	Events []spec.FaultEventSpec
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
	out := Plan{Events: make([]spec.FaultEventSpec, len(p.Events))}
	copy(out.Events, p.Events)
	for i := range out.Events {
		out.Events[i].At = spec.Duration(float64(out.Events[i].At) * f)
	}
	return out
}

// Plans carry no validator of their own: spec.FaultSpec.validate is the
// single authority (every production path — JSON documents, registry
// cells, -faults files, matrix axes — flows through it before FromSpec
// copies the events into a Plan). Install is tolerant of out-of-range ids:
// netsim ignores fault state for nodes that do not exist.

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
		s.At(ev.At.Std(), func() { apply(f, net, ev) })
	}
}

// apply executes one event. Server indices become node ids here, when the
// event fires.
func apply(f *netsim.Faults, net *netsim.Network, ev spec.FaultEventSpec) {
	switch ev.Action {
	case spec.FaultCrash, spec.FaultRestart:
		for _, id := range ev.Nodes {
			f.SetDown(wire.NodeID(id), netsim.CausePlan, ev.Action == spec.FaultCrash)
		}
	case spec.FaultPartition:
		// Nodes absent from every group keep full connectivity.
		groups := make([][]wire.NodeID, len(ev.Groups))
		for i, g := range ev.Groups {
			groups[i] = nodeIDs(g)
		}
		f.Partition(netsim.CausePlan, groups...)
	case spec.FaultHeal:
		// Removes every link block the plan installed, not its link faults:
		// restoring a degraded link takes another link event.
		f.Heal(netsim.CausePlan)
	case spec.FaultLink:
		// Replaces whatever the plan set on these links before, in both
		// directions; an empty side means every node, and an event with no
		// fault field set restores perfect links.
		lf := netsim.LinkFault{Drop: ev.Drop, Duplicate: ev.Duplicate, Reorder: ev.Reorder,
			ReorderDelay: ev.ReorderDelay.Std(), ExtraDelay: ev.Delay.Std()}
		from, to := nodeIDs(ev.From), nodeIDs(ev.To)
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
				f.SetLink(u, v, lf)
				f.SetLink(v, u, lf)
			}
		}
	}
}

func nodeIDs(ids []int) []wire.NodeID {
	out := make([]wire.NodeID, len(ids))
	for i, id := range ids {
		out[i] = wire.NodeID(id)
	}
	return out
}
