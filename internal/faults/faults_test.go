package faults

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/wire"
)

func network(t *testing.T, n int) (*sim.Simulator, *netsim.Network) {
	t.Helper()
	s := sim.New(1)
	net := netsim.New(s, netsim.Config{BaseLatency: time.Millisecond})
	for i := 0; i < n; i++ {
		net.AddNode(wire.NodeID(i), func(wire.NodeID, any, int) {})
	}
	return s, net
}

// down reports whether node id is down: a down node sends nothing.
func down(net *netsim.Network, id wire.NodeID) bool {
	before := net.Messages()
	net.Send(id, id, nil, 0)
	return net.Messages() == before
}

func TestInstallExecutesOnSchedule(t *testing.T) {
	s, net := network(t, 4)
	ms := func(n int) spec.Duration { return spec.Duration(time.Duration(n) * time.Millisecond) }
	p := Plan{Events: []spec.FaultEventSpec{
		{At: ms(10), Action: spec.FaultCrash, Nodes: []int{3}},
		{At: ms(20), Action: spec.FaultPartition, Groups: [][]int{{0, 1}, {2}}},
		{At: ms(30), Action: spec.FaultRestart, Nodes: []int{3}},
		{At: ms(40), Action: spec.FaultHeal},
		{At: ms(50), Action: spec.FaultLink, From: []int{0}, To: []int{1},
			Drop: 0.5, Duplicate: 0.25, Reorder: 0.125, ReorderDelay: ms(7), Delay: ms(9)},
	}}
	p.Install(s, net)
	f := net.Faults()

	s.RunUntil(15 * time.Millisecond)
	if !down(net, 3) {
		t.Fatal("crash event did not take node 3 down")
	}
	s.RunUntil(25 * time.Millisecond)
	if !f.Blocked(0, 2) || !f.Blocked(2, 1) || f.Blocked(0, 1) {
		t.Fatal("partition blocks wrong links")
	}
	if f.Blocked(0, 3) || f.Blocked(3, 0) {
		t.Fatal("node absent from every group lost connectivity")
	}
	s.RunUntil(35 * time.Millisecond)
	if down(net, 3) {
		t.Fatal("restart event did not revive node 3")
	}
	s.RunUntil(45 * time.Millisecond)
	if f.Blocked(0, 2) {
		t.Fatal("heal event did not clear the partition")
	}
	s.RunUntil(55 * time.Millisecond)
	want := netsim.LinkFault{Drop: 0.5, Duplicate: 0.25, Reorder: 0.125,
		ReorderDelay: 7 * time.Millisecond, ExtraDelay: 9 * time.Millisecond}
	if f.Link(0, 1) != want || f.Link(1, 0) != want {
		t.Fatalf("link event installed %+v and %+v, want %+v in both directions", f.Link(0, 1), f.Link(1, 0), want)
	}
}

func TestLinkEventEmptyScopeMeansAllLinks(t *testing.T) {
	s, net := network(t, 3)
	Plan{Events: []spec.FaultEventSpec{{Action: spec.FaultLink, Drop: 0.1}}}.Install(s, net)
	s.RunUntil(time.Millisecond)
	f := net.Faults()
	for _, u := range net.NodeIDs() {
		for _, v := range net.NodeIDs() {
			if u == v {
				continue
			}
			if f.Link(u, v).Drop != 0.1 {
				t.Fatalf("link %d→%d missing the all-links fault", u, v)
			}
		}
	}
}

func TestEmptyPlanIsNoOp(t *testing.T) {
	s, net := network(t, 2)
	var p Plan
	if !p.Empty() {
		t.Fatal("zero plan not empty")
	}
	p.Install(s, net)
	if s.Pending() != 0 {
		t.Fatal("empty plan scheduled events")
	}
	_ = net
}

// Install must tolerate ids outside the deployment (validation is the
// spec layer's job; netsim ignores fault state for unknown nodes).
func TestInstallToleratesUnknownNodes(t *testing.T) {
	s, net := network(t, 2)
	Plan{Events: []spec.FaultEventSpec{
		{Action: spec.FaultCrash, Nodes: []int{9}},
		{Action: spec.FaultPartition, Groups: [][]int{{0}, {9}}},
	}}.Install(s, net)
	s.RunUntil(time.Millisecond)
	if down(net, 0) || down(net, 1) {
		t.Fatal("unknown-node events disturbed real nodes")
	}
}
