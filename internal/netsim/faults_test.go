package netsim

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// The fault-state owner must compose independent causes: a Byzantine
// preset silencing a node and a scheduled plan crashing and restarting the
// same node each retract only their own contribution.
func TestDownCausesCompose(t *testing.T) {
	_, n, _ := setup(Config{BaseLatency: time.Millisecond})
	f := n.Faults()

	f.SetDown(1, CauseByzantine, true) // silent Byzantine preset
	f.SetDown(1, CausePlan, true)      // plan crash
	down := func() bool { return n.nodes[1].down }
	if !down() || len(f.down[1]) != 2 {
		t.Fatalf("down=%v causes=%d, want down with 2 causes", down(), len(f.down[1]))
	}
	f.SetDown(1, CausePlan, false) // plan restart
	if !down() {
		t.Fatal("plan restart revived a Byzantine-silent node")
	}
	f.SetDown(1, CauseByzantine, false)
	if down() {
		t.Fatal("node still down after every cause retracted")
	}
	// Retracting a cause that was never set is a no-op.
	f.SetDown(1, CausePlan, false)
	if down() {
		t.Fatal("no-op retraction changed liveness")
	}
}

func TestBlockedLinkDropsDirectionally(t *testing.T) {
	s, n, boxes := setup(Config{BaseLatency: time.Millisecond})
	f := n.Faults()
	f.Block(CausePlan, 0, 1)
	s.After(0, func() {
		n.Send(0, 1, "blocked", 10)
		n.Send(1, 0, "open", 10)
	})
	s.Run()
	if len(*boxes[1]) != 0 {
		t.Fatal("blocked link delivered")
	}
	if len(*boxes[0]) != 1 {
		t.Fatal("reverse direction should be unaffected")
	}
	f.Heal(CausePlan)
	s.After(0, func() { n.Send(0, 1, "after-heal", 10) })
	s.Run()
	if len(*boxes[1]) != 1 {
		t.Fatal("healed link did not deliver")
	}
}

// Two causes blocking the same link: the link opens only when both retract.
func TestBlockCausesCompose(t *testing.T) {
	_, n, _ := setup(Config{})
	f := n.Faults()
	f.Block(CauseByzantine, 0, 1)
	f.Block(CausePlan, 0, 1)
	f.Heal(CausePlan)
	if !f.Blocked(0, 1) {
		t.Fatal("healing the plan cause opened a link another cause blocks")
	}
	f.Heal(CauseByzantine)
	if f.Blocked(0, 1) {
		t.Fatal("link still blocked after every cause healed")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	s, n, boxes := setup(Config{BaseLatency: time.Millisecond})
	f := n.Faults()
	f.Partition(CausePlan, []wire.NodeID{0, 1}, []wire.NodeID{2, 3})
	s.After(0, func() {
		n.Send(0, 1, "same-side", 10)
		n.Send(0, 2, "cross", 10)
		n.Send(3, 1, "cross", 10)
		n.Send(2, 3, "same-side", 10)
	})
	s.Run()
	if len(*boxes[1]) != 1 || len(*boxes[3]) != 1 {
		t.Fatalf("same-side traffic disturbed: %d, %d deliveries", len(*boxes[1]), len(*boxes[3]))
	}
	if len(*boxes[2]) != 0 {
		t.Fatal("cross-partition traffic delivered")
	}
	f.Heal(CausePlan)
	s.After(0, func() { n.Send(0, 2, "healed", 10) })
	s.Run()
	if len(*boxes[2]) != 1 {
		t.Fatal("healed partition did not deliver")
	}
}

func TestLinkDropProbability(t *testing.T) {
	s, n, boxes := setup(Config{BaseLatency: time.Millisecond})
	n.Faults().SetLink(0, 1, LinkFault{Drop: 0.5})
	const sends = 400
	s.After(0, func() {
		for i := 0; i < sends; i++ {
			n.Send(0, 1, i, 10)
		}
	})
	s.Run()
	got := len(*boxes[1])
	if got < sends/4 || got > sends*3/4 {
		t.Fatalf("deliveries = %d of %d with 50%% drop, want roughly half", got, sends)
	}
}

func TestLinkDuplicateDeliversTwice(t *testing.T) {
	s, n, boxes := setup(Config{BaseLatency: time.Millisecond})
	n.Faults().SetLink(0, 1, LinkFault{Duplicate: 1.0})
	s.After(0, func() { n.Send(0, 1, "x", 10) })
	s.Run()
	if len(*boxes[1]) != 2 {
		t.Fatalf("deliveries = %d with certain duplication, want 2", len(*boxes[1]))
	}
	got := *boxes[1]
	if got[1].at != got[0].at+time.Millisecond {
		t.Fatalf("duplicate at %v, want one BaseLatency after original %v", got[1].at, got[0].at)
	}
}

func TestLinkExtraDelayAndReorder(t *testing.T) {
	s, n, boxes := setup(Config{BaseLatency: time.Millisecond})
	n.Faults().SetLink(0, 1, LinkFault{ExtraDelay: 10 * time.Millisecond})
	s.After(0, func() { n.Send(0, 1, "slow", 10) })
	s.Run()
	if at := (*boxes[1])[0].at; at != 11*time.Millisecond {
		t.Fatalf("delivered at %v, want 11ms", at)
	}

	// Certain reordering holds messages back by < ReorderDelay.
	n.Faults().SetLink(0, 1, LinkFault{Reorder: 1.0, ReorderDelay: 20 * time.Millisecond})
	start := s.Now()
	s.After(0, func() { n.Send(0, 1, "held", 10) })
	s.Run()
	at := (*boxes[1])[1].at - start
	if at < time.Millisecond || at >= 21*time.Millisecond {
		t.Fatalf("reordered delivery after %v, want [1ms, 21ms)", at)
	}

	// Clearing with a zero fault restores the perfect link.
	n.Faults().SetLink(0, 1, LinkFault{})
	if !n.Faults().Link(0, 1).IsZero() {
		t.Fatal("zero SetLink did not clear the link fault")
	}
}

// Installing and clearing fault state must leave the no-fault random
// stream untouched: a run that never faults is bit-identical whether or
// not the Faults controller was ever instantiated.
func TestNoFaultsNoExtraRandomDraws(t *testing.T) {
	run := func(touchFaults bool) time.Duration {
		s, n, boxes := setup(Config{BaseLatency: time.Millisecond, Jitter: time.Millisecond})
		if touchFaults {
			f := n.Faults()
			f.SetLink(0, 1, LinkFault{Drop: 0.9})
			f.SetLink(0, 1, LinkFault{}) // cleared before any send
		}
		s.After(0, func() {
			for i := 0; i < 16; i++ {
				n.Send(0, 1, i, 10)
			}
		})
		s.Run()
		last := (*boxes[1])[len(*boxes[1])-1]
		return last.at
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("fault bookkeeping perturbed the random stream: %v vs %v", a, b)
	}
}
