package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// A message between two nodes that both send — Send, egress grant,
// propagation, delivery — allocates nothing once each node's free list
// holds what the traffic needs: the record comes back with the next message
// received.
func TestSendDeliverSteadyStateAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLANConfig())
	var got int
	for id := wire.NodeID(0); id < 2; id++ {
		n.AddNode(id, func(wire.NodeID, any, int) { got++ })
	}
	payload := &Envelope{}
	round := func() {
		for range 64 {
			n.Send(0, 1, payload, 200)
			n.Send(1, 0, payload, 200)
		}
		s.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("128 messages in steady state allocate %.0f times, want 0", allocs)
	}
	if want := 22 * 128; got != want {
		t.Fatalf("%d deliveries, want %d", got, want)
	}
}

// Every path a message can take ends with its record on the receiving
// node's free list — loopback, a duplicated delivery (two records), a
// delivery to a node that is down — and a node that only ever receives
// keeps at most maxFreeMsgs of them.
func TestMessageRecordsReturnToTheReceiver(t *testing.T) {
	s := sim.New(1)
	n := New(s, Config{BaseLatency: time.Millisecond})
	var got [3]int
	for id := range got {
		n.AddNode(wire.NodeID(id), func(wire.NodeID, any, int) { got[id]++ })
	}
	free := func(id wire.NodeID) int {
		nd, count := n.nodes[id], 0
		for m := nd.free; m != nil; m = m.next {
			if m.payload != nil || m.src != nil || m.dst != nil {
				t.Fatalf("node %d: a spare record still references its last message", id)
			}
			count++
		}
		if count != nd.nfree {
			t.Fatalf("node %d: free list holds %d records, nfree says %d", id, count, nd.nfree)
		}
		return count
	}

	n.Send(0, 0, "self", 1)
	s.Run()
	if got[0] != 1 || free(0) != 1 {
		t.Fatalf("loopback: %d delivered, %d spare records at node 0; want 1 and 1", got[0], free(0))
	}

	n.Faults().SetLink(0, 1, LinkFault{Duplicate: 1})
	n.Send(0, 1, "twice", 1) // reuses node 0's spare record, and makes one more
	s.Run()
	if got[1] != 2 || free(0) != 0 || free(1) != 2 || n.Faults().Duplicated() != 1 {
		t.Fatalf("duplicate: %d delivered, spare records %d/%d, %d duplicated; want 2, 0/2, 1",
			got[1], free(0), free(1), n.Faults().Duplicated())
	}

	n.Faults().SetDown(2, causeTest, true)
	n.Send(1, 2, "lost", 1)
	s.Run()
	if got[2] != 0 || free(1) != 1 || free(2) != 1 {
		t.Fatalf("down node: %d delivered, spare records %d/%d; want 0, 1/1", got[2], free(1), free(2))
	}
	n.Faults().SetDown(2, causeTest, false)

	for range maxFreeMsgs + 100 {
		n.Send(1, 2, "flood", 1)
	}
	s.Run()
	if free(2) != maxFreeMsgs {
		t.Fatalf("node 2 keeps %d spare records, want the cap %d", free(2), maxFreeMsgs)
	}
}
