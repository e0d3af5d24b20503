package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

type recv struct {
	from wire.NodeID
	at   time.Duration
	size int
}

// causeTest tags the node faults these tests install by hand.
const causeTest Cause = "test"

func setup(cfg Config) (*sim.Simulator, *Network, map[wire.NodeID]*[]recv) {
	s := sim.New(1)
	n := New(s, cfg)
	boxes := make(map[wire.NodeID]*[]recv)
	for id := wire.NodeID(0); id < 4; id++ {
		id := id
		box := &[]recv{}
		boxes[id] = box
		n.AddNode(id, func(from wire.NodeID, payload any, size int) {
			*box = append(*box, recv{from: from, at: s.Now(), size: size})
		})
	}
	return s, n, boxes
}

func TestPointToPointDelivery(t *testing.T) {
	cfg := Config{BaseLatency: time.Millisecond}
	s, n, boxes := setup(cfg)
	s.After(0, func() { n.Send(0, 1, "hello", 100) })
	s.Run()
	got := *boxes[1]
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(got))
	}
	if got[0].from != 0 || got[0].size != 100 {
		t.Fatalf("bad delivery: %+v", got[0])
	}
	if got[0].at != time.Millisecond {
		t.Fatalf("delivered at %v, want 1ms", got[0].at)
	}
}

func TestExtraDelayAddsToAllTraffic(t *testing.T) {
	cfg := Config{BaseLatency: time.Millisecond, ExtraDelay: 30 * time.Millisecond}
	s, n, boxes := setup(cfg)
	s.After(0, func() { n.Send(0, 1, "x", 10) })
	s.Run()
	if at := (*boxes[1])[0].at; at != 31*time.Millisecond {
		t.Fatalf("delivered at %v, want 31ms", at)
	}
}

func TestBandwidthSerializesEgress(t *testing.T) {
	// 1000 B/s: a 500-byte message takes 500ms to transmit.
	cfg := Config{Bandwidth: 1000}
	s, n, boxes := setup(cfg)
	s.After(0, func() {
		n.Send(0, 1, "a", 500)
		n.Send(0, 2, "b", 500)
	})
	s.Run()
	if at := (*boxes[1])[0].at; at != 500*time.Millisecond {
		t.Fatalf("first delivery at %v, want 500ms", at)
	}
	// Second transmission waits for the first to clear the sender's egress.
	if at := (*boxes[2])[0].at; at != time.Second {
		t.Fatalf("second delivery at %v, want 1s", at)
	}
}

// A transmission time past the end of time saturates there: at 1e-8 B/s a
// 100-byte message takes 10¹⁹ s, which as an int64 of nanoseconds wraps
// negative and would be delivered at once.
func TestTinyBandwidthNeverDelivers(t *testing.T) {
	s, n, boxes := setup(Config{BaseLatency: time.Millisecond, Bandwidth: 1e-8})
	s.After(0, func() {
		n.Send(0, 1, "a", 100)
		n.Send(0, 2, "b", 100)
	})
	s.RunUntil(1000 * time.Hour)
	if got := len(*boxes[1]) + len(*boxes[2]); got != 0 {
		t.Fatalf("%d deliveries before the horizon, want 0", got)
	}
	if s.Pending() == 0 {
		t.Fatal("the transmissions left the queue")
	}
}

func TestBroadcastReachesAllOthers(t *testing.T) {
	s, n, boxes := setup(Config{BaseLatency: time.Millisecond})
	s.After(0, func() { n.Broadcast(2, "blk", 64) })
	s.Run()
	for id, box := range boxes {
		want := 1
		if id == 2 {
			want = 0
		}
		if len(*box) != want {
			t.Fatalf("node %d got %d messages, want %d", id, len(*box), want)
		}
	}
}

func TestSelfSendLoopsBack(t *testing.T) {
	s, n, boxes := setup(Config{BaseLatency: time.Hour}) // latency must not apply
	s.After(0, func() { n.Send(3, 3, "self", 8) })
	s.Run()
	if len(*boxes[3]) != 1 {
		t.Fatal("self-send not delivered")
	}
	if at := (*boxes[3])[0].at; at > time.Millisecond {
		t.Fatalf("self-send took %v, want loopback-fast", at)
	}
}

func TestDownNodeSendsAndReceivesNothing(t *testing.T) {
	s, n, boxes := setup(Config{})
	n.Faults().SetDown(1, causeTest, true)
	s.After(0, func() {
		n.Send(1, 0, "from-down", 5)
		n.Send(0, 1, "to-down", 5)
	})
	s.Run()
	if len(*boxes[0]) != 0 {
		t.Fatal("message from down node delivered")
	}
	if len(*boxes[1]) != 0 {
		t.Fatal("message to down node delivered")
	}
	// Revive: traffic flows again.
	n.Faults().SetDown(1, causeTest, false)
	s.After(0, func() { n.Send(0, 1, "again", 5) })
	s.Run()
	if len(*boxes[1]) != 1 {
		t.Fatal("revived node did not receive")
	}
}

func TestJitterBoundsLatency(t *testing.T) {
	cfg := Config{BaseLatency: time.Millisecond, Jitter: time.Millisecond}
	s, n, boxes := setup(cfg)
	s.After(0, func() {
		for i := 0; i < 100; i++ {
			n.Send(0, 1, i, 10)
		}
	})
	s.Run()
	for _, r := range *boxes[1] {
		if r.at < time.Millisecond || r.at >= 2*time.Millisecond {
			t.Fatalf("delivery at %v outside [1ms, 2ms)", r.at)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	s, n, _ := setup(Config{})
	s.After(0, func() {
		n.Send(0, 1, "a", 100)
		n.Send(0, 2, "b", 200)
		n.Send(1, 0, "c", 50)
	})
	s.Run()
	if n.Messages() != 3 {
		t.Fatalf("messages = %d, want 3", n.Messages())
	}
	if n.BytesSent() != 350 {
		t.Fatalf("bytes = %d, want 350", n.BytesSent())
	}
	if n.NodeBytesOut(0) != 300 {
		t.Fatalf("node 0 egress = %d, want 300", n.NodeBytesOut(0))
	}
	if n.NodeBytesOut(9) != 0 {
		t.Fatal("unknown node has egress bytes")
	}
}

func TestNodeIDsSorted(t *testing.T) {
	s := sim.New(1)
	n := New(s, Config{})
	for _, id := range []wire.NodeID{5, 1, 9, 0, 3} {
		n.AddNode(id, nil)
	}
	ids := n.NodeIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not sorted: %v", ids)
		}
	}
}

func TestUnknownNodePanics(t *testing.T) {
	s := sim.New(1)
	n := New(s, Config{})
	n.AddNode(0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown destination")
		}
	}()
	n.Send(0, 42, "x", 1)
}

func TestHandlerReplacement(t *testing.T) {
	s := sim.New(1)
	n := New(s, Config{})
	hits := 0
	n.AddNode(0, nil)
	n.AddNode(1, func(wire.NodeID, any, int) { hits += 100 })
	n.AddNode(1, func(wire.NodeID, any, int) { hits++ }) // replaces
	s.After(0, func() { n.Send(0, 1, "x", 1) })
	s.Run()
	if hits != 1 {
		t.Fatalf("hits = %d, want 1 (replaced handler)", hits)
	}
}

func BenchmarkBroadcast(b *testing.B) {
	s := sim.New(1)
	n := New(s, DefaultLANConfig())
	for id := wire.NodeID(0); id < 10; id++ {
		n.AddNode(id, func(wire.NodeID, any, int) {})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Broadcast(0, i, 438)
		if s.Pending() > 8192 {
			s.Run()
		}
	}
	s.Run()
}
