package netsim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// windowMode is how a mesh under test counts the deliveries of a flush
// window, which decides when the window is reused.
type windowMode int

const (
	// recycled is the mesh as built: a window returns to its owner after
	// the last delivery the network scheduled is received.
	recycled windowMode = iota
	// pinned holds one count per window that never comes back, so every
	// flush fills a new window: the reference a recycled run must match.
	pinned
	// releasedEarly is the sabotage: a window counts at most one delivery,
	// so it returns to its owner at its first receive while the others
	// are still in flight.
	releasedEarly
)

// published is what a windowRig gossips: a payload that names its own
// origin and size, so a receiver can tell it got what was published.
type published struct {
	origin wire.NodeID
	n      int
	size   int
}

type delivery struct {
	at   time.Duration
	node wire.NodeID
	p    *published
}

// windowRig is a mesh over a simulated network whose deliveries are
// checked as they happen: each carries the payload published under its
// origin, at its size, and reaches a node at most once and never its
// origin.
type windowRig struct {
	s     *sim.Simulator
	net   *Network
	mesh  *Mesh
	ids   []wire.NodeID
	pubs  []*published
	got   map[wire.NodeID]map[*published]int
	trace []delivery
	err   error
	// windows holds, per node, every window its flushes have sent.
	windows map[wire.NodeID]map[*window]bool
}

func newWindowRig(n, fanout int, seed int64, mode windowMode) *windowRig {
	r := &windowRig{s: sim.New(seed), got: map[wire.NodeID]map[*published]int{}, windows: map[wire.NodeID]map[*window]bool{}}
	r.net = New(r.s, DefaultLANConfig())
	for i := range n {
		id := wire.NodeID(i)
		r.ids = append(r.ids, id)
		r.got[id] = map[*published]int{}
		r.net.AddNode(id, func(from wire.NodeID, payload any, _ int) {
			r.mesh.Receive(id, from, payload.(*Envelope))
		})
	}
	r.mesh = NewMesh(r.net, r.ids, fanout)
	for _, id := range r.ids {
		r.mesh.SetDeliver(id, func(origin wire.NodeID, payload any, size int) {
			r.deliver(id, origin, payload, size)
		})
		mn := r.mesh.nodes[id]
		send := mn.sendFn
		switch mode {
		case pinned:
			mn.sendFn = func(to wire.NodeID, env *Envelope, size int) int { return send(to, env, size) + 1 }
		case releasedEarly:
			mn.sendFn = func(to wire.NodeID, env *Envelope, size int) int {
				k := send(to, env, size)
				if env.w.pending > 0 {
					return 0
				}
				return min(k, 1)
			}
		}
		r.windows[id] = map[*window]bool{}
		counted := mn.sendFn
		mn.sendFn = func(to wire.NodeID, env *Envelope, size int) int {
			r.windows[id][env.w] = true
			return counted(to, env, size)
		}
	}
	return r
}

func (r *windowRig) deliver(node, origin wire.NodeID, payload any, size int) {
	p, ok := payload.(*published)
	switch {
	case r.err != nil:
	case !ok || p == nil:
		r.err = fmt.Errorf("node %d at %v: delivered %v from %d, not a published payload", node, r.s.Now(), payload, origin)
	case p.origin != origin || p.size != size:
		r.err = fmt.Errorf("node %d at %v: payload %d of node %d (%d B) delivered as from %d (%d B)",
			node, r.s.Now(), p.n, p.origin, p.size, origin, size)
	case node == origin:
		r.err = fmt.Errorf("node %d at %v: its own payload %d delivered back", node, r.s.Now(), p.n)
	case r.got[node][p] > 0:
		r.err = fmt.Errorf("node %d at %v: payload %d of node %d delivered twice", node, r.s.Now(), p.n, p.origin)
	}
	r.got[node][p]++
	r.trace = append(r.trace, delivery{r.s.Now(), node, p})
}

// gossip publishes a new payload of size bytes from a node.
func (r *windowRig) gossip(from wire.NodeID, size int) {
	p := &published{origin: from, n: len(r.pubs), size: size}
	r.pubs = append(r.pubs, p)
	r.mesh.Gossip(from, p, size)
}

// missing returns the first (node, payload) pair among the given nodes that
// was never delivered, or nil.
func (r *windowRig) missing(nodes []wire.NodeID) error {
	for _, p := range r.pubs {
		for _, id := range nodes {
			if id != p.origin && r.got[id][p] == 0 {
				return fmt.Errorf("payload %d of node %d never reached node %d", p.n, p.origin, id)
			}
		}
	}
	return nil
}

// sameTrace compares a run with the pinned run of the same script.
func sameTrace(got, ref *windowRig) error {
	for i := range min(len(got.trace), len(ref.trace)) {
		g, w := got.trace[i], ref.trace[i]
		if g.at != w.at || g.node != w.node || g.p.n != w.p.n {
			return fmt.Errorf("delivery %d: payload %d at node %d at %v; without reuse, payload %d at node %d at %v",
				i, g.p.n, g.node, g.at, w.p.n, w.node, w.at)
		}
	}
	if len(got.trace) != len(ref.trace) {
		return fmt.Errorf("%d deliveries; without reuse, %d", len(got.trace), len(ref.trace))
	}
	return nil
}

// faultyWindowRun gossips 400 payloads over an 8-node fanout-4 mesh whose
// links from node 0 duplicate, from node 2 drop and from node 4 reorder,
// with node 6 down throughout: its neighbours' windows each keep a
// delivery that never reaches Receive.
func faultyWindowRun(mode windowMode) *windowRig {
	r := newWindowRig(8, 4, 3, mode)
	f := r.net.Faults()
	for _, to := range r.ids {
		f.SetLink(0, to, LinkFault{Duplicate: 0.5})
		f.SetLink(2, to, LinkFault{Drop: 0.05})
		f.SetLink(4, to, LinkFault{Reorder: 0.5, ReorderDelay: 20 * time.Millisecond})
	}
	f.SetDown(6, causeTest, true)
	for i := range 400 {
		from := wire.NodeID(i % 8)
		if from == 6 {
			continue
		}
		r.s.At(time.Duration(i)*time.Millisecond/2, func() { r.gossip(from, 50+i%200) })
	}
	r.s.Run()
	return r
}

// checkFaultyWindowRun runs faultyWindowRun in mode and holds it to the
// checks every delivery passed, to exactly-once delivery at every node that
// is up, and to the pinned run's delivery trace.
func checkFaultyWindowRun(mode windowMode) error {
	r := faultyWindowRun(mode)
	if r.err != nil {
		return r.err
	}
	up := slices.DeleteFunc(slices.Clone(r.ids), func(id wire.NodeID) bool { return id == 6 })
	if err := r.missing(up); err != nil {
		return err
	}
	return sameTrace(r, faultyWindowRun(pinned))
}

// Windows come back and are reused under duplicate, drop and reorder
// faults and with a receiver down, and nothing a node receives changes:
// every fresh delivery carries its original payload, exactly once, at the
// time and in the order of a run in which no window is reused. A mesh that
// reuses a window while a delivery of it is in flight fails the same check.
func TestMeshWindowsRecycleSafely(t *testing.T) {
	if err := checkFaultyWindowRun(recycled); err != nil {
		t.Fatal(err)
	}
	r := faultyWindowRun(recycled)
	spare := 0
	for _, mn := range r.mesh.nodes {
		spare += mn.nfree
	}
	if spare == 0 {
		t.Fatal("no window came back to its owner: the run exercised no reuse")
	}
	t.Logf("%d deliveries; %d windows on the free lists at the end", len(r.trace), spare)
	// A delivery to node 6, which is down, counts as read where it arrives,
	// so its neighbours' windows come back as everyone else's do.
	for _, id := range r.mesh.nodes[6].peers {
		made := len(r.windows[id])
		t.Logf("node %d, a neighbour of node 6, made %d windows", id, made)
		if made > maxFreeWindows+2 {
			t.Errorf("node %d made %d windows, want at most %d", id, made, maxFreeWindows+2)
		}
	}

	err := checkFaultyWindowRun(releasedEarly)
	if err == nil {
		t.Fatal("windows released at their first receive pass the check")
	}
	t.Logf("released at first receive: %v", err)
}

// FuzzMeshWindows drives a 5-node fanout-2 mesh through an arbitrary
// sequence of gossip, link faults, crashes and clock steps decoded from the
// input, then heals everything and runs to quiescence. Every delivery must
// carry its original payload and reach its node at most once, the run must
// match the pinned run of the same sequence delivery for delivery, and when
// the sequence never dropped a message or took a node down every node must
// have every payload.
func FuzzMeshWindows(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 3, 3, 0, 3})
	f.Add([]byte{1, 1, 1, 0, 0, 50, 0, 7, 3, 1, 1, 3, 0, 1, 3, 2})
	f.Add([]byte{2, 2, 0, 3, 0, 9, 1, 8, 2, 0, 0, 4, 3, 8, 2, 2, 0, 1, 3, 31})
	f.Add([]byte{1, 5, 3, 0, 0, 100, 0, 200, 0, 44, 3, 4, 1, 5, 0, 0, 2, 3, 3, 30})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			return
		}
		lossy := false
		script := func(r *windowRig) {
			faults := r.net.Faults()
			var at time.Duration
			down := map[wire.NodeID]bool{}
			for i := 0; i+2 < len(data); i += 3 {
				op, a, b := data[i]%4, data[i+1], data[i+2]
				node := wire.NodeID(a % 5)
				switch op {
				case 0:
					r.s.At(at, func() { r.gossip(node, 1+int(b)) })
				case 1:
					to := wire.NodeID(a / 5 % 5)
					var lf LinkFault
					switch b % 4 {
					case 1:
						lf.Duplicate = float64(b>>2%4+1) / 4
					case 2:
						lf.Drop, lossy = float64(b>>2%4+1)/8, true
					case 3:
						lf.Reorder, lf.ReorderDelay = float64(b>>2%4+1)/4, 20*time.Millisecond
					}
					r.s.At(at, func() { faults.SetLink(node, to, lf) })
				case 2:
					down[node] = !down[node]
					isDown := down[node]
					lossy = true
					r.s.At(at, func() { faults.SetDown(node, causeTest, isDown) })
				case 3:
					at += time.Duration(b%32) * time.Millisecond
				}
			}
			r.s.At(at, func() {
				for _, from := range r.ids {
					faults.SetDown(from, causeTest, false)
					for _, to := range r.ids {
						faults.SetLink(from, to, LinkFault{})
					}
				}
			})
			r.s.Run()
		}
		run := func(mode windowMode) *windowRig {
			r := newWindowRig(5, 2, 1, mode)
			script(r)
			return r
		}
		r := run(recycled)
		if r.err != nil {
			t.Fatal(r.err)
		}
		if err := sameTrace(r, run(pinned)); err != nil {
			t.Fatal(err)
		}
		if !lossy {
			if err := r.missing(r.ids); err != nil {
				t.Fatal(err)
			}
		}
	})
}
