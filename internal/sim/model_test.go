package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// refKernel is the kernel contract in its plainest form: one list of
// events popped in (at, seq) order, where every resource job — a charge
// included — is an event, the charge's a no-op. Simulator must be
// indistinguishable from it at every Run/RunUntil boundary.
type refKernel struct {
	clock  time.Duration
	seq    uint64
	execd  uint64
	events []*refEvent
	busy   []time.Duration // per resource: busyUntil
}

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func (k *refKernel) at(t time.Duration, fn func()) func() {
	if t < k.clock {
		t = k.clock
	}
	k.seq++
	e := &refEvent{at: t, seq: k.seq, fn: fn}
	k.events = append(k.events, e)
	return func() {
		for i, q := range k.events {
			if q == e {
				k.events = append(k.events[:i], k.events[i+1:]...)
				return
			}
		}
	}
}

func (k *refKernel) after(d time.Duration, fn func()) func() { return k.at(satAdd(k.clock, d), fn) }

func (k *refKernel) submit(r int, cost time.Duration, fn func()) {
	if cost < 0 {
		cost = 0
	}
	k.busy[r] = max(k.busy[r], k.clock) + cost
	if fn == nil {
		fn = func() {}
	}
	k.at(k.busy[r], fn)
}

func (k *refKernel) step() {
	min := 0
	for i, e := range k.events {
		if m := k.events[min]; e.at < m.at || e.at == m.at && e.seq < m.seq {
			min = i
		}
	}
	e := k.events[min]
	k.events = append(k.events[:min], k.events[min+1:]...)
	k.clock = e.at
	k.execd++
	e.fn()
}

func (k *refKernel) head() time.Duration {
	h := maxDuration
	for _, e := range k.events {
		h = min(h, e.at)
	}
	return h
}

func (k *refKernel) run() {
	for len(k.events) > 0 {
		k.step()
	}
}

func (k *refKernel) runUntil(deadline time.Duration) {
	for len(k.events) > 0 && k.head() <= deadline {
		k.step()
	}
	if k.clock < deadline {
		k.clock = deadline
	}
}

func (k *refKernel) now() time.Duration { return k.clock }
func (k *refKernel) executed() uint64   { return k.execd }
func (k *refKernel) pending() int       { return len(k.events) }

// simKernel drives a Simulator through the same surface.
type simKernel struct {
	s  *Simulator
	rs []*Resource
}

func (k *simKernel) at(t time.Duration, fn func()) func()        { return k.s.At(t, fn).Cancel }
func (k *simKernel) after(d time.Duration, fn func()) func()     { return k.s.After(d, fn).Cancel }
func (k *simKernel) submit(r int, cost time.Duration, fn func()) { k.rs[r].Submit(cost, fn) }
func (k *simKernel) run()                                        { k.s.Run() }
func (k *simKernel) runUntil(deadline time.Duration)             { k.s.RunUntil(deadline) }
func (k *simKernel) now() time.Duration                          { return k.s.Now() }
func (k *simKernel) executed() uint64                            { return k.s.Executed() }
func (k *simKernel) pending() int                                { return k.s.Pending() }

type kernel interface {
	at(t time.Duration, fn func()) func()
	after(d time.Duration, fn func()) func()
	submit(r int, cost time.Duration, fn func())
	run()
	runUntil(deadline time.Duration)
	now() time.Duration
	executed() uint64
	pending() int
}

const modelResources = 3

// runScript plays a script on k and returns its trace: "id@time" for every
// callback and the kernel's (Executed, Now, Pending) at every boundary.
//
// A script is a byte string of ops, each an opcode byte and argument bytes:
//
//	0 t a     At(now+t%16) running action a
//	1 d a     After(int8(d)%16) running action a (negative d included)
//	2 i       cancel handle i
//	3 r c     Submit(int8(c)%8, nil) to resource r (zero and negative costs)
//	4 r c a   Submit(int8(c)%8, callback running action a)
//	5         Run
//	6 d       RunUntil(now+int8(d)%16) (a deadline in the past included)
//
// An action byte a picks what the callback does after logging: nothing, a
// charge, a callback job, an After, or a cancel. What an action
// schedules only logs, so every script terminates.
func runScript(k kernel, script []byte) string {
	var trace strings.Builder
	var cancels []func()
	ids := 0
	pos := 0
	next := func() byte {
		if pos >= len(script) {
			return 0
		}
		pos++
		return script[pos-1]
	}
	logOnly := func() func() {
		id := ids
		ids++
		return func() { fmt.Fprintf(&trace, "%d@%d ", id, k.now()) }
	}
	act := func(a byte) func() {
		log := logOnly()
		r, arg := int(a/5)%modelResources, time.Duration(a/15%4)
		return func() {
			log()
			switch a % 5 {
			case 1:
				k.submit(r, arg, nil)
			case 2:
				k.submit(r, arg, logOnly())
			case 3:
				cancels = append(cancels, k.after(arg, logOnly()))
			case 4:
				if len(cancels) > 0 {
					cancels[int(a/5)%len(cancels)]()
				}
			}
		}
	}
	boundary := func() {
		fmt.Fprintf(&trace, "| exec=%d now=%d pend=%d\n", k.executed(), k.now(), k.pending())
	}
	for pos < len(script) {
		switch next() % 7 {
		case 0:
			t := k.now() + time.Duration(next()%16)
			cancels = append(cancels, k.at(t, act(next())))
		case 1:
			d := time.Duration(int8(next()) % 16)
			cancels = append(cancels, k.after(d, act(next())))
		case 2:
			if i := int(next()); len(cancels) > 0 {
				cancels[i%len(cancels)]()
			}
		case 3:
			r, c := int(next())%modelResources, time.Duration(int8(next())%8)
			k.submit(r, c, nil)
		case 4:
			r, c := int(next())%modelResources, time.Duration(int8(next())%8)
			k.submit(r, c, act(next()))
		case 5:
			k.run()
			boundary()
		case 6:
			k.runUntil(k.now() + time.Duration(int8(next())%16))
			boundary()
		}
	}
	k.run()
	boundary()
	return trace.String()
}

func checkScript(t *testing.T, script []byte) {
	t.Helper()
	s := New(1)
	sk := &simKernel{s: s}
	for i := 0; i < modelResources; i++ {
		sk.rs = append(sk.rs, s.NewResource(fmt.Sprint("r", i)))
	}
	got := runScript(sk, script)
	want := runScript(&refKernel{busy: make([]time.Duration, modelResources)}, script)
	if got != want {
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range w {
			if i >= len(g) || g[i] != w[i] {
				t.Fatalf("script %v diverges at boundary %d:\nkernel    %q\nreference %q", script, i, g[min(i, len(g)-1)], w[i])
			}
		}
		t.Fatalf("script %v: kernel trace longer than the reference's:\n%s", script, got)
	}
}

// FuzzKernelModel holds the kernel, charges tallied off the heap, to the
// reference kernel that schedules every charge as a no-op event: identical
// callback order and times, Executed, Now and Pending at every boundary.
func FuzzKernelModel(f *testing.F) {
	for _, script := range [][]byte{
		{3, 0, 5, 5},                                  // a charge, then Run ends on its completion
		{3, 0, 5, 3, 1, 5, 6, 2},                      // charges on two resources, RunUntil short of them
		{0, 4, 0, 3, 0, 4, 5},                         // an event at the charge's completion time
		{0, 2, 6, 0, 2, 0, 5, 5},                      // an event charging a zero-cost job, then another at the same time
		{3, 0, 0xfc, 3, 0, 0xfb, 6, 0},                // negative costs are zero
		{3, 1, 3, 4, 1, 2, 0, 3, 1, 1, 4, 1, 0, 0, 5}, // callback jobs between charges on one resource
		{1, 0xf4, 0, 1, 3, 1, 2, 1, 5},                // a negative After, and a cancel
		{0, 5, 0, 3, 0, 2, 3, 0, 3, 6, 9, 6, 0xf6},    // a deadline in the past after a RunUntil
		{3, 0, 4, 6, 4, 5},                            // a RunUntil whose deadline is a charge's completion
	} {
		f.Add(script)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		script := make([]byte, 8+rng.Intn(120))
		rng.Read(script)
		f.Add(script)
	}
	f.Fuzz(checkScript)
}
