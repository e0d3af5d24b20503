package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(3*time.Second, func() { got = append(got, 3) })
	s.After(1*time.Second, func() { got = append(got, 1) })
	s.After(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.After(time.Second, func() { fired = true })
	ev.Cancel()
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	// Double-cancel and zero-handle cancel are no-ops.
	ev.Cancel()
	var zero Event
	zero.Cancel()
}

func TestCancelRemovesFromQueue(t *testing.T) {
	s := New(1)
	var evs []Event
	for i := 0; i < 10; i++ {
		evs = append(evs, s.After(time.Duration(i+1)*time.Second, func() {}))
	}
	if s.Pending() != 10 {
		t.Fatalf("pending = %d, want 10", s.Pending())
	}
	// Cancel from the middle, the head, and the tail of the queue.
	for _, i := range []int{5, 0, 9} {
		evs[i].Cancel()
	}
	if s.Pending() != 7 {
		t.Fatalf("pending after 3 cancels = %d, want 7 (canceled events must leave the queue)", s.Pending())
	}
	for _, i := range []int{5, 0, 9} {
		if evs[i].Scheduled() {
			t.Fatalf("event %d still scheduled after cancel", i)
		}
	}
	fired := 0
	s.Run()
	if fired = int(s.Executed()); fired != 7 {
		t.Fatalf("executed = %d, want 7", fired)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending after run = %d, want 0", s.Pending())
	}
}

// A handle whose event already fired must stay inert even after its
// internal slot is recycled for a newer event.
func TestStaleHandleCannotCancelRecycledSlot(t *testing.T) {
	s := New(1)
	first := s.After(time.Second, func() {})
	s.Run() // first fires; its slot returns to the free list
	fired := false
	second := s.After(time.Second, func() { fired = true })
	first.Cancel() // stale: must not touch the recycled slot
	if !second.Scheduled() {
		t.Fatal("stale Cancel removed a newer event occupying the recycled slot")
	}
	s.Run()
	if !fired {
		t.Fatal("second event did not fire")
	}
}

// Canceling some same-time events must not disturb FIFO order among the
// survivors.
func TestCancelPreservesSameTimeFIFO(t *testing.T) {
	s := New(1)
	var got []int
	var evs []Event
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, s.At(time.Second, func() { got = append(got, i) }))
	}
	for i := 0; i < 20; i += 3 {
		evs[i].Cancel()
	}
	s.Run()
	prev := -1
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("canceled event %d fired", v)
		}
		if v <= prev {
			t.Fatalf("FIFO order broken after cancels: %v", got)
		}
		prev = v
	}
	if len(got) != 13 {
		t.Fatalf("survivors = %d, want 13", len(got))
	}
}

// Property: with an arbitrary schedule/cancel interleaving, surviving
// events fire in exact (time, insertion) order.
func TestQuickCancelOrderInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New(11)
		type rec struct {
			at  time.Duration
			seq int
		}
		var fired []rec
		var live []Event
		seq := 0
		for _, op := range ops {
			if op%5 == 0 && len(live) > 0 {
				idx := int(op/5) % len(live)
				live[idx].Cancel()
				live = append(live[:idx], live[idx+1:]...)
				continue
			}
			d := time.Duration(op%1000) * time.Millisecond
			n := seq
			seq++
			live = append(live, s.After(d, func() {
				fired = append(fired, rec{at: s.Now(), seq: n})
			}))
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The schedule/pop path must not allocate (amortized): event state is
// recycled through the slab free list and the heap holds plain values.
// The closure passed to After is hoisted outside the measured region so
// only kernel allocations are counted.
func TestScheduleRunAllocFree(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Warm up the slab and heap capacity.
	for i := 0; i < 4096; i++ {
		s.After(time.Duration(i)*time.Microsecond, fn)
	}
	s.Run()
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			s.After(time.Duration(i%16)*time.Microsecond, fn)
		}
		s.Run()
	})
	if avg != 0 {
		t.Fatalf("schedule/pop path allocates %.2f/run, want 0", avg)
	}
}

// Cancel must also be allocation-free.
func TestCancelAllocFree(t *testing.T) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		s.After(time.Duration(i)*time.Microsecond, fn)
	}
	s.Run()
	avg := testing.AllocsPerRun(200, func() {
		evs := [8]Event{}
		for i := range evs {
			evs[i] = s.After(time.Duration(i)*time.Microsecond, fn)
		}
		for i := range evs {
			evs[i].Cancel()
		}
	})
	if avg != 0 {
		t.Fatalf("schedule/cancel path allocates %.2f/run, want 0", avg)
	}
}

// Charges must be allocation-free too, submitted between runs and from
// inside events: once the in-flight list has grown, it is reused.
func TestChargeAllocFree(t *testing.T) {
	s := New(1)
	r := s.NewResource("cpu")
	burst := func() {
		for i := 0; i < 4; i++ {
			r.Submit(time.Duration(i)*time.Microsecond, nil)
		}
	}
	round := func() {
		for i := 0; i < 16; i++ {
			r.Submit(time.Microsecond, nil)
			s.After(time.Duration(i)*time.Microsecond, burst)
		}
		s.Run()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("charge path allocates %.2f/run, want 0", avg)
	}
}

// A resource charged without pause for 10⁶ jobs holds no more than the
// charges still in flight (completion at or after now), counted here by a
// separate queue, and its list's capacity stays within a constant factor
// of that.
func TestChargeListHoldsOnlyInFlight(t *testing.T) {
	const jobs = 1_000_000
	s := New(1)
	r := s.NewResource("cpu")
	rng := rand.New(rand.NewSource(1))
	var inFlight []time.Duration
	maxInFlight, submitted := 0, 0
	var tick func()
	tick = func() {
		// Costs average the tick period: the resource runs at capacity.
		r.Submit(time.Duration(rng.Int63n(int64(2*time.Microsecond)+1)), nil)
		for len(inFlight) > 0 && inFlight[0] < s.Now() {
			inFlight = inFlight[1:]
		}
		inFlight = append(inFlight, r.busyUntil)
		maxInFlight = max(maxInFlight, len(inFlight))
		if live := len(r.charges) - r.head; live > len(inFlight) {
			t.Fatalf("after %d jobs the resource holds %d charges, %d in flight", submitted, live, len(inFlight))
		}
		if submitted++; submitted < jobs {
			s.After(time.Microsecond, tick)
		}
	}
	s.At(0, tick)
	s.Run()
	if c := cap(r.charges); c > 4*maxInFlight+8 {
		t.Fatalf("charge list capacity %d for at most %d in flight", c, maxInFlight)
	}
	if want := uint64(2 * jobs); s.Executed() != want || s.Pending() != 0 {
		t.Fatalf("Executed = %d, Pending = %d; want %d, 0", s.Executed(), s.Pending(), want)
	}
	t.Logf("%d jobs, at most %d in flight, list capacity %d", jobs, maxInFlight, cap(r.charges))
}

// RunUntil to the end of time runs everything, charges included.
func TestRunUntilEndOfTime(t *testing.T) {
	s := New(1)
	cpu := s.NewResource("cpu")
	for i := 1; i <= 5; i++ {
		s.At(time.Duration(i)*time.Second, func() {
			cpu.Submit(time.Millisecond, nil)
			cpu.Submit(time.Millisecond, func() {})
		})
	}
	s.RunUntil(maxDuration)
	if s.Executed() != 15 {
		t.Fatalf("Executed = %d, want 15", s.Executed())
	}
	if s.Now() != maxDuration {
		t.Fatalf("clock at %v, want the end of time", s.Now())
	}
}

// After past the end of time saturates instead of wrapping negative and
// firing at once.
func TestAfterSaturatesAtEndOfTime(t *testing.T) {
	s := New(1)
	var ev Event
	fired := false
	s.At(time.Second, func() { ev = s.After(maxDuration, func() { fired = true }) })
	s.RunUntil(time.Hour)
	if fired || ev.At() != maxDuration || !ev.Scheduled() {
		t.Fatalf("After(maxDuration) at 1s: fired %v, at %v; want pending at the end of time", fired, ev.At())
	}
}

func TestScheduleInPastRunsNow(t *testing.T) {
	s := New(1)
	var at time.Duration = -1
	s.After(5*time.Second, func() {
		s.At(time.Second, func() { at = s.Now() }) // in the past
	})
	s.Run()
	if at != 5*time.Second {
		t.Fatalf("past-scheduled event ran at %v, want 5s", at)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntil(4 * time.Second)
	if count != 4 {
		t.Fatalf("events run = %d, want 4", count)
	}
	if s.Now() != 4*time.Second {
		t.Fatalf("Now = %v, want 4s", s.Now())
	}
	if s.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", s.Pending())
	}
	s.RunUntil(20 * time.Second)
	if count != 10 {
		t.Fatalf("events run = %d, want 10", count)
	}
	if s.Now() != 20*time.Second {
		t.Fatalf("Now advanced to %v, want 20s", s.Now())
	}
}

func TestHalt(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				s.Halt()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 after Halt", count)
	}
	s.Run() // resumes
	if count != 10 {
		t.Fatalf("count = %d after resume, want 10", count)
	}
}

func TestRecursiveScheduling(t *testing.T) {
	s := New(1)
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		if ticks < 100 {
			s.After(10*time.Millisecond, tick)
		}
	}
	s.After(0, tick)
	s.Run()
	if ticks != 100 {
		t.Fatalf("ticks = %d, want 100", ticks)
	}
	if want := 990 * time.Millisecond; s.Now() != want {
		t.Fatalf("Now = %v, want %v", s.Now(), want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var trace []int64
		for i := 0; i < 50; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Millisecond
			s.After(d, func() { trace = append(trace, int64(s.Now())) })
		}
		s.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different trace lengths for same seed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil event fn")
		}
	}()
	New(1).After(0, nil)
}

func TestResourceSerialization(t *testing.T) {
	s := New(1)
	r := s.NewResource("cpu")
	var done []time.Duration
	// Three jobs submitted simultaneously must run back to back.
	s.After(0, func() {
		r.Submit(100*time.Millisecond, func() { done = append(done, s.Now()) })
		r.Submit(200*time.Millisecond, func() { done = append(done, s.Now()) })
		r.Submit(300*time.Millisecond, func() { done = append(done, s.Now()) })
	})
	s.Run()
	want := []time.Duration{100 * time.Millisecond, 300 * time.Millisecond, 600 * time.Millisecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
	if r.Jobs() != 3 {
		t.Fatalf("jobs = %d, want 3", r.Jobs())
	}
	if r.BusyTime() != 600*time.Millisecond {
		t.Fatalf("busy = %v, want 600ms", r.BusyTime())
	}
}

func TestResourceIdleGap(t *testing.T) {
	s := New(1)
	r := s.NewResource("cpu")
	var second time.Duration
	s.After(0, func() { r.Submit(50*time.Millisecond, nil) })
	// Submitted after the first completes: starts at its submit time.
	s.After(time.Second, func() {
		r.Submit(50*time.Millisecond, func() { second = s.Now() })
	})
	s.Run()
	if want := 1050 * time.Millisecond; second != want {
		t.Fatalf("second completion = %v, want %v", second, want)
	}
	if r.Backlog() != 0 {
		t.Fatalf("backlog = %v, want 0 at end", r.Backlog())
	}
}

func TestResourceNegativeCost(t *testing.T) {
	s := New(1)
	r := s.NewResource("cpu")
	fired := false
	s.After(time.Second, func() { r.Submit(-5, func() { fired = true }) })
	s.Run()
	if !fired {
		t.Fatal("zero-cost job did not complete")
	}
	if s.Now() != time.Second {
		t.Fatalf("negative cost advanced time: %v", s.Now())
	}
}

func TestResourceUtilization(t *testing.T) {
	s := New(1)
	r := s.NewResource("cpu")
	s.After(0, func() { r.Submit(time.Second, nil) })
	s.At(2*time.Second, func() {})
	s.Run()
	if u := r.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

// Property: for any set of scheduled delays, events fire in nondecreasing
// time order and the clock ends at the maximum delay.
func TestQuickEventOrderInvariant(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		s := New(7)
		var fired []time.Duration
		var maxD time.Duration
		for _, ms := range delaysMs {
			d := time.Duration(ms) * time.Millisecond
			if d > maxD {
				maxD = d
			}
			s.After(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delaysMs) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == maxD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a serial resource never overlaps jobs — total completion time of
// simultaneously submitted jobs equals the sum of costs.
func TestQuickResourceSerialInvariant(t *testing.T) {
	f := func(costsMs []uint8) bool {
		s := New(3)
		r := s.NewResource("cpu")
		var total time.Duration
		var last time.Duration
		s.After(0, func() {
			for _, c := range costsMs {
				d := time.Duration(c) * time.Millisecond
				total += d
				r.Submit(d, func() { last = s.Now() })
			}
		})
		s.Run()
		if len(costsMs) == 0 {
			return true
		}
		return last == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandStreamIsSeeded(t *testing.T) {
	a := New(99).Rand().Int63()
	b := New(99).Rand().Int63()
	if a != b {
		t.Fatal("same seed produced different random streams")
	}
	c := rand.New(rand.NewSource(100)).Int63()
	_ = c // different seeds almost surely differ; no assertion needed
}

func BenchmarkScheduleRun(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Microsecond, func() {})
		if s.Pending() > 10000 {
			s.Run()
		}
	}
	s.Run()
}
