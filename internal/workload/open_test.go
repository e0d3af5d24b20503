package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/spec"
)

// runOpenTicks drives OpenTicks on a bare simulator and returns the
// injection sequence (source per arrival, in order).
func runOpenTicks(seed int64, n int, rate float64, cfg spec.OpenSpec) []int {
	s := sim.New(seed)
	var seq []int
	OpenTicks(s, seed, n, rate, 10*time.Second, 10*time.Millisecond, cfg, func(src int) {
		seq = append(seq, src)
	})
	s.RunUntil(20 * time.Second)
	return seq
}

// TestOpenTicksDeterministic pins the open generator's core contract: the
// full arrival sequence — timing, skewed source draws, churn thinning —
// is a pure function of the scenario seed.
func TestOpenTicksDeterministic(t *testing.T) {
	cfg := spec.OpenSpec{
		Zipf:     1.1,
		ChurnOn:  spec.Duration(2 * time.Second),
		ChurnOff: spec.Duration(time.Second),
		Envelope: []spec.RatePhaseSpec{{From: 0, Mult: 0.5}, {From: spec.Duration(5 * time.Second), Mult: 2}},
	}
	a := runOpenTicks(11, 8, 500, cfg)
	b := runOpenTicks(11, 8, 500, cfg)
	if len(a) == 0 {
		t.Fatal("no arrivals")
	}
	if len(a) != len(b) {
		t.Fatalf("arrival counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d source differs: %d vs %d", i, a[i], b[i])
		}
	}
	if c := runOpenTicks(12, 8, 500, cfg); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced an identical arrival sequence")
		}
	}
}

func TestOpenTicksZipfSkewsSources(t *testing.T) {
	seq := runOpenTicks(3, 16, 2000, spec.OpenSpec{Zipf: 1.2})
	counts := make([]int, 16)
	for _, src := range seq {
		counts[src]++
	}
	if counts[0] <= counts[15]*2 {
		t.Fatalf("rank 0 got %d arrivals vs last rank %d — no visible skew", counts[0], counts[15])
	}
}

func TestOpenTicksChurnThinsLoad(t *testing.T) {
	closed := runOpenTicks(5, 8, 1000, spec.OpenSpec{Envelope: []spec.RatePhaseSpec{{From: 0, Mult: 1}}})
	churned := runOpenTicks(5, 8, 1000, spec.OpenSpec{ChurnOn: spec.Duration(2 * time.Second), ChurnOff: spec.Duration(2 * time.Second)})
	// Expected duty cycle ~1/2; anything between 20% and 90% of the closed
	// count proves thinning without over-fitting the exponential draws.
	if len(churned) >= len(closed)*9/10 || len(churned) < len(closed)/5 {
		t.Fatalf("churned arrivals = %d of %d closed — thinning out of range", len(churned), len(closed))
	}
}

func TestEnvelopeShapesRate(t *testing.T) {
	flat := runOpenTicks(6, 4, 1000, spec.OpenSpec{Envelope: []spec.RatePhaseSpec{{From: 0, Mult: 1}}})
	halved := runOpenTicks(6, 4, 1000, spec.OpenSpec{Envelope: []spec.RatePhaseSpec{{From: 0, Mult: 0.5}}})
	ratio := float64(len(halved)) / float64(len(flat))
	if math.Abs(ratio-0.5) > 0.05 {
		t.Fatalf("halved envelope delivered %.2fx the flat load, want ~0.5x", ratio)
	}
}

func TestAccountFairness(t *testing.T) {
	a := NewAccount(4, false)
	if f := a.Fairness(); f != 1 {
		t.Fatalf("empty account fairness = %g, want 1", f)
	}
	// Uniform acceptance: every source offers 10, all accepted — J = 1.
	for src := 0; src < 4; src++ {
		for i := 0; i < 10; i++ {
			a.Accept(nil, src)
		}
	}
	if f := a.Fairness(); math.Abs(f-1) > 1e-12 {
		t.Fatalf("uniform fairness = %g, want 1", f)
	}
	// Skewed acceptance: source 0 keeps ratio 1, the rest drop to 0 —
	// Jain index over ratios (1,0,0,0) is 1/4.
	b := NewAccount(4, false)
	a0 := 0
	for src := 0; src < 4; src++ {
		for i := 0; i < 10; i++ {
			if src == 0 {
				b.Accept(nil, src)
				a0++
			} else {
				b.Reject(nil, src)
			}
		}
	}
	if f := b.Fairness(); math.Abs(f-0.25) > 1e-12 {
		t.Fatalf("skewed fairness = %g, want 0.25", f)
	}
	if b.Offered() != 40 || b.Injected() != uint64(a0) || b.Rejected() != 30 {
		t.Fatalf("counters: offered %d injected %d rejected %d", b.Offered(), b.Injected(), b.Rejected())
	}
}
