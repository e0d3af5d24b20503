package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// N returns the number of ranks.
func (z *ZipfSampler) N() int { return len(z.cum) }

// Prob returns the probability mass of one rank.
func (z *ZipfSampler) Prob(rank int) float64 {
	if rank == 0 {
		return z.cum[0]
	}
	return z.cum[rank] - z.cum[rank-1]
}

func TestZipfUniformWhenAlphaZero(t *testing.T) {
	z := NewZipf(10, 0)
	for k := 0; k < 10; k++ {
		if p := z.Prob(k); math.Abs(p-0.1) > 1e-12 {
			t.Fatalf("alpha=0 rank %d prob = %g, want 0.1", k, p)
		}
	}
}

func TestZipfProbsSumToOne(t *testing.T) {
	for _, alpha := range []float64{0, 0.5, 1, 1.1, 2.5} {
		z := NewZipf(64, alpha)
		var sum float64
		for k := 0; k < z.N(); k++ {
			sum += z.Prob(k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("alpha=%g probs sum to %g", alpha, sum)
		}
	}
}

// TestZipfRankFrequencySlope is the sampler's headline property: empirical
// sample frequencies must recover the configured exponent. On a log-log
// rank-frequency plot Zipf(α) is a line of slope -α; regressing the
// observed frequencies of the well-sampled head ranks recovers α within a
// few percent at 200k samples.
func TestZipfRankFrequencySlope(t *testing.T) {
	for _, alpha := range []float64{0.8, 1.0, 1.4} {
		z := NewZipf(100, alpha)
		rng := rand.New(rand.NewSource(7))
		counts := make([]float64, z.N())
		const samples = 200_000
		for i := 0; i < samples; i++ {
			counts[z.Sample(rng)]++
		}
		// Least-squares slope of log(count) against log(rank+1) over the
		// head (every rank there has thousands of hits, so sampling noise
		// is small); the tail of a steep distribution is too sparse to
		// regress on.
		var sx, sy, sxx, sxy float64
		const head = 20
		for k := 0; k < head; k++ {
			if counts[k] == 0 {
				t.Fatalf("alpha=%g head rank %d never sampled", alpha, k)
			}
			x, y := math.Log(float64(k+1)), math.Log(counts[k])
			sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
		}
		slope := (float64(head)*sxy - sx*sy) / (float64(head)*sxx - sx*sx)
		if math.Abs(-slope-alpha) > 0.05*alpha+0.02 {
			t.Fatalf("alpha=%g recovered slope %.3f, want ~%.3f", alpha, -slope, alpha)
		}
	}
}

// TestZipfDeterministicStream pins the determinism contract the open
// workload builds on: the sample sequence is a pure function of (n, alpha,
// seed stream), so two generators over the same scenario seed draw
// identical source sequences — which is what keeps open-system runs
// byte-identical across repeats.
func TestZipfDeterministicStream(t *testing.T) {
	const seed, n = 42, 30
	draw := func() []int {
		z := NewZipf(n, 1.1)
		rng := sim.ChildRand(seed, 1<<40)
		out := make([]int, 5000)
		for i := range out {
			out[i] = z.Sample(rng)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestZipfPanicsOnBadInputs(t *testing.T) {
	for _, tc := range []struct {
		n     int
		alpha float64
	}{{0, 1}, {-3, 1}, {10, -0.5}, {10, math.NaN()}, {10, math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %g) did not panic", tc.n, tc.alpha)
				}
			}()
			NewZipf(tc.n, tc.alpha)
		}()
	}
}

// FuzzZipfSampler drives the sampler with arbitrary shapes and seeds and
// checks the invariants that hold for every valid input: samples stay in
// [0, n), the cumulative table is monotone with an exact 1.0 tail, and
// with positive skew rank 0 is sampled at least as often as the last rank.
func FuzzZipfSampler(f *testing.F) {
	f.Add(10, 1.1, int64(1))
	f.Add(1, 0.0, int64(7))
	f.Add(256, 3.0, int64(-9))
	f.Fuzz(func(t *testing.T, n int, alpha float64, seed int64) {
		if n <= 0 || n > 1<<12 {
			t.Skip()
		}
		if alpha < 0 || alpha > 8 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			t.Skip()
		}
		z := NewZipf(n, alpha)
		if z.N() != n {
			t.Fatalf("shape not preserved: n=%d, want %d", z.N(), n)
		}
		rng := rand.New(rand.NewSource(seed))
		first, last := 0, 0
		for i := 0; i < 2048; i++ {
			k := z.Sample(rng)
			if k < 0 || k >= n {
				t.Fatalf("sample %d outside [0, %d)", k, n)
			}
			switch k {
			case 0:
				first++
			case n - 1:
				last++
			}
		}
		// The count comparison is only sound when the skew is decisive:
		// near-uniform shapes (small α or tiny head/tail ratio) lose the
		// ordering to sampling noise, e.g. n=220 α=0.0625 has a head/tail
		// ratio of just 1.4 over ~9 expected hits per rank.
		if n > 1 && z.Prob(0) >= 8*z.Prob(n-1) && 2048*z.Prob(0) >= 32 && first < last {
			t.Fatalf("rank 0 sampled %d times, last rank %d — skew inverted", first, last)
		}
		var sum float64
		for k := 0; k < n; k++ {
			p := z.Prob(k)
			if p < 0 || p > 1 {
				t.Fatalf("rank %d prob %g outside [0,1]", k, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("probs sum to %g", sum)
		}
	})
}
