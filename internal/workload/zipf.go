package workload

import (
	"math"
	"math/rand"
	"sort"
)

// ZipfSampler draws ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^α — the
// hot-key skew of the open-system workload (spec.OpenSpec.Zipf). It is a
// plain cumulative-probability table with binary-search inversion, so it
// accepts any α ≥ 0 (math/rand's Zipf requires s > 1 and excludes the
// classic α = 1 web-trace skew) and consumes exactly one uniform draw
// per sample from whatever *rand.Rand the caller supplies — which is how
// the generator keeps the skew on its own sim.ChildSeed stream,
// independent of the timing draws.
type ZipfSampler struct {
	cum []float64 // cum[k] = P(rank ≤ k); cum[n-1] == 1
}

// NewZipf builds a sampler over n ranks with exponent alpha. alpha = 0
// is the uniform distribution; larger alpha concentrates mass on the
// lowest ranks.
func NewZipf(n int, alpha float64) *ZipfSampler {
	if n <= 0 {
		panic("workload: ZipfSampler needs at least one rank")
	}
	if alpha < 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		panic("workload: ZipfSampler exponent must be finite and non-negative")
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -alpha)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	cum[n-1] = 1 // exact, so Sample can never fall off the end
	return &ZipfSampler{cum: cum}
}

// Sample draws one rank. Sequences are fully determined by the rng's
// seed: one Float64 per call, inverted through the fixed table.
func (z *ZipfSampler) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cum, u)
}
