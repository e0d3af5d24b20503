// Package workload generates the evaluation's element stream: synthetic
// Arbitrum-like transactions (the paper downloads real Arbitrum
// transactions; their only property the evaluation depends on is the size
// distribution — mean ≈ 438 bytes, σ ≈ 753.5) injected at a controlled
// aggregate sending rate split evenly across clients, each client adding to
// its local server (paper §4, Experiment Scenarios).
//
// See DESIGN.md §2 (layering).
package workload

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/setcrypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// SizeModel samples element wire sizes.
type SizeModel struct {
	// Mean and StdDev of the element size in bytes.
	Mean   float64
	StdDev float64
	// Min clamps the smallest element (a signed envelope cannot be empty).
	Min int
	// Max clamps the largest element.
	Max int
}

// ArbitrumSizes returns the paper's measured distribution: mean 438 B,
// σ 753.5. Sizes are drawn log-normally (transaction sizes are heavy
// tailed: most transfers are small, contract deployments are huge), with
// the log-normal parameters derived from the target mean and variance.
func ArbitrumSizes() SizeModel {
	return SizeModel{Mean: 438, StdDev: 753.5, Min: 96, Max: 16384}
}

// Shape fills the injection shape both generators share: a zero size model
// is ArbitrumSizes, a zero tick 10 ms.
func Shape(sizes SizeModel, tick time.Duration) (SizeModel, time.Duration) {
	if sizes == (SizeModel{}) {
		sizes = ArbitrumSizes()
	}
	if tick == 0 {
		tick = 10 * time.Millisecond
	}
	return sizes, tick
}

// lognormalParams converts the target mean m and stddev s into the
// underlying normal's (mu, sigma): for X ~ LogNormal(mu, sigma),
// E[X] = exp(mu + sigma²/2) and Var[X] = (exp(sigma²)-1)·exp(2mu+sigma²).
func (m SizeModel) lognormalParams() (mu, sigma float64) {
	if m.Mean <= 0 {
		return 0, 0
	}
	cv2 := (m.StdDev * m.StdDev) / (m.Mean * m.Mean)
	sigma2 := math.Log(1 + cv2)
	mu = math.Log(m.Mean) - sigma2/2
	return mu, math.Sqrt(sigma2)
}

// Sample draws one element size.
func (m SizeModel) Sample(rng interface{ NormFloat64() float64 }) int {
	mu, sigma := m.lognormalParams()
	size := int(math.Exp(mu + sigma*rng.NormFloat64()))
	if size < m.Min {
		size = m.Min
	}
	if m.Max > 0 && size > m.Max {
		size = m.Max
	}
	return size
}

// Config drives a generation run.
type Config struct {
	// Rate is the aggregate sending rate in elements/second across all
	// clients (the paper's sending_rate). Each client injects at
	// Rate/len(clients) to its local server.
	Rate float64
	// Duration is how long clients keep adding (the paper: 50 s).
	Duration time.Duration
	// Sizes describes element sizes; zero value uses ArbitrumSizes.
	Sizes SizeModel
	// Tick batches injection bookkeeping: each client converts its rate
	// into ⌈rate·tick⌉-element bursts per tick, which keeps the event count
	// manageable at 6-figure rates without changing per-second totals.
	Tick time.Duration
	// FullPayloads creates real signed payloads (Full mode deployments).
	FullPayloads bool
	// TrackIDs records the id of every accepted element so the invariant
	// checker can compare the servers' final histories against exactly
	// what was injected (no fabrication, no loss). Costs one map insert
	// per element; the harness always enables it.
	TrackIDs bool
	// Open adds open-system dynamics — Zipf source skew, session churn,
	// rate envelopes (open.go). The zero value is the closed system.
	Open OpenConfig
	// Seed keys the open extension's dedicated ChildSeed streams; only
	// consulted when Open is enabled.
	Seed int64
}

// Generator injects the workload into a deployment.
type Generator struct {
	cfg Config
	d   *core.Deployment
	rec *metrics.Recorder

	// Account books every attempt (accepted/rejected/offered, ids,
	// fairness); its accessors are promoted onto the generator.
	*Account
	done bool
}

// New creates a generator for the deployment; rec may be nil.
func New(d *core.Deployment, rec *metrics.Recorder, cfg Config) *Generator {
	cfg.Sizes, cfg.Tick = Shape(cfg.Sizes, cfg.Tick)
	return &Generator{cfg: cfg, d: d, rec: rec,
		Account: NewAccount(len(d.Clients), cfg.TrackIDs)}
}

// Start schedules the injection. Clients add elements from virtual time 0
// until cfg.Duration, then the generator drains the servers' collectors.
// Open-system dynamics, when configured, route through OpenTicks — the
// same staggered-slot loop with the envelope/skew/churn seams opened.
func (g *Generator) Start() {
	s := g.d.Sim
	if g.cfg.Open.Enabled() {
		OpenTicks(s, g.cfg.Seed, len(g.d.Clients), g.cfg.Rate, g.cfg.Duration, g.cfg.Tick, g.cfg.Open, g.injectOne)
	} else {
		perClient := g.cfg.Rate / float64(len(g.d.Clients))
		Ticks(s, len(g.d.Clients), perClient, g.cfg.Duration, g.cfg.Tick, g.injectOne)
	}
	s.At(g.cfg.Duration, func() {
		g.done = true
		g.d.Drain()
	})
}

// Ticks schedules the canonical staggered injection loop — the ONE
// definition of the workload's timing shape, shared with the routed
// generator (internal/shard) so the two cannot inject differently: each
// of n clients starts at a random offset within one
// tick (no lockstep bursts) and converts its per-client rate into
// integer bursts per tick with a fractional carry, preserving per-second
// totals at any rate.
func Ticks(s *sim.Simulator, n int, perClient float64, duration, tick time.Duration, inject func(client int)) {
	RatedTicks(s, n, func(int, time.Duration) float64 { return perClient }, duration, tick, inject)
}

// RatedTicks is Ticks with a time-varying per-client rate: each tick asks
// rate(client, now) for the current el/s before updating the carry. With
// a constant-rate closure the arithmetic is bit-for-bit the closed loop
// (same offsets, same carry sequence), which is what keeps the open
// extension from forking the workload's timing definition.
func RatedTicks(s *sim.Simulator, n int, rate func(client int, now time.Duration) float64, duration, tick time.Duration, inject func(client int)) {
	if tick <= 0 {
		panic("workload: tick must be positive (Shape fills a zero one)")
	}
	for i := 0; i < n; i++ {
		i := i
		offset := time.Duration(s.Rand().Int63n(int64(tick) + 1))
		var carry float64
		var fire func()
		fire = func() {
			if s.Now() >= duration {
				return
			}
			carry += rate(i, s.Now()) * tick.Seconds()
			burst := int(carry)
			carry -= float64(burst)
			for k := 0; k < burst; k++ {
				inject(i)
			}
			s.After(tick, fire)
		}
		s.At(offset, fire)
	}
}

// BuildElement draws one element of the canonical workload shape on the
// given client — a log-normally sampled wire size, realized as a real
// signed payload in full mode or a modeled-size element otherwise. Shared
// with the sharded generator for the same reason as Ticks: element
// construction must not fork.
func BuildElement(s *sim.Simulator, cl *core.Client, sizes SizeModel, fullPayloads bool) *wire.Element {
	size := sizes.Sample(s.Rand())
	var e *wire.Element
	if fullPayloads {
		plen := size - wire.ElementHeaderSize - setcrypto.SignatureSize
		if plen < 1 {
			plen = 1
		}
		payload := make([]byte, plen)
		s.Rand().Read(payload)
		e = cl.NewElement(payload)
	} else {
		e = cl.NewModeledElement(size)
	}
	return e
}

func (g *Generator) injectOne(i int) {
	e := BuildElement(g.d.Sim, g.d.Clients[i], g.cfg.Sizes, g.cfg.FullPayloads)
	if err := g.d.Servers[i].Add(e); err != nil {
		g.Account.Reject(e, i)
		return
	}
	g.Account.Accept(e, i)
	if g.rec != nil {
		g.rec.Injected(e)
	}
}

// Done reports whether the injection window has closed.
func (g *Generator) Done() bool { return g.done }
