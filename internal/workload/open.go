// Open-system extension of the closed workload: the client pool is no
// longer a fixed set of always-on uniform senders. Sessions churn (clients
// depart and return on seeded exponential timers), element sources follow
// a Zipf(α) hot-key skew, and the aggregate rate is shaped by a piecewise
// envelope (bursts, diurnal swells). All randomness beyond the closed
// generator's own draws comes from dedicated sim.ChildSeed streams, so an
// open run is exactly as deterministic as a closed one: the extra draws are
// keyed to the scenario seed, never to another component's draw order.
//
// See DESIGN.md §14 (open-system workloads and admission control).
package workload

import (
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Stream ids for the open-system ChildSeed streams. They sit far above
// any plausible node id so they can never collide with the per-node
// streams netsim derives from the same seed.
const (
	zipfStream  uint64 = 1 << 40
	churnStream uint64 = 1<<40 + 1<<20 // + source index
)

// RatePhase scales the base sending rate by Mult from From onward (until
// the next phase). Times before the first phase use multiplier 1.
type RatePhase struct {
	From time.Duration
	Mult float64
}

// OpenConfig describes the open-system dynamics; the zero value is the
// closed system (fixed pool, uniform sources, flat rate).
type OpenConfig struct {
	// Zipf skews element sources: each arrival draws its source client
	// with P(rank k) ∝ 1/(k+1)^Zipf instead of belonging to a fixed
	// uniform slot. 0 = uniform (closed behavior).
	Zipf float64
	// ChurnOn is the mean in-session time. When > 0, every client cycles
	// through exponentially distributed on/off sessions; arrivals drawn
	// for an off-session client are dropped (the client is gone — the
	// load it would have offered disappears with it).
	ChurnOn time.Duration
	// ChurnOff is the mean departed time between sessions (defaulted to
	// ChurnOn by spec when churn is enabled but ChurnOff is unset).
	ChurnOff time.Duration
	// Envelope shapes the aggregate rate over the send window.
	Envelope []RatePhase
}

// Enabled reports whether any open-system dynamic is configured.
func (c OpenConfig) Enabled() bool {
	return c.Zipf > 0 || c.ChurnOn > 0 || len(c.Envelope) > 0
}

// Mult returns the envelope's rate multiplier at the given time.
func (c OpenConfig) Mult(now time.Duration) float64 {
	m := 1.0
	for _, p := range c.Envelope {
		if now < p.From {
			break
		}
		m = p.Mult
	}
	return m
}

// Scaled shrinks the config's time axes by the scenario scale factor, the
// same way send windows and fault schedules scale: session lengths and
// envelope phase boundaries keep their position relative to the window.
// Zipf and the multipliers are shape parameters and do not scale.
func (c OpenConfig) Scaled(f float64) OpenConfig {
	if f == 1 || !c.Enabled() {
		return c
	}
	out := c
	out.ChurnOn = time.Duration(float64(c.ChurnOn) * f)
	out.ChurnOff = time.Duration(float64(c.ChurnOff) * f)
	out.Envelope = make([]RatePhase, len(c.Envelope))
	for i, p := range c.Envelope {
		out.Envelope[i] = RatePhase{From: time.Duration(float64(p.From) * f), Mult: p.Mult}
	}
	return out
}

// OpenTicks schedules the injection loop — the ONE definition of the
// workload's timing shape, shared by Generator and the routed generator
// (internal/shard) so the two cannot inject differently. Each of n slots
// starts at a random offset within one tick (no lockstep bursts) and
// converts its share of rate, times the envelope's multiplier, into
// integer bursts per tick with a fractional carry, preserving per-second
// totals at any rate. An arrival's source is its slot, or a Zipf draw
// under skew, and arrivals for off-session sources are dropped. seed keys
// the extra ChildSeed streams (one for the skew, one per client for
// churn); inject receives the SOURCE client index.
//
// The zero cfg is the closed system bit for bit: the multiplier is exactly
// 1, so every slot's carry sequence is the flat rate's, and no extra
// stream is drawn and no session timer scheduled.
func OpenTicks(s *sim.Simulator, seed int64, n int, rate float64, duration, tick time.Duration, cfg OpenConfig, inject func(source int)) {
	if tick <= 0 {
		panic("workload: tick must be positive (Shape fills a zero one)")
	}
	var zipf *ZipfSampler
	var zipfRng *rand.Rand
	if cfg.Zipf > 0 {
		zipf = NewZipf(n, cfg.Zipf)
		zipfRng = sim.ChildRand(seed, zipfStream)
	}
	var active []bool // per source, under churn: whether it is in session
	if cfg.ChurnOn > 0 {
		active = make([]bool, n)
		for i := range active {
			active[i] = true
			scheduleChurn(s, active, i, sim.ChildRand(seed, churnStream+uint64(i)), cfg, duration)
		}
	}
	perClient := rate / float64(n)
	for i := range n {
		offset := time.Duration(s.Rand().Int63n(int64(tick) + 1))
		var carry float64
		var fire func()
		fire = func() {
			if s.Now() >= duration {
				return
			}
			carry += perClient * cfg.Mult(s.Now()) * tick.Seconds()
			burst := int(carry)
			carry -= float64(burst)
			for k := 0; k < burst; k++ {
				src := i
				if zipf != nil {
					src = zipf.Sample(zipfRng)
				}
				if active == nil || active[src] {
					inject(src)
				}
			}
			s.After(tick, fire)
		}
		s.At(offset, fire)
	}
}

// scheduleChurn runs one client's session chain: in-session for
// Exp(ChurnOn), departed for Exp(ChurnOff), repeating until the send
// window closes. Each client owns its rng stream and has exactly one
// outstanding timer, so the draw order inside the stream is fixed
// regardless of how the executor interleaves other events.
func scheduleChurn(s *sim.Simulator, active []bool, i int, rng *rand.Rand, cfg OpenConfig, duration time.Duration) {
	expDur := func(mean time.Duration) time.Duration {
		d := time.Duration(rng.ExpFloat64() * float64(mean))
		if d < time.Millisecond {
			d = time.Millisecond
		}
		return d
	}
	var depart, arrive func()
	depart = func() {
		if s.Now() >= duration {
			return
		}
		active[i] = false
		s.After(expDur(cfg.ChurnOff), arrive)
	}
	arrive = func() {
		if s.Now() >= duration {
			return
		}
		active[i] = true
		s.After(expDur(cfg.ChurnOn), depart)
	}
	s.After(expDur(cfg.ChurnOn), depart)
}
