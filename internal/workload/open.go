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
	"repro/internal/spec"
)

// Stream ids for the open-system ChildSeed streams. They sit far above
// any plausible node id so they can never collide with the per-node
// streams netsim derives from the same seed.
const (
	zipfStream  uint64 = 1 << 40
	churnStream uint64 = 1<<40 + 1<<20 // + source index
)

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
// The zero block is the closed system bit for bit: the multiplier is exactly
// 1, so every slot's carry sequence is the flat rate's, and no extra
// stream is drawn and no session timer scheduled.
func OpenTicks(s *sim.Simulator, seed int64, n int, rate float64, duration, tick time.Duration, cfg spec.OpenSpec, inject func(source int)) {
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
func scheduleChurn(s *sim.Simulator, active []bool, i int, rng *rand.Rand, cfg spec.OpenSpec, duration time.Duration) {
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
		s.After(expDur(cfg.ChurnOff.Std()), arrive)
	}
	arrive = func() {
		if s.Now() >= duration {
			return
		}
		active[i] = true
		s.After(expDur(cfg.ChurnOn.Std()), depart)
	}
	s.After(expDur(cfg.ChurnOn.Std()), depart)
}
