package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestSizeDistributionMatchesPaper(t *testing.T) {
	m := ArbitrumSizes()
	rng := rand.New(rand.NewSource(1))
	const n = 200_000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := float64(m.Sample(rng))
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	std := math.Sqrt(sum2/n - mean*mean)
	// Clamping trims the extreme tail, so allow generous bands around the
	// paper's mean 438 / σ 753.5.
	if mean < 380 || mean > 500 {
		t.Fatalf("sampled mean = %.1f, want ~438", mean)
	}
	if std < 450 || std > 900 {
		t.Fatalf("sampled stddev = %.1f, want ~753", std)
	}
}

func TestSizeBounds(t *testing.T) {
	m := ArbitrumSizes()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50_000; i++ {
		v := m.Sample(rng)
		if v < m.Min || v > m.Max {
			t.Fatalf("sample %d outside [%d, %d]", v, m.Min, m.Max)
		}
	}
}

func TestZeroMeanModel(t *testing.T) {
	m := SizeModel{Min: 10, Max: 20}
	rng := rand.New(rand.NewSource(3))
	if v := m.Sample(rng); v < 10 || v > 20 {
		t.Fatalf("degenerate model sample = %d", v)
	}
}

func deployModeled(seed int64, n int) (*sim.Simulator, *core.Deployment, *metrics.Recorder) {
	s := sim.New(seed)
	f := (n - 1) / 2
	rec := metrics.New(s, metrics.LevelThroughput, n, f, 0)
	d := core.Deploy(s, n, ledger.PaperConfig(),
		core.Options{Algorithm: core.Hashchain, Mode: core.Modeled, CollectorLimit: 50, F: f}, rec)
	d.Start()
	return s, d, rec
}

func TestGeneratorRateAccuracy(t *testing.T) {
	s, d, rec := deployModeled(1, 4)
	g := New(d, rec, Config{Rate: 1000, Duration: 10 * time.Second})
	g.Start()
	s.RunUntil(30 * time.Second)
	d.Stop()
	// 1000 el/s for 10 s => ~10,000 elements (±2% from tick rounding).
	if g.Injected() < 9800 || g.Injected() > 10200 {
		t.Fatalf("injected = %d, want ~10000", g.Injected())
	}
	if g.Rejected() != 0 {
		t.Fatalf("rejected = %d, want 0", g.Rejected())
	}
	if !g.Done() {
		t.Fatal("generator not done after duration")
	}
	if rec.TotalInjected() != g.Injected() {
		t.Fatal("recorder and generator disagree on injected count")
	}
}

func TestGeneratorStopsAtDuration(t *testing.T) {
	s, d, rec := deployModeled(2, 4)
	g := New(d, rec, Config{Rate: 500, Duration: 5 * time.Second})
	g.Start()
	s.RunUntil(6 * time.Second)
	afterWindow := g.Injected()
	s.RunUntil(20 * time.Second)
	d.Stop()
	if g.Injected() != afterWindow {
		t.Fatal("elements injected after the sending window closed")
	}
}

func TestGeneratorElementsCommit(t *testing.T) {
	s, d, rec := deployModeled(3, 4)
	g := New(d, rec, Config{Rate: 200, Duration: 5 * time.Second})
	g.Start()
	s.RunUntil(40 * time.Second)
	d.Stop()
	if rec.TotalCommitted() != g.Injected() {
		t.Fatalf("committed %d of %d injected", rec.TotalCommitted(), g.Injected())
	}
}

func TestFullPayloadGeneration(t *testing.T) {
	s := sim.New(4)
	rec := metrics.New(s, metrics.LevelThroughput, 4, 1, 0)
	d := core.Deploy(s, 4, ledger.PaperConfig(),
		core.Options{Algorithm: core.Compresschain, Mode: core.Full, CollectorLimit: 20, F: 1}, rec)
	d.Start()
	g := New(d, rec, Config{Rate: 100, Duration: 3 * time.Second, FullPayloads: true})
	g.Start()
	s.RunUntil(30 * time.Second)
	d.Stop()
	if g.Rejected() != 0 {
		t.Fatalf("full-payload rejects = %d (signature path broken?)", g.Rejected())
	}
	if rec.TotalCommitted() == 0 {
		t.Fatal("no full-payload elements committed")
	}
}
