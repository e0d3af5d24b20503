package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tolFrac float64, label string) {
	t.Helper()
	if math.Abs(got-want) > want*tolFrac {
		t.Fatalf("%s = %.0f, want ~%.0f (±%.0f%%)", label, got, want, tolFrac*100)
	}
}

// The five Appendix D.1 numbers, within 2% (the paper rounds its inputs).
func TestD1Numbers(t *testing.T) {
	p := PaperParams()
	approx(t, VanillaThroughput(p), 955, 0.02, "Tv")

	p.CollectorSize = 100
	p.CompressRatio = 2.7
	approx(t, CompresschainThroughput(p), 2497, 0.02, "Tc[100]")

	p.CollectorSize = 500
	p.CompressRatio = 3.5
	approx(t, CompresschainThroughput(p), 3330, 0.02, "Tc[500]")

	p.CompressRatio = 0
	p.CollectorSize = 100
	approx(t, HashchainThroughput(p), 27157, 0.02, "Th[100]")

	p.CollectorSize = 500
	approx(t, HashchainThroughput(p), 147857, 0.02, "Th[500]")
}

// The paper's headline ratios: Th[500]/Tv ≈ 155 and Th[500]/Tc[500] ≈ 44.
func TestHeadlineRatios(t *testing.T) {
	p := PaperParams()
	p.CollectorSize = 500
	th := HashchainThroughput(p)
	tv := VanillaThroughput(p)
	p.CompressRatio = 3.5
	tc := CompresschainThroughput(p)
	approx(t, th/tv, 155, 0.03, "Th/Tv")
	approx(t, th/tc, 44, 0.03, "Th/Tc")
}

func TestD1Table(t *testing.T) {
	rows := D1Table()
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	if rows[0].Label != "Vanilla" || rows[0].Collector != 0 {
		t.Fatalf("unexpected first row %+v", rows[0])
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Throughput <= rows[i-1].Throughput {
			t.Fatalf("D1 rows not strictly increasing at %d: %+v", i, rows)
		}
	}
}

// Fig. 2 (right) anchors: with 4 MB blocks Hashchain exceeds 10^6 el/s and
// with 128 MB it exceeds 3×10^7 el/s (the paper: "with the usual 4MB
// blocksize ... 10^6 el/s, and with blocks of 128 MB reaches more than 30
// million el/s").
func TestBlockSizeSweepAnchors(t *testing.T) {
	sweep := BlockSizeSweep()
	if len(sweep) != 9 {
		t.Fatalf("sweep has %d points, want 9 (0.5..128 MB doublings)", len(sweep))
	}
	var at4, at128 float64
	for _, pt := range sweep {
		switch pt.BlockMB {
		case 4:
			at4 = pt.Hashchain
		case 128:
			at128 = pt.Hashchain
		}
	}
	if at4 < 1e6 {
		t.Fatalf("Hashchain at 4MB = %.0f, want >= 1e6", at4)
	}
	if at128 < 3e7 {
		t.Fatalf("Hashchain at 128MB = %.0f, want >= 3e7", at128)
	}
	// Ordering holds at every block size: Hashchain > Compresschain > Vanilla.
	for _, pt := range sweep {
		if !(pt.Hashchain > pt.Compresschain && pt.Compresschain > pt.Vanilla) {
			t.Fatalf("ordering violated at %v MB: %+v", pt.BlockMB, pt)
		}
	}
}

func TestCompressionRatioInterpolation(t *testing.T) {
	if r := CompressionRatioFor(100); r != 2.7 {
		t.Fatalf("r(100) = %v", r)
	}
	if r := CompressionRatioFor(500); r != 3.5 {
		t.Fatalf("r(500) = %v", r)
	}
	if r := CompressionRatioFor(300); r <= 2.7 || r >= 3.5 {
		t.Fatalf("r(300) = %v not between anchors", r)
	}
	if r := CompressionRatioFor(10); r != 2.7 {
		t.Fatalf("r(10) = %v, want clamp", r)
	}
	if r := CompressionRatioFor(9999); r != 3.5 {
		t.Fatalf("r(9999) = %v, want clamp", r)
	}
}

func TestDegenerateParams(t *testing.T) {
	p := PaperParams()
	p.CollectorSize = 5 // c <= n
	if CompresschainThroughput(p) != 0 || HashchainThroughput(p) != 0 {
		t.Fatal("c <= n should yield zero throughput")
	}
	p = PaperParams()
	p.BlockBytes = 100 // smaller than n proofs
	if VanillaThroughput(p) != 0 {
		t.Fatal("block smaller than proofs should yield zero Vanilla throughput")
	}
}

// Property: all model outputs are monotone in block capacity and rate.
func TestQuickMonotoneInCapacity(t *testing.T) {
	f := func(extraKB uint16, c uint8) bool {
		base := PaperParams()
		base.CollectorSize = 100 + int(c)
		grown := base
		grown.BlockBytes += float64(extraKB) * 1000
		return VanillaThroughput(grown) >= VanillaThroughput(base) &&
			CompresschainThroughput(grown) >= CompresschainThroughput(base) &&
			HashchainThroughput(grown) >= HashchainThroughput(base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Hashchain dominates Compresschain dominates Vanilla whenever
// the collector meaningfully exceeds n (the paper's central claim).
func TestQuickAlgorithmOrdering(t *testing.T) {
	f := func(c uint8) bool {
		p := PaperParams()
		p.CollectorSize = 100 + int(c)*2
		th := HashchainThroughput(p)
		tc := CompresschainThroughput(p)
		tv := VanillaThroughput(p)
		return th > tc && tc > tv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 128}); err != nil {
		t.Fatal(err)
	}
}
