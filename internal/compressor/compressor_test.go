package compressor

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeflateRoundTrip(t *testing.T) {
	d := Deflate{}
	data := bytes.Repeat([]byte("setchain element payload "), 100)
	blob, err := d.Compress(data)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if len(blob) >= len(data) {
		t.Fatalf("repetitive data did not compress: %d >= %d", len(blob), len(data))
	}
	out, err := d.Decompress(blob)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestDeflateEmptyInput(t *testing.T) {
	d := Deflate{}
	blob, err := d.Compress(nil)
	if err != nil {
		t.Fatalf("Compress(nil): %v", err)
	}
	out, err := d.Decompress(blob)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if len(out) != 0 {
		t.Fatalf("decompressed %d bytes from empty input", len(out))
	}
}

func TestDeflateCorruptInput(t *testing.T) {
	d := Deflate{}
	if _, err := d.Decompress([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err == nil {
		t.Fatal("corrupt blob decompressed without error")
	}
}

// Property: any byte string round-trips through deflate.
func TestQuickDeflateRoundTrip(t *testing.T) {
	d := Deflate{}
	f := func(data []byte) bool {
		blob, err := d.Compress(data)
		if err != nil {
			return false
		}
		out, err := d.Decompress(blob)
		if err != nil {
			return false
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRatioModelAnchors(t *testing.T) {
	if r := Ratio(100); r != 2.7 {
		t.Fatalf("Ratio(100) = %v, want 2.7", r)
	}
	if r := Ratio(500); r != 3.5 {
		t.Fatalf("Ratio(500) = %v, want 3.5", r)
	}
	if r := Ratio(50); r != 2.7 {
		t.Fatalf("Ratio(50) = %v, want clamp to 2.7", r)
	}
	if r := Ratio(1000); r != 3.5 {
		t.Fatalf("Ratio(1000) = %v, want clamp to 3.5", r)
	}
	mid := Ratio(300)
	if mid <= 2.7 || mid >= 3.5 {
		t.Fatalf("Ratio(300) = %v, want strictly between anchors", mid)
	}
}

func TestRatioModelMatchesPaperBatchSizes(t *testing.T) {
	// Paper §4: c=100 batches average ~16,000 compressed bytes from ~100
	// elements of ~438 B; c=500 averages ~66,000 bytes. Check the model
	// lands in the right neighborhood (±25%).
	raw100 := 100 * 438
	got100 := CompressedSize(100, raw100)
	if got100 < 12000 || got100 > 20000 {
		t.Fatalf("modeled c=100 compressed size = %d, want ~16000", got100)
	}
	raw500 := 500 * 438
	got500 := CompressedSize(500, raw500)
	if got500 < 50000 || got500 > 82000 {
		t.Fatalf("modeled c=500 compressed size = %d, want ~66000", got500)
	}
}

func TestCompressedSizeFloor(t *testing.T) {
	if got := CompressedSize(1, 10); got != 64 {
		t.Fatalf("tiny batch compressed size = %d, want floor 64", got)
	}
}

// Property: modeled compression is monotone in raw size and always positive.
func TestQuickRatioModelMonotone(t *testing.T) {
	f := func(n uint16, raw uint32) bool {
		nn := int(n)%600 + 1
		r1 := CompressedSize(nn, int(raw)%1_000_000)
		r2 := CompressedSize(nn, int(raw)%1_000_000+1000)
		return r1 > 0 && r2 >= r1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDeflateCompressBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	// Semi-compressible payload shaped like transaction data.
	data := make([]byte, 100*438)
	for i := range data {
		if i%3 == 0 {
			data[i] = byte(rng.Intn(16))
		} else {
			data[i] = byte(i % 251)
		}
	}
	d := Deflate{}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Compress(data); err != nil {
			b.Fatal(err)
		}
	}
}
