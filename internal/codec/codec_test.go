package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

func randElement(rng *rand.Rand) *wire.Element {
	hdr := wire.Element{
		Client: wire.ClientID(rng.Intn(100)),
		Seq:    rng.Uint64(),
	}
	rng.Read(hdr.ID[:])
	n := rng.Intn(599) + 1 // non-empty: decode does not tell a nil payload from an empty one
	payload, sig := make([]byte, n), make([]byte, 64)
	rng.Read(payload)
	rng.Read(sig)
	hdr.Size = int32(wire.ElementHeaderSize + n + 64)
	return hdr.WithBody(payload, sig)
}

func randProof(rng *rand.Rand) *wire.EpochProof {
	p := &wire.EpochProof{
		Epoch:  rng.Uint64() % 10000,
		Signer: wire.NodeID(rng.Intn(10)),
	}
	p.EpochHash = make([]byte, 64)
	rng.Read(p.EpochHash)
	p.Sig = make([]byte, 64)
	rng.Read(p.Sig)
	return p
}

func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := &wire.Batch{}
	for i := 0; i < 50; i++ {
		b.Elements = append(b.Elements, randElement(rng))
	}
	for i := 0; i < 10; i++ {
		b.Proofs = append(b.Proofs, randProof(rng))
	}
	enc := EncodeBatch(b)
	dec, err := DecodeBatch(enc)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if !reflect.DeepEqual(b, dec) {
		t.Fatal("batch did not round-trip")
	}
}

func TestEmptyBatchRoundTrip(t *testing.T) {
	enc := EncodeBatch(&wire.Batch{})
	dec, err := DecodeBatch(enc)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if !dec.Empty() {
		t.Fatal("empty batch decoded non-empty")
	}
}

func TestBatchEncodingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := &wire.Batch{Elements: []*wire.Element{randElement(rng), randElement(rng)}}
	if !bytes.Equal(EncodeBatch(b), EncodeBatch(b)) {
		t.Fatal("EncodeBatch is not deterministic")
	}
}

func TestDecodeBatchTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := &wire.Batch{Elements: []*wire.Element{randElement(rng)}}
	enc := EncodeBatch(b)
	for _, cut := range []int{0, 1, 3, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeBatch(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestDecodeBatchTrailingGarbage(t *testing.T) {
	enc := EncodeBatch(&wire.Batch{})
	if _, err := DecodeBatch(append(enc, 0xAA)); err == nil {
		t.Fatal("trailing garbage not detected")
	}
}

// batchDeclaringSize encodes a one-element batch whose element declares the
// given wire size. The size is the element's fourth field, after the batch's
// element count, the id, the client and the sequence number.
func batchDeclaringSize(size uint32) []byte {
	e := randElement(rand.New(rand.NewSource(5)))
	enc := EncodeBatch(&wire.Batch{Elements: []*wire.Element{e}})
	binary.LittleEndian.PutUint32(enc[4+16+8+8:], size)
	return enc
}

func TestDecodeBatchHostileLengths(t *testing.T) {
	// A batch claiming 2^31 elements must fail fast, not allocate.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := DecodeBatch(hostile); err == nil {
		t.Fatal("hostile element count accepted")
	}
	// An element size past 2^31-1 is refused, not wrapped negative; the
	// largest size an element can hold decodes.
	if _, err := DecodeBatch(batchDeclaringSize(wire.MaxElementSize + 1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("element size 2^31 decoded (err %v), want ErrTooLarge", err)
	}
	b, err := DecodeBatch(batchDeclaringSize(wire.MaxElementSize))
	if err != nil || b.Elements[0].Size != wire.MaxElementSize {
		t.Fatalf("element size 2^31-1: err %v, want it decoded whole", err)
	}
}

// Property: any batch built from generated parts round-trips exactly.
func TestQuickBatchRoundTrip(t *testing.T) {
	f := func(seed int64, nel, np uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := &wire.Batch{}
		for i := 0; i < int(nel)%20; i++ {
			b.Elements = append(b.Elements, randElement(rng))
		}
		for i := 0; i < int(np)%8; i++ {
			b.Proofs = append(b.Proofs, randProof(rng))
		}
		dec, err := DecodeBatch(EncodeBatch(b))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(b, dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: random byte strings never panic the decoder (they may error).
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeBatch(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeBatch500(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	batch := &wire.Batch{}
	for i := 0; i < 500; i++ {
		batch.Elements = append(batch.Elements, randElement(rng))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeBatch(batch)
	}
}

func BenchmarkDecodeBatch500(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	batch := &wire.Batch{}
	for i := 0; i < 500; i++ {
		batch.Elements = append(batch.Elements, randElement(rng))
	}
	enc := EncodeBatch(batch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(enc); err != nil {
			b.Fatal(err)
		}
	}
}
