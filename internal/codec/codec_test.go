package codec

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/wire"
)

func randElement(rng *rand.Rand) *wire.Element {
	e := &wire.Element{
		Client: wire.ClientID(rng.Intn(100)),
		Seq:    rng.Uint64(),
	}
	rng.Read(e.ID[:])
	n := rng.Intn(599) + 1 // decode normalizes empty payloads to nil
	e.Payload = make([]byte, n)
	rng.Read(e.Payload)
	e.Sig = make([]byte, 64)
	rng.Read(e.Sig)
	e.Size = wire.ElementHeaderSize + n + 64
	return e
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

func TestDecodeBatchHostileLengths(t *testing.T) {
	// A batch claiming 2^31 elements must fail fast, not allocate.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := DecodeBatch(hostile); err == nil {
		t.Fatal("hostile element count accepted")
	}
}

func TestTxRoundTripAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Constructor-built, so DeepEqual below also demands that the decoded
	// transaction carries its dedup key like the original.
	txs := []*wire.Tx{
		wire.NewElementTx(randElement(rng)),
		wire.NewProofTx(randProof(rng)),
		wire.NewCompressedTx(&wire.CompressedBatch{
			Data: []byte{1, 2, 3, 4}, CompSize: 4, Origin: 3, Seq: 17,
		}),
		wire.NewHashBatchTx(&wire.HashBatch{
			Hash: bytes.Repeat([]byte{7}, 64), Sig: bytes.Repeat([]byte{9}, 64), Signer: 2,
		}),
	}
	// Hash lengths the key treats differently: none, exactly the prefix it
	// keeps, and one longer than a digest.
	for _, n := range []int{0, wire.TxKeyHashPrefix, wire.DigestSize + 36} {
		hb := &wire.HashBatch{Sig: []byte{9}, Signer: 2}
		if n > 0 {
			hb.Hash = bytes.Repeat([]byte{7}, n)
		}
		txs = append(txs, wire.NewHashBatchTx(hb))
	}
	for _, tx := range txs {
		enc, err := EncodeTx(tx)
		if err != nil {
			t.Fatalf("EncodeTx(%v): %v", tx.Kind, err)
		}
		dec, err := DecodeTx(enc)
		if err != nil {
			t.Fatalf("DecodeTx(%v): %v", tx.Kind, err)
		}
		if !reflect.DeepEqual(tx, dec) {
			t.Fatalf("tx kind %v did not round-trip", tx.Kind)
		}
		// The same payload as a literal has no stored key and is the same
		// transaction to everything that asks.
		lit := &wire.Tx{Kind: tx.Kind, Element: tx.Element, Proof: tx.Proof, Compressed: tx.Compressed, HashBatch: tx.HashBatch}
		if reflect.DeepEqual(lit, dec) {
			t.Fatalf("tx kind %v: decoded tx carries no key", tx.Kind)
		}
		litEnc, err := EncodeTx(lit)
		if err != nil || !bytes.Equal(litEnc, enc) || lit.MapKey() != dec.MapKey() {
			t.Fatalf("tx kind %v: literal and decoded tx differ (err %v)", tx.Kind, err)
		}
	}
}

func TestTxBadKind(t *testing.T) {
	if _, err := EncodeTx(&wire.Tx{Kind: 99}); err == nil {
		t.Fatal("unknown kind encoded")
	}
	if _, err := DecodeTx([]byte{99, 0, 0}); err == nil {
		t.Fatal("unknown kind decoded")
	}
	if _, err := DecodeTx(nil); err == nil {
		t.Fatal("empty input decoded")
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
		_, _ = DecodeTx(data)
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
