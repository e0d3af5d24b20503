package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/setcrypto"
)

func TestWireSizeConstantsMatchPaper(t *testing.T) {
	p := &EpochProof{}
	if p.WireSize() != 139 {
		t.Fatalf("epoch-proof wire size = %d, want 139 (paper §4)", p.WireSize())
	}
	hb := &HashBatch{}
	if hb.WireSize() != 139 {
		t.Fatalf("hash-batch wire size = %d, want 139 (paper §4)", hb.WireSize())
	}
}

func TestElementSigningBytesBindAllFields(t *testing.T) {
	e := &Element{Client: 7, Seq: 3, Payload: []byte("data")}
	e.ID[0] = 1
	base := e.SigningBytes()
	variants := []*Element{
		{Client: 8, Seq: 3, Payload: []byte("data")},
		{Client: 7, Seq: 4, Payload: []byte("data")},
		{Client: 7, Seq: 3, Payload: []byte("datb")},
	}
	variants[0].ID[0] = 1
	variants[1].ID[0] = 1
	variants[2].ID[0] = 1
	for i, v := range variants {
		if bytes.Equal(base, v.SigningBytes()) {
			t.Fatalf("variant %d has identical signing bytes", i)
		}
	}
	e2 := &Element{Client: 7, Seq: 3, Payload: []byte("data")}
	if bytes.Equal(base, e2.SigningBytes()) {
		t.Fatal("different IDs produced identical signing bytes") // e2.ID zero
	}
}

func TestBatchAccounting(t *testing.T) {
	b := &Batch{}
	if !b.Empty() || b.Len() != 0 || b.RawSize() != 0 {
		t.Fatal("empty batch accounting wrong")
	}
	b.Elements = append(b.Elements, &Element{Size: 438}, &Element{Size: 100})
	b.Proofs = append(b.Proofs, &EpochProof{})
	if b.Len() != 3 {
		t.Fatalf("len = %d, want 3", b.Len())
	}
	if b.RawSize() != 438+100+139 {
		t.Fatalf("raw = %d, want %d", b.RawSize(), 438+100+139)
	}
}

func TestTxKeysDistinct(t *testing.T) {
	e := &Element{Size: 1}
	e.ID[0] = 9
	txs := []*Tx{
		{Kind: TxElement, Element: e},
		{Kind: TxProof, Proof: &EpochProof{Epoch: 1, Signer: 2}},
		{Kind: TxProof, Proof: &EpochProof{Epoch: 1, Signer: 3}},
		{Kind: TxProof, Proof: &EpochProof{Epoch: 2, Signer: 2}},
		{Kind: TxCompressedBatch, Compressed: &CompressedBatch{Origin: 1, Seq: 1, CompSize: 10}},
		{Kind: TxCompressedBatch, Compressed: &CompressedBatch{Origin: 1, Seq: 2, CompSize: 10}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: []byte("h"), Signer: 1}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: []byte("h"), Signer: 2}},
	}
	seen := make(map[string]bool)
	for i, tx := range txs {
		k := tx.Key()
		if k == "" {
			t.Fatalf("tx %d has empty key", i)
		}
		if seen[k] {
			t.Fatalf("tx %d key %q collides", i, k)
		}
		seen[k] = true
	}
}

func TestTxWireSizeDispatch(t *testing.T) {
	e := &Element{Size: 438}
	cases := []struct {
		tx   *Tx
		want int
	}{
		{&Tx{Kind: TxElement, Element: e}, 438},
		{&Tx{Kind: TxProof, Proof: &EpochProof{}}, 139},
		{&Tx{Kind: TxCompressedBatch, Compressed: &CompressedBatch{CompSize: 777}}, 777},
		{&Tx{Kind: TxHashBatch, HashBatch: &HashBatch{}}, 139},
		{&Tx{Kind: 99}, 0},
	}
	for i, c := range cases {
		if got := c.tx.WireSize(); got != c.want {
			t.Fatalf("case %d: size = %d, want %d", i, got, c.want)
		}
	}
}

func TestTxKindString(t *testing.T) {
	for _, c := range []struct {
		k    TxKind
		want string
	}{
		{TxElement, "element"}, {TxProof, "proof"},
		{TxCompressedBatch, "compressed-batch"}, {TxHashBatch, "hash-batch"},
	} {
		if c.k.String() != c.want {
			t.Fatalf("%d -> %q, want %q", c.k, c.k.String(), c.want)
		}
	}
	if TxKind(42).String() == "" {
		t.Fatal("unknown kind has empty string")
	}
}

func TestEpochHashInputOrderSensitive(t *testing.T) {
	a := &Element{}
	a.ID[0] = 1
	b := &Element{}
	b.ID[0] = 2
	h1 := EpochHashInput(3, []*Element{a, b})
	h2 := EpochHashInput(3, []*Element{b, a})
	if bytes.Equal(h1, h2) {
		t.Fatal("epoch hash input ignores element order")
	}
	h3 := EpochHashInput(4, []*Element{a, b})
	if bytes.Equal(h1, h3) {
		t.Fatal("epoch hash input ignores epoch number")
	}
}

// A server builds every epoch's hash input in one scratch buffer, which is
// sound only if no suite's HashData keeps a reference into its input: hash,
// overwrite the buffer with the next epoch's input, and the first digest
// must not have moved.
func TestEpochHashDoesNotRetainItsInput(t *testing.T) {
	a, b := &Element{ID: NewElementID(1, 1)}, &Element{ID: NewElementID(2, 9)}
	for _, suite := range []setcrypto.Suite{setcrypto.FastSuite{}, setcrypto.Ed25519Suite{}} {
		buf := AppendEpochHashInput(nil, 3, []*Element{a, b})
		if !bytes.Equal(buf, EpochHashInput(3, []*Element{a, b})) {
			t.Fatal("AppendEpochHashInput and EpochHashInput build different inputs")
		}
		got := suite.HashData(buf)
		want := bytes.Clone(got)
		for i := range buf {
			buf[i] = 0xFF
		}
		buf = AppendEpochHashInput(buf[:0], 4, []*Element{b, a})
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: digest changed when its input buffer was reused", suite.Name())
		}
		if !bytes.Equal(want, suite.HashData(EpochHashInput(3, []*Element{a, b}))) {
			t.Fatalf("%s: digest of the reused buffer differs from a fresh one's", suite.Name())
		}
		if bytes.Equal(want, suite.HashData(buf)) {
			t.Fatalf("%s: two epochs hash alike", suite.Name())
		}
	}
}

func TestVerifyEpochProof(t *testing.T) {
	suite := setcrypto.FastSuite{}
	reg := setcrypto.NewRegistry()
	kp := setcrypto.FastKeyPair(2)
	reg.Register(2, kp.Public)
	elems := []*Element{{Size: 1}}
	hash := suite.HashData(EpochHashInput(1, elems))
	p := &EpochProof{Epoch: 1, EpochHash: hash, Sig: suite.Sign(kp, hash), Signer: 2}
	if !VerifyEpochProof(suite, reg, p, hash) {
		t.Fatal("valid proof rejected")
	}
	// Wrong expected hash.
	other := suite.HashData([]byte("other"))
	if VerifyEpochProof(suite, reg, p, other) {
		t.Fatal("proof verified against wrong epoch hash")
	}
	// Unknown signer.
	p2 := *p
	p2.Signer = 9
	if VerifyEpochProof(suite, reg, &p2, hash) {
		t.Fatal("proof from unregistered signer verified")
	}
	// Nil / empty cases.
	if VerifyEpochProof(suite, reg, nil, hash) {
		t.Fatal("nil proof verified")
	}
	if VerifyEpochProof(suite, reg, p, nil) {
		t.Fatal("empty expected hash verified")
	}
}

// Property: interned digests are injective on inputs up to DigestSize bytes
// (real digests are exactly 64 bytes; the explicit length keeps shorter
// test hashes from colliding with their zero-padded extensions).
func TestQuickDigestInjective(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > DigestSize {
			a = a[:DigestSize]
		}
		if len(b) > DigestSize {
			b = b[:DigestSize]
		}
		if bytes.Equal(a, b) {
			return DigestOf(a) == DigestOf(b)
		}
		return DigestOf(a) != DigestOf(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Digest round-trips the interned bytes.
func TestDigestBytesRoundTrip(t *testing.T) {
	for _, in := range [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 64), bytes.Repeat([]byte{7}, 100)} {
		d := DigestOf(in)
		want := in
		if len(want) > DigestSize {
			want = want[:DigestSize]
		}
		if !bytes.Equal(d.Bytes(), want) {
			t.Fatalf("DigestOf(%d bytes).Bytes() = %d bytes, want %d", len(in), len(d.Bytes()), len(want))
		}
	}
}

// TxKey is 32 bytes with no padding between or after its fields. That is
// the reason a map keyed by it takes Go's fast path: a struct of plain
// memory without padding is hashed and compared as one run of bytes
// (memhash/memequal), where a struct with padding — the 88-byte key this
// replaced — goes through a generated routine that walks the fields.
func TestTxKeyLayout(t *testing.T) {
	var k TxKey
	if got := unsafe.Sizeof(k); got != 32 {
		t.Fatalf("sizeof(TxKey) = %d, want 32", got)
	}
	if sum := unsafe.Sizeof(k.a) + unsafe.Sizeof(k.h) + unsafe.Sizeof(k.n) + unsafe.Sizeof(k.kind); sum != unsafe.Sizeof(k) {
		t.Fatalf("TxKey fields add up to %d bytes of %d: the layout has padding", sum, unsafe.Sizeof(k))
	}
}

// MapKey must discriminate exactly as the diagnostic string Key does,
// including on inputs chosen so that one kind's packed fields spell out
// another kind's bytes.
func TestMapKeysDistinct(t *testing.T) {
	e := &Element{Size: 1}
	e.ID[0] = 9
	h64 := bytes.Repeat([]byte{3}, 64)
	// An element id whose 16 bytes are what a proof (epoch 7, signer 2) or a
	// compressed batch (origin 7, seq 2) would pack if a and h were adjacent.
	packed := &Element{Size: 1}
	binary.LittleEndian.PutUint64(packed.ID[:8], 7)
	binary.LittleEndian.PutUint64(packed.ID[8:], 2)
	// The same numbers where the key really puts them: id = h[:16] of a
	// proof with signer 2, epoch aside.
	inH := &Element{Size: 1}
	binary.LittleEndian.PutUint64(inH.ID[:8], 2)
	// A hash-batch whose hash starts with those bytes and whose signer is 7.
	hashLike := append(binary.LittleEndian.AppendUint64(nil, 2), make([]byte, 56)...)
	const bigSigner = NodeID(1<<48 + 5)
	txs := []*Tx{
		{Kind: TxElement, Element: e},
		{Kind: TxProof, Proof: &EpochProof{Epoch: 1, Signer: 2}},
		{Kind: TxProof, Proof: &EpochProof{Epoch: 1, Signer: 3}},
		{Kind: TxProof, Proof: &EpochProof{Epoch: 2, Signer: 2}},
		{Kind: TxCompressedBatch, Compressed: &CompressedBatch{Origin: 1, Seq: 1, CompSize: 10}},
		{Kind: TxCompressedBatch, Compressed: &CompressedBatch{Origin: 1, Seq: 2, CompSize: 10}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: []byte("h"), Signer: 1}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: []byte("h"), Signer: 2}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: h64, Signer: 2}},

		// Cross-kind: the same numbers as an element, a proof, a compressed
		// batch (both ways round) and a hash-batch.
		{Kind: TxElement, Element: packed},
		{Kind: TxElement, Element: inH},
		{Kind: TxElement, Element: &Element{Size: 1}}, // all-zero id
		{Kind: TxProof, Proof: &EpochProof{Epoch: 7, Signer: 2}},
		{Kind: TxProof, Proof: &EpochProof{Epoch: 2, Signer: 7}},
		{Kind: TxProof, Proof: &EpochProof{}},
		{Kind: TxCompressedBatch, Compressed: &CompressedBatch{Origin: 7, Seq: 2}},
		{Kind: TxCompressedBatch, Compressed: &CompressedBatch{Origin: 2, Seq: 7}},
		{Kind: TxCompressedBatch, Compressed: &CompressedBatch{}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: hashLike, Signer: 7}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{}},

		// Hash-batches that share every kept prefix byte and differ in
		// length (a hash and its zero-padded extensions), or in signer.
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: h64[:TxKeyHashPrefix], Signer: 2}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: h64[:TxKeyHashPrefix+1], Signer: 2}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: h64[:63], Signer: 2}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: []byte{0}, Signer: 2}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: []byte{0, 0}, Signer: 2}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: h64, Signer: 3}},

		// Signers at and above 2^48: all 64 bits count, for every kind that
		// carries one.
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: h64, Signer: bigSigner}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: h64, Signer: bigSigner - 5}},
		{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: h64, Signer: 5}},
		{Kind: TxProof, Proof: &EpochProof{Epoch: 1, Signer: bigSigner}},
		{Kind: TxProof, Proof: &EpochProof{Epoch: 1, Signer: 5}},
		{Kind: TxProof, Proof: &EpochProof{Epoch: 1<<63 + 1, Signer: 2}},
		{Kind: TxCompressedBatch, Compressed: &CompressedBatch{Origin: bigSigner, Seq: 1}},
		{Kind: TxCompressedBatch, Compressed: &CompressedBatch{Origin: 5, Seq: 1}},
		{Kind: TxCompressedBatch, Compressed: &CompressedBatch{Origin: 1, Seq: 1<<63 + 1}},
	}
	seenMap := make(map[TxKey]int)
	seenAppend := make(map[string]int)
	for i, tx := range txs {
		k := tx.MapKey()
		if j, dup := seenMap[k]; dup {
			t.Fatalf("tx %d MapKey collides with tx %d", i, j)
		}
		seenMap[k] = i
		ak := string(tx.AppendKey(nil))
		if j, dup := seenAppend[ak]; dup {
			t.Fatalf("tx %d AppendKey collides with tx %d", i, j)
		}
		seenAppend[ak] = i
	}
}

// The one place MapKey is coarser than AppendKey, stated so that nobody
// finds it by accident: two hash-batches of one signer whose hashes have
// the same length and the same first TxKeyHashPrefix bytes are one
// transaction to the mempool. Another signer's hash-batch never is.
func TestHashBatchKeyIsSignerLengthPrefix(t *testing.T) {
	a := bytes.Repeat([]byte{3}, 64)
	b := bytes.Clone(a)
	b[TxKeyHashPrefix] ^= 1
	key := func(h []byte, signer NodeID) TxKey {
		return (&Tx{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: h, Signer: signer}}).MapKey()
	}
	if key(a, 1) != key(b, 1) {
		t.Fatal("hashes that differ only past the kept prefix have different keys: the prefix is longer than documented")
	}
	if key(a, 1) == key(b, 2) || key(a, 1) == key(a, 2) {
		t.Fatal("a hash-batch key ignores its signer")
	}
	b = bytes.Clone(a)
	b[TxKeyHashPrefix-1] ^= 1
	if key(a, 1) == key(b, 1) {
		t.Fatal("a hash-batch key ignores the last kept prefix byte")
	}
	// Over-long hashes are capped at DigestSize, as DigestOf caps them.
	if long := append(bytes.Clone(a), 9, 9); key(long, 1) != key(a, 1) {
		t.Fatal("a hash longer than DigestSize is not capped like DigestOf caps it")
	}
}

// MapKey and the mempool dedup path must not allocate.
func TestMapKeyAllocFree(t *testing.T) {
	e := &Element{Size: 438}
	e.ID[0] = 1
	tx := &Tx{Kind: TxElement, Element: e}
	hb := &Tx{Kind: TxHashBatch, HashBatch: &HashBatch{Hash: bytes.Repeat([]byte{5}, 64), Signer: 3}}
	m := make(map[TxKey]struct{})
	avg := testing.AllocsPerRun(200, func() {
		m[tx.MapKey()] = struct{}{}
		m[hb.MapKey()] = struct{}{}
	})
	if avg != 0 {
		t.Fatalf("MapKey/map insert allocates %.2f/op, want 0", avg)
	}
}
