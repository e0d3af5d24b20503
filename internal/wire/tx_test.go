package wire

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// txPair is one transaction identity built both ways.
type txPair struct {
	name         string
	built, plain *Tx
}

// txPairs covers the four kinds, and for a hash-batch the hash lengths the
// key treats differently: none, exactly the kept prefix, a real digest, and
// one longer than DigestSize.
func txPairs() []txPair {
	e := &Element{ID: NewElementID(7, 41), Client: 7, Seq: 41, Size: 438}
	p := &EpochProof{Epoch: 1 << 40, Signer: 9, Sig: []byte{1}}
	cb := &CompressedBatch{Origin: 3, Seq: 1<<63 + 5, CompSize: 777}
	pairs := []txPair{
		{"element", NewElementTx(e), &Tx{Kind: TxElement, Element: e}},
		{"proof", NewProofTx(p), &Tx{Kind: TxProof, Proof: p}},
		{"compressed", NewCompressedTx(cb), &Tx{Kind: TxCompressedBatch, Compressed: cb}},
	}
	for _, n := range []int{0, TxKeyHashPrefix, DigestSize, DigestSize + 36} {
		hash := make([]byte, n)
		for i := range hash {
			hash[i] = byte(i + 1)
		}
		hb := &HashBatch{Hash: hash, Signer: 4}
		pairs = append(pairs, txPair{fmt.Sprintf("hash-batch/%dB", n), NewHashBatchTx(hb), &Tx{Kind: TxHashBatch, HashBatch: hb}})
	}
	return pairs
}

// A constructor stores the key a literal has built for it on every call:
// the two are the same transaction to everything that asks, and asking
// leaves the literal as it was.
func TestConstructorAndLiteralAgree(t *testing.T) {
	for _, c := range txPairs() {
		if c.built.key.IsZero() || c.built.key != c.built.MapKey() {
			t.Errorf("%s: constructor stored key %v, MapKey %v", c.name, c.built.key, c.built.MapKey())
		}
		if c.built.MapKey() != c.plain.MapKey() {
			t.Errorf("%s: MapKey differs: built %v, literal %v", c.name, c.built.MapKey(), c.plain.MapKey())
		}
		if !c.plain.key.IsZero() {
			t.Errorf("%s: MapKey wrote the key into a literal-built Tx; readers share it", c.name)
		}
		if a, b := c.built.AppendKey(nil), c.plain.AppendKey(nil); !bytes.Equal(a, b) {
			t.Errorf("%s: AppendKey differs: %x / %x", c.name, a, b)
		}
		if c.built.WireSize() != c.plain.WireSize() || c.built.WireSize() == 0 {
			t.Errorf("%s: WireSize %d / %d", c.name, c.built.WireSize(), c.plain.WireSize())
		}
		if c.built.Kind != c.plain.Kind || c.built.Key() != c.plain.Key() {
			t.Errorf("%s: Kind or Key differs", c.name)
		}
	}
}

// Four payload pointers, the kind and the 32-byte key: growing Tx past 72
// bytes moves it up a size class for every transaction of every run.
func TestTxSize(t *testing.T) {
	if got := unsafe.Sizeof(Tx{}); got > 72 {
		t.Fatalf("sizeof(Tx) = %d, want at most 72", got)
	}
}

// A transaction without the payload its kind names has no identity: the
// zero key, no size, and no nil dereference on the way there — from a
// literal and from a constructor handed nil alike.
func TestMalformedTxHasZeroKey(t *testing.T) {
	e := &Element{Size: 438}
	cases := map[string]*Tx{
		"element, no payload":      {Kind: TxElement},
		"proof, no payload":        {Kind: TxProof},
		"compressed, no payload":   {Kind: TxCompressedBatch},
		"hash-batch, no payload":   {Kind: TxHashBatch},
		"unknown kind":             {Kind: 99, Element: e},
		"no kind":                  {Element: e},
		"proof with element":       {Kind: TxProof, Element: e},
		"NewElementTx(nil)":        NewElementTx(nil),
		"NewProofTx(nil)":          NewProofTx(nil),
		"NewCompressedTx(nil)":     NewCompressedTx(nil),
		"NewHashBatchTx(nil)":      NewHashBatchTx(nil),
		"hash-batch, element only": {Kind: TxHashBatch, Element: e},
	}
	for name, tx := range cases {
		if k := tx.MapKey(); !k.IsZero() {
			t.Errorf("%s: MapKey = %v, want the zero key", name, k)
		}
		if sz := tx.WireSize(); sz != 0 {
			t.Errorf("%s: WireSize = %d, want 0", name, sz)
		}
	}
	for _, c := range txPairs() {
		if c.built.MapKey().IsZero() {
			t.Errorf("%s: a well-formed transaction has the zero key", c.name)
		}
	}
}

// Words hands a hashing table all 32 bytes: changing any one byte of a key
// changes the words, and no two of the changed keys read the same.
func TestTxKeyWordsCoverEveryByte(t *testing.T) {
	base := TxKey{a: 0x0102030405060708, n: 0x51, kind: TxHashBatch}
	for i := range base.h {
		base.h[i] = byte(0x10 + i)
	}
	type words [4]uint64
	of := func(k TxKey) (w words) {
		w[0], w[1], w[2], w[3] = k.Words()
		return w
	}
	seen := map[words]int{of(base): -1}
	for i := 0; i < 32; i++ {
		k := base
		switch {
		case i < 8:
			k.a ^= 0x80 << (8 * i)
		case i < 8+TxKeyHashPrefix:
			k.h[i-8] ^= 0x80
		case i == 30:
			k.n ^= 0x80
		default:
			k.kind ^= 0x80
		}
		if prev, dup := seen[of(k)]; dup {
			t.Fatalf("flipping byte %d reads the same words as flipping byte %d (-1: none)", i, prev)
		}
		seen[of(k)] = i
	}
}

// One *Tx is in every server's pool and block at once, and under PDES
// those servers run on different goroutines: MapKey is a pure read for a
// constructor-built Tx and for a literal. Run with -race (CI does), this
// fails the day someone fills the key in lazily.
func TestMapKeyConcurrentReaders(t *testing.T) {
	pairs := txPairs()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				for _, c := range pairs {
					if c.built.MapKey() != c.plain.MapKey() || c.built.WireSize() != c.plain.WireSize() {
						t.Errorf("%s: constructor-built and literal-built Tx disagree", c.name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
