package setcrypto

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEd25519SignVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kp := GenerateKeyPair(rng)
	suite := Ed25519Suite{}
	msg := []byte("setchain epoch 7")
	sig := suite.Sign(kp, msg)
	if len(sig) != SignatureSize {
		t.Fatalf("signature size = %d, want %d", len(sig), SignatureSize)
	}
	if !suite.Verify(kp.Public, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if suite.Verify(kp.Public, []byte("other"), sig) {
		t.Fatal("signature verified for wrong message")
	}
	sig[0] ^= 0xFF
	if suite.Verify(kp.Public, msg, sig) {
		t.Fatal("tampered signature verified")
	}
}

func TestEd25519WrongKeyRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	kp1 := GenerateKeyPair(rng)
	kp2 := GenerateKeyPair(rng)
	suite := Ed25519Suite{}
	msg := []byte("cross-key")
	sig := suite.Sign(kp1, msg)
	if suite.Verify(kp2.Public, msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestDeterministicKeyGeneration(t *testing.T) {
	a := GenerateKeyPair(rand.New(rand.NewSource(42)))
	b := GenerateKeyPair(rand.New(rand.NewSource(42)))
	if !bytes.Equal(a.Public, b.Public) {
		t.Fatal("same seed produced different keys")
	}
}

func TestEd25519HashShape(t *testing.T) {
	suite := Ed25519Suite{}
	h := suite.HashData([]byte("a"), []byte("b"))
	h2 := suite.HashData([]byte("ab"))
	if len(h) != HashSize {
		t.Fatalf("hash size = %d, want %d", len(h), HashSize)
	}
	if !bytes.Equal(h, h2) {
		t.Fatal("chunked hashing differs from contiguous hashing")
	}
	if bytes.Equal(h, suite.HashData([]byte("ac"))) {
		t.Fatal("different inputs hashed equal")
	}
}

func TestFastSuiteRoundTrip(t *testing.T) {
	suite := FastSuite{}
	kp := FastKeyPair(3)
	msg := []byte("fast mode message")
	sig := suite.Sign(kp, msg)
	if len(sig) != SignatureSize {
		t.Fatalf("fast signature size = %d, want %d", len(sig), SignatureSize)
	}
	if !suite.Verify(kp.Public, msg, sig) {
		t.Fatal("fast suite rejected its own signature")
	}
	other := FastKeyPair(4)
	if suite.Verify(other.Public, msg, sig) {
		t.Fatal("fast suite verified under wrong key")
	}
	if suite.Verify(kp.Public, []byte("tampered"), sig) {
		t.Fatal("fast suite verified wrong message")
	}
}

func TestFastSuiteHashShape(t *testing.T) {
	suite := FastSuite{}
	h := suite.HashData([]byte("x"))
	if len(h) != HashSize {
		t.Fatalf("fast hash size = %d, want %d", len(h), HashSize)
	}
	if bytes.Equal(h, suite.HashData([]byte("y"))) {
		t.Fatal("fast hash collided on trivial inputs")
	}
}

// registered counts the ids that hold a key.
func registered(r *Registry) int {
	n := 0
	for _, k := range r.keys {
		if k != nil {
			n++
		}
	}
	return n
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if reg.Lookup(0) != nil {
		t.Fatal("empty registry returned a key")
	}
	kp := FastKeyPair(0)
	reg.Register(0, kp.Public)
	if got := reg.Lookup(0); !bytes.Equal(got, kp.Public) {
		t.Fatal("registry returned wrong key")
	}
	if registered(reg) != 1 {
		t.Fatalf("len = %d, want 1", registered(reg))
	}
	// Replacement.
	kp2 := FastKeyPair(99)
	reg.Register(0, kp2.Public)
	if got := reg.Lookup(0); !bytes.Equal(got, kp2.Public) {
		t.Fatal("registry did not replace key")
	}
	if registered(reg) != 1 {
		t.Fatalf("len after replace = %d, want 1", registered(reg))
	}
}

// Lookup answers nil for every id it holds no key for — negative, far past
// the table, or inside it but never registered — and the table holds ids,
// not registrations.
func TestRegistryEdges(t *testing.T) {
	reg := NewRegistry()
	kp := FastKeyPair(5)
	reg.Register(5, kp.Public)
	for _, id := range []int{-1, 1 << 40, 0, 4, 6} {
		if got := reg.Lookup(id); got != nil {
			t.Fatalf("Lookup(%d) = %x, want nil", id, got)
		}
	}
	reg.Register(2, FastKeyPair(2).Public)
	reg.Register(5, FastKeyPair(50).Public)
	if got := reg.Lookup(5); !bytes.Equal(got, FastKeyPair(50).Public) {
		t.Fatal("Register did not replace id 5's key")
	}
	if got := reg.Lookup(2); !bytes.Equal(got, FastKeyPair(2).Public) {
		t.Fatal("registering id 2 after id 5 lost it")
	}
	if registered(reg) != 2 {
		t.Fatalf("Len = %d after three registrations of two ids, want 2", registered(reg))
	}
}

// A suite's stream sums to HashData over the concatenation of what was
// written, however the writes split it: empty writes, tails of 1 to 7
// bytes, whole words, writes that complete a waiting tail and writes that
// do not. Sum leaves the stream as it was, and Reset starts it over.
func TestStreamEqualsHashData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 200)
	rng.Read(data)
	fixed := [][]int{
		{},
		{0, 0, 0},
		{1}, {7}, {8}, {9}, {16}, {24, 0, 8},
		{3, 5}, {1, 1, 1, 1, 1, 1, 1, 1, 1},
		{7, 1, 7, 1}, {5, 0, 6, 0, 13}, {64, 64, 72},
	}
	for _, suite := range []Suite{FastSuite{}, Ed25519Suite{}} {
		h := suite.NewHash()
		if h.Size() != HashSize {
			t.Fatalf("%T: stream size %d", suite, h.Size())
		}
		check := func(chunks []int) {
			t.Helper()
			h.Reset()
			off := 0
			for _, c := range chunks {
				h.Write(data[off : off+c])
				off += c
				if got, want := h.Sum(nil), suite.HashData(data[:off]); !bytes.Equal(got, want) {
					t.Fatalf("%T: chunks %v, after %d bytes: stream %x, HashData %x", suite, chunks, off, got[:8], want[:8])
				}
			}
			if got, want := h.Sum([]byte{0xAB}), append([]byte{0xAB}, suite.HashData(data[:off])...); !bytes.Equal(got, want) {
				t.Fatalf("%T: chunks %v: Sum does not append to its argument", suite, chunks)
			}
		}
		for _, chunks := range fixed {
			check(chunks)
		}
		for range 200 {
			var chunks []int
			for left := rng.Intn(len(data) + 1); left > 0; {
				c := min(left, rng.Intn(20))
				chunks = append(chunks, c)
				left -= c
			}
			check(chunks)
		}
	}
}

func TestVerifyRejectsMalformedInputs(t *testing.T) {
	suites := []Suite{Ed25519Suite{}, FastSuite{}}
	for _, s := range suites {
		if s.Verify(nil, []byte("m"), make([]byte, SignatureSize)) {
			t.Fatalf("%T verified with nil key", s)
		}
		if s.Verify(make([]byte, PublicKeySize), []byte("m"), nil) {
			t.Fatalf("%T verified with nil signature", s)
		}
		if s.Verify(make([]byte, 5), []byte("m"), make([]byte, SignatureSize)) && s == Suite(Ed25519Suite{}) {
			t.Fatalf("%T verified with short key", s)
		}
	}
}

// Property: for both suites, any (id, message) signs and verifies, and the
// signature never verifies under a different id's key.
func TestQuickSignVerifyProperty(t *testing.T) {
	fast := FastSuite{}
	f := func(id uint8, msg []byte) bool {
		kp := FastKeyPair(int(id))
		sig := fast.Sign(kp, msg)
		if !fast.Verify(kp.Public, msg, sig) {
			return false
		}
		other := FastKeyPair(int(id) + 1)
		return !fast.Verify(other.Public, msg, sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEd25519Sign(b *testing.B) {
	kp := GenerateKeyPair(rand.New(rand.NewSource(1)))
	suite := Ed25519Suite{}
	msg := make([]byte, 438)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		suite.Sign(kp, msg)
	}
}

func BenchmarkEd25519Verify(b *testing.B) {
	kp := GenerateKeyPair(rand.New(rand.NewSource(1)))
	suite := Ed25519Suite{}
	msg := make([]byte, 438)
	sig := suite.Sign(kp, msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		suite.Verify(kp.Public, msg, sig)
	}
}

func BenchmarkFastVerify(b *testing.B) {
	kp := FastKeyPair(1)
	suite := FastSuite{}
	msg := make([]byte, 438)
	sig := suite.Sign(kp, msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		suite.Verify(kp.Public, msg, sig)
	}
}
