// Package setcrypto provides the cryptographic substrate the paper assumes:
// a deployed PKI (every process knows every other process's public key),
// ed25519 signatures (the EdDSA family the paper uses) and SHA-512 hashing
// (FIPS 180-4, as in the paper's evaluation).
//
// Two suites are provided. Ed25519Suite performs real signing, verification
// and hashing and is used by the full-fidelity code path (unit tests,
// examples, small benchmarks). FastSuite produces deterministic 64-byte
// tags from an FNV-seeded wordwise hash; it is used by the large virtual-time
// simulations, where cryptographic CPU cost is charged to the simulated
// CPU via the cost model instead of being burned for real (see
// core.CostModel and DESIGN.md §1, fidelity substitutions).
package setcrypto

import (
	"crypto/ed25519"
	"crypto/sha512"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
)

// Sizes of the cryptographic artifacts on the wire, matching the paper's
// reported lengths (SHA-512 digests and ed25519 signatures).
const (
	HashSize      = sha512.Size           // 64 bytes
	SignatureSize = ed25519.SignatureSize // 64 bytes
	PublicKeySize = ed25519.PublicKeySize // 32 bytes
)

// Suite bundles the primitives the Setchain algorithms need. Hash is
// SHA-512 shaped (64-byte digests) in both implementations so wire sizes
// are identical regardless of suite.
type Suite interface {
	// Sign signs msg with the private key of the given signer.
	Sign(signer KeyPair, msg []byte) []byte
	// Verify reports whether sig is a valid signature of msg under pub.
	Verify(pub PublicKey, msg []byte, sig []byte) bool
	// HashData returns the 64-byte digest of the concatenation of chunks.
	HashData(chunks ...[]byte) []byte
	// NewHash returns HashData in streaming form: its sum over the bytes
	// written so far equals HashData of their concatenation as one chunk,
	// wherever the writes split them.
	NewHash() hash.Hash
}

// PublicKey is an opaque verification key.
type PublicKey []byte

// KeyPair holds a signing key and its public half.
type KeyPair struct {
	Public  PublicKey
	private []byte
}

// Registry is the PKI: it maps process indices (servers 0..n-1 and any
// number of clients) to their public keys. The paper assumes all processes
// know all public keys upfront. Ids are dense — servers, then clients, from
// zero up (core.RegisterClientKey) — so the keys live in a slice indexed by
// id: every signature check reads one.
type Registry struct {
	keys []PublicKey // keys[id], nil where no key is registered
}

// NewRegistry returns an empty PKI registry.
func NewRegistry() *Registry { return &Registry{} }

// Register records the public key for a process id, replacing any previous
// key for that id. The id must be non-negative.
func (r *Registry) Register(id int, pub PublicKey) {
	if id < 0 {
		panic(fmt.Sprintf("setcrypto: registering negative process id %d", id))
	}
	if id >= len(r.keys) {
		r.keys = append(r.keys, make([]PublicKey, id+1-len(r.keys))...)
	}
	r.keys[id] = pub
}

// Lookup returns the public key for id, or nil if unknown — also for an id
// that is negative or past every registered one.
func (r *Registry) Lookup(id int) PublicKey {
	if uint(id) >= uint(len(r.keys)) {
		return nil
	}
	return r.keys[id]
}

// Ed25519Suite is the real-cryptography suite.
type Ed25519Suite struct{}

// GenerateKeyPair creates an ed25519 keypair from the deterministic rng so
// simulations with the same seed use the same keys.
func GenerateKeyPair(rng *rand.Rand) KeyPair {
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(rng.Intn(256))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return KeyPair{Public: PublicKey(priv.Public().(ed25519.PublicKey)), private: priv}
}

// Sign implements Suite.
func (Ed25519Suite) Sign(signer KeyPair, msg []byte) []byte {
	if len(signer.private) != ed25519.PrivateKeySize {
		panic(fmt.Sprintf("setcrypto: signing with a non-ed25519 key (len %d)", len(signer.private)))
	}
	return ed25519.Sign(ed25519.PrivateKey(signer.private), msg)
}

// Verify implements Suite.
func (Ed25519Suite) Verify(pub PublicKey, msg []byte, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), msg, sig)
}

// HashData implements Suite using SHA-512.
func (Ed25519Suite) HashData(chunks ...[]byte) []byte {
	h := sha512.New()
	for _, c := range chunks {
		h.Write(c)
	}
	return h.Sum(nil)
}

// NewHash implements Suite: SHA-512 is a stream already.
func (Ed25519Suite) NewHash() hash.Hash { return sha512.New() }

// FastSuite is a non-cryptographic stand-in with identical artifact sizes.
// A "signature" is a 64-byte tag binding (key, msg) through a seeded
// multiply-rotate word hash; forging it would be trivial for a real
// adversary, but inside the simulation the only adversaries are the
// Byzantine behaviors we inject ourselves, and those are modeled at the
// protocol level (core.Behavior), not at the bit level. Its purpose is
// to keep large simulations cheap while the cost model charges realistic
// crypto time to the virtual CPU. The hash consumes 8 input bytes per step
// (versus FNV's one) and Verify checks the tag wordwise without
// materializing it, so sign/verify on the simulation hot path costs a few
// dozen nanoseconds and Verify does not allocate. The function is a fixed
// deterministic constant of the input — never seeded per process — so study
// results stay byte-identical across runs and machines.
type FastSuite struct{}

// FastKeyPair derives a FastSuite keypair for a process id.
func FastKeyPair(id int) KeyPair {
	pub := make([]byte, PublicKeySize)
	binary.LittleEndian.PutUint64(pub, uint64(id)+0x9E3779B97F4A7C15)
	priv := make([]byte, 8)
	binary.LittleEndian.PutUint64(priv, uint64(id)+1)
	return KeyPair{Public: pub, private: priv}
}

// fastHash mixing constants (splitmix64 / xxhash-style odd primes).
const (
	fastPrime1 = 0x9E3779B97F4A7C15
	fastPrime2 = 0xC2B2AE3D27D4EB4F
	fastSeed   = 0xCBF29CE484222325 // FNV offset basis, kept as the seed
)

// fastMix absorbs one 64-bit word into the running state.
func fastMix(h, v uint64) uint64 {
	h ^= v * fastPrime1
	h = (h<<31 | h>>33) * fastPrime2
	return h
}

// fastAbsorb hashes data into h, 8 bytes per step.
func fastAbsorb(h uint64, data []byte) uint64 {
	for len(data) >= 8 {
		h = fastMix(h, binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	if len(data) > 0 {
		var tail [8]byte
		copy(tail[:], data)
		h = fastMix(h, binary.LittleEndian.Uint64(tail[:])^uint64(len(data)))
	}
	return h
}

// fastFinal scrambles the state so low-entropy inputs spread over all bits.
func fastFinal(h uint64) uint64 {
	h ^= h >> 33
	h *= fastPrime1
	h ^= h >> 29
	h *= fastPrime2
	h ^= h >> 32
	return h
}

// fastTagBase derives the 64-bit base of the (key, msg) tag.
func fastTagBase(key []byte, msg []byte) uint64 {
	h := fastAbsorb(uint64(fastSeed), key)
	h = fastAbsorb(h, msg)
	return fastFinal(h)
}

// tagWord expands the base into the i-th 8-byte word of the 64-byte tag.
func tagWord(base uint64, i int) uint64 {
	return base ^ uint64(i)*fastPrime1
}

// Sign implements Suite.
func (FastSuite) Sign(signer KeyPair, msg []byte) []byte {
	base := fastTagBase(signer.Public, msg)
	tag := make([]byte, SignatureSize)
	for i := 0; i < SignatureSize/8; i++ {
		binary.LittleEndian.PutUint64(tag[i*8:], tagWord(base, i))
	}
	return tag
}

// Verify implements Suite. It recomputes the tag base and compares the
// signature wordwise, allocating nothing — Verify dominates the simulation
// hot path (mempool CheckTx on every node, consensus vote checks, hash-batch
// co-sign verification).
func (FastSuite) Verify(pub PublicKey, msg []byte, sig []byte) bool {
	if len(sig) != SignatureSize {
		return false
	}
	base := fastTagBase(pub, msg)
	for i := 0; i < SignatureSize/8; i++ {
		if binary.LittleEndian.Uint64(sig[i*8:]) != tagWord(base, i) {
			return false
		}
	}
	return true
}

// HashData implements Suite with a 64-byte digest derived from the word
// hash, preserving SHA-512's wire size. Chunk boundaries are absorbed into
// the state so reslicing the same bytes differently yields distinct
// digests, mirroring a real hash over a length-prefixed encoding.
func (FastSuite) HashData(chunks ...[]byte) []byte {
	h := uint64(fastSeed)
	for _, c := range chunks {
		h = fastAbsorb(h, c)
		h = fastMix(h, uint64(len(c)))
	}
	return appendFastDigest(make([]byte, 0, HashSize), fastFinal(h))
}

// appendFastDigest appends the 64-byte digest expanded from a finalized
// word-hash state.
func appendFastDigest(dst []byte, base uint64) []byte {
	for i := 0; i < HashSize/8; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, base+uint64(i)*fastPrime1)
	}
	return dst
}

// NewHash implements Suite.
func (FastSuite) NewHash() hash.Hash {
	s := &fastStream{}
	s.Reset()
	return s
}

// fastStream is FastSuite.HashData over one chunk, absorbed as it is
// written: whole words go into the state at once, and the bytes of a word
// split across writes wait in tail (at most 7 of them) until it completes.
type fastStream struct {
	h    uint64
	tail [8]byte
	nt   int    // bytes waiting in tail
	n    uint64 // bytes written since Reset
}

func (s *fastStream) Write(p []byte) (int, error) {
	written := len(p)
	s.n += uint64(written)
	if s.nt > 0 {
		c := copy(s.tail[s.nt:], p)
		if s.nt += c; s.nt < 8 {
			return written, nil
		}
		s.h = fastMix(s.h, binary.LittleEndian.Uint64(s.tail[:]))
		s.nt, p = 0, p[c:]
	}
	for len(p) >= 8 {
		s.h = fastMix(s.h, binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	s.nt = copy(s.tail[:], p)
	return written, nil
}

// Sum appends the digest of the bytes written so far, without changing
// the stream: the waiting tail is absorbed zero-padded and tagged with its
// length, then the total length, exactly as HashData absorbs one chunk.
func (s *fastStream) Sum(b []byte) []byte {
	h := s.h
	if s.nt > 0 {
		var tail [8]byte
		copy(tail[:], s.tail[:s.nt])
		h = fastMix(h, binary.LittleEndian.Uint64(tail[:])^uint64(s.nt))
	}
	return appendFastDigest(b, fastFinal(fastMix(h, s.n)))
}

func (s *fastStream) Reset()         { *s = fastStream{h: fastSeed} }
func (s *fastStream) Size() int      { return HashSize }
func (s *fastStream) BlockSize() int { return 8 }
