// Package wire defines the domain objects the Setchain algorithms exchange:
// client elements, epoch-proofs, hash-batches, batches and the ledger
// transaction envelope. Every object knows its exact wire size, which is
// what ledger block packing, mempool capacity and network bandwidth
// accounting operate on; in modeled mode the payload bytes themselves can
// be omitted while size accounting stays exact.
//
// See DESIGN.md §6 (performance engineering: keys built once).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/setcrypto"
)

// NodeID identifies a Setchain/ledger server (0..n-1).
type NodeID int

// ClientID identifies a client process. Clients use ids disjoint from
// server ids in the PKI registry (servers are 0..n-1; clients n, n+1, ...).
type ClientID int

// ElementID is the unique identity of a Setchain element (the hash prefix
// of its content in full mode, or a generator-assigned unique id in modeled
// mode).
type ElementID [16]byte

// String renders the id as hex for logs.
func (id ElementID) String() string { return fmt.Sprintf("%x", id[:8]) }

// NewElementID is the one definition of how a client names its elements:
// the client id in the first eight bytes, the client's sequence number in
// the last eight, both little-endian. A client's ids are therefore
// consecutive integers in the low word — the density IDMap's pages are built
// around, which idmap_test.go pins.
func NewElementID(client ClientID, seq uint64) ElementID {
	var id ElementID
	binary.LittleEndian.PutUint64(id[0:8], uint64(client))
	binary.LittleEndian.PutUint64(id[8:16], seq)
	return id
}

// Wire size constants measured by the paper's evaluation (§4): an
// epoch-proof and a hash-batch are each 139 bytes on the ledger; the
// average Arbitrum element is 438 bytes.
const (
	EpochProofWireSize = 139
	HashBatchWireSize  = 139
	ElementHeaderSize  = 16 + 8 + 8 + 4 // id + client + seq + length prefix
)

// MaxElementSize is the largest wire size an element can declare: Size is
// 32 bits wide, and the codec, spec validation and the public API refuse
// anything larger rather than wrap it.
const MaxElementSize = math.MaxInt32

// Element is a Setchain element created and signed by a client. It is 48
// bytes with one pointer word: a Modeled-mode element is its id, its
// client, its sequence number and its wire size, and its body is nil.
type Element struct {
	ID     ElementID
	Client ClientID
	Seq    uint64
	body   *ElementBody
	Size   int32 // full wire size in bytes (header + payload + signature)

	// Bogus marks an element as invalid in modeled mode (where there is no
	// real signature to fail verification); Byzantine servers inject such
	// elements and correct servers must filter them. Always false for
	// elements created by correct clients.
	Bogus bool
}

// ElementBody is what a Full-mode element carries beyond its header. A body
// is never changed once an element holds it: copies of an Element share
// their body, so a changed copy gets a new one (WithBody).
type ElementBody struct {
	Payload []byte
	Sig     []byte // client signature
}

// Payload returns the element's payload; nil in Modeled mode.
func (e *Element) Payload() []byte {
	if e.body == nil {
		return nil
	}
	return e.body.Payload
}

// Sig returns the client's signature; nil in Modeled mode.
func (e *Element) Sig() []byte {
	if e.body == nil {
		return nil
	}
	return e.body.Sig
}

// WithBody returns a copy of e carrying payload and sig, allocated together
// with its body as one object.
func (e Element) WithBody(payload, sig []byte) *Element {
	p := &struct {
		e Element
		b ElementBody
	}{e, ElementBody{Payload: payload, Sig: sig}}
	p.e.body = &p.b
	return &p.e
}

// NewSignedElement returns the Full-mode element with hdr's id, client and
// sequence number carrying payload, signed by sign over its SigningBytes.
// The element and its body are one object; Size is the full wire size. A
// payload too large for MaxElementSize panics: callers taking outside input
// refuse it first.
func NewSignedElement(hdr Element, payload []byte, sign func(msg []byte) []byte) *Element {
	e := hdr.WithBody(payload, nil)
	e.body.Sig = sign(e.SigningBytes())
	size := ElementHeaderSize + len(payload) + len(e.body.Sig)
	if size > MaxElementSize {
		panic(fmt.Sprintf("wire: element of %d bytes exceeds MaxElementSize", size))
	}
	e.Size = int32(size)
	return e
}

// WireSize returns the element's size on the ledger/network.
func (e *Element) WireSize() int { return int(e.Size) }

// SigningBytes returns the byte string a client signs: the element header
// plus payload.
func (e *Element) SigningBytes() []byte {
	payload := e.Payload()
	buf := make([]byte, 0, ElementHeaderSize+len(payload))
	buf = append(buf, e.ID[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Client))
	buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return buf
}

// EpochProof is the cryptographic signature of an epoch by a server:
// p_v(i) = Sign_v(Hash(i, history[i])). Carrying the signer id lets clients
// look up the verification key in the PKI.
type EpochProof struct {
	Epoch     uint64
	EpochHash []byte // Hash(epoch number, epoch elements)
	Sig       []byte
	Signer    NodeID
}

// WireSize returns the proof's ledger footprint (139 bytes per the paper).
func (p *EpochProof) WireSize() int { return EpochProofWireSize }

// HashBatch is Hashchain's ledger transaction: the hash of a batch, signed
// by a server, with the signer's identity.
type HashBatch struct {
	Hash   []byte
	Sig    []byte
	Signer NodeID

	// Batch is the hashed batch, set by the origin only under Hashchain
	// Light, where it stands in for hash reversal (paper Fig. 2). It is not
	// on the wire: WireSize stays 139 whether it is set or not.
	Batch *Batch
}

// WireSize returns the hash-batch's ledger footprint (139 bytes).
func (hb *HashBatch) WireSize() int { return HashBatchWireSize }

// Batch is a collector's accumulated content: client elements plus
// epoch-proofs generated by this server since the last flush.
//
// A Batch's Elements are frozen from the moment the batch is hashed (or
// compressed): every server that receives the batch, and every epoch made
// of it, holds this very slice, not a copy (core's filter). Whatever changes
// a batch does so before that moment (a Byzantine server padding its own
// flush) or to a copy (a Byzantine server answering a request with an
// altered batch); nothing appends to or writes into Elements afterwards.
type Batch struct {
	Elements []*Element
	Proofs   []*EpochProof
}

// RawSize returns the uncompressed wire size of the batch content.
func (b *Batch) RawSize() int {
	s := 0
	for _, e := range b.Elements {
		s += e.WireSize()
	}
	s += len(b.Proofs) * EpochProofWireSize
	return s
}

// Len returns the number of items (elements + proofs) in the batch.
func (b *Batch) Len() int { return len(b.Elements) + len(b.Proofs) }

// Empty reports whether the batch holds nothing.
func (b *Batch) Empty() bool { return b.Len() == 0 }

// CompressedBatch is Compresschain's ledger transaction: a batch compressed
// into a single blob. In full mode Data holds the real compressed bytes; in
// modeled mode Data is nil, Original points at the batch, and CompSize was
// computed from the modeled compression ratio.
type CompressedBatch struct {
	Data     []byte
	CompSize int
	Origin   NodeID
	Seq      uint64 // per-origin sequence number, part of the dedup key

	// Original carries the decoded batch in modeled mode (no real
	// compression) so FinalizeBlock can "decompress" it; nil in full mode.
	Original *Batch
}

// WireSize returns the compressed size that lands on the ledger.
func (cb *CompressedBatch) WireSize() int { return cb.CompSize }

// TxKind discriminates ledger transaction payloads.
type TxKind uint8

// Transaction kinds appearing on the block-based ledger across the three
// algorithms.
const (
	TxElement         TxKind = iota + 1 // Vanilla: a bare client element
	TxProof                             // Vanilla: a bare epoch-proof
	TxCompressedBatch                   // Compresschain: one compressed batch
	TxHashBatch                         // Hashchain: one signed batch hash
)

// String implements fmt.Stringer for diagnostics.
func (k TxKind) String() string {
	switch k {
	case TxElement:
		return "element"
	case TxProof:
		return "proof"
	case TxCompressedBatch:
		return "compressed-batch"
	case TxHashBatch:
		return "hash-batch"
	default:
		return fmt.Sprintf("TxKind(%d)", uint8(k))
	}
}

// Tx is the ledger transaction envelope: Kind names the one payload field
// that is set. The constructors (NewElementTx, NewProofTx, NewCompressedTx,
// NewHashBatchTx) give exactly that and build the dedup key once, where the
// transaction is built; a literal &Tx{Kind: …, …: …} is the same transaction
// with the key built on every MapKey call. A Tx whose Kind is unknown or
// whose named payload is nil is malformed: its key is the zero TxKey and its
// wire size is 0, and a mempool refuses it before CheckTx sees it.
//
// A *Tx is immutable once built and is shared by every server's pool and
// block, which is why key is written by the constructors only and never
// filled in lazily by a reader.
type Tx struct {
	Kind       TxKind
	Element    *Element
	Proof      *EpochProof
	Compressed *CompressedBatch
	HashBatch  *HashBatch

	key TxKey // zero unless a constructor built the Tx
}

// NewElementTx wraps a client element as Vanilla's ledger transaction.
func NewElementTx(e *Element) *Tx { return newTx(Tx{Kind: TxElement, Element: e}) }

// NewProofTx wraps an epoch-proof as Vanilla's ledger transaction.
func NewProofTx(p *EpochProof) *Tx { return newTx(Tx{Kind: TxProof, Proof: p}) }

// NewCompressedTx wraps a compressed batch as Compresschain's ledger
// transaction.
func NewCompressedTx(cb *CompressedBatch) *Tx {
	return newTx(Tx{Kind: TxCompressedBatch, Compressed: cb})
}

// NewHashBatchTx wraps a signed batch hash as Hashchain's ledger
// transaction.
func NewHashBatchTx(hb *HashBatch) *Tx { return newTx(Tx{Kind: TxHashBatch, HashBatch: hb}) }

func newTx(tx Tx) *Tx {
	tx.key = tx.buildKey()
	return &tx
}

// WireSize returns the transaction's ledger footprint, 0 for a malformed
// transaction.
func (tx *Tx) WireSize() int {
	switch {
	case tx.Kind == TxElement && tx.Element != nil:
		return tx.Element.WireSize()
	case tx.Kind == TxProof && tx.Proof != nil:
		return tx.Proof.WireSize()
	case tx.Kind == TxCompressedBatch && tx.Compressed != nil:
		return tx.Compressed.WireSize()
	case tx.Kind == TxHashBatch && tx.HashBatch != nil:
		return tx.HashBatch.WireSize()
	default:
		return 0
	}
}

// TxKeyHashPrefix is how many leading bytes of a batch hash a hash-batch's
// TxKey keeps: 176 bits, above the 160 a collision-resistant prefix of a
// full-mode SHA-512 needs, and well past the first 8-byte word that holds
// all the entropy a FastSuite digest has.
const TxKeyHashPrefix = 22

// TxKey is the comparable dedup identity of a ledger transaction, packed
// into 32 bytes so the mempool's index and the metrics maps never build
// string keys on the hot path. The layout has no padding and no pointers
// (wire_test.go pins both), which is what lets Go hash and compare it as
// plain memory instead of through a generated per-field routine, and lets
// the garbage collector skip a table keyed by it. CometBFT keys its mempool
// cache the same way, by the 32-byte sha256 of the transaction. The fields
// are unexported and Tx.buildKey is the only code that fills them: the Tx
// constructors call it once, MapKey calls it for a Tx built by literal. The
// zero TxKey belongs to no well-formed transaction (kind is at least 1).
//
// kind discriminates how the other fields are filled:
//
//	element           h[:16] = id
//	proof             a = epoch,  h[:8] = signer (little-endian)
//	compressed batch  a = origin, h[:8] = seq (little-endian)
//	hash-batch        a = signer, n = hash length, h = hash[:TxKeyHashPrefix]
//
// The first three are exact: every identifying field is stored whole, so
// distinct transactions have distinct keys. A hash-batch is identified by
// its signer, its hash length (capped at setcrypto.HashSize, the length of
// every real batch hash) and the hash prefix; the signer stays in the key,
// so a Byzantine sender that grinds a shared prefix can only shadow its own
// hash-batches. Code that needs the whole hash compares it whole
// (Hashchain's batch records).
type TxKey struct {
	a    uint64
	h    [TxKeyHashPrefix]byte
	n    uint8
	kind TxKind
}

// IsZero reports whether k is the zero TxKey, the key of a malformed
// transaction. buildKey sets a non-zero kind or nothing at all, so the kind
// byte decides.
func (k TxKey) IsZero() bool { return k.kind == 0 }

// Words returns the key's 32 bytes as four little-endian words, for a table
// that hashes keys itself. Sequential element ids and proof epochs differ in
// one word only — which one depends on the kind — so a hash has to mix all
// four.
func (k *TxKey) Words() (w0, w1, w2, w3 uint64) {
	w3 = uint64(binary.LittleEndian.Uint32(k.h[16:20])) | uint64(binary.LittleEndian.Uint16(k.h[20:22]))<<32 |
		uint64(k.n)<<48 | uint64(k.kind)<<56
	return k.a, binary.LittleEndian.Uint64(k.h[0:8]), binary.LittleEndian.Uint64(k.h[8:16]), w3
}

// MapKey returns the transaction's comparable dedup key: the one a
// constructor stored, or for a literal-built Tx the same key built now.
func (tx *Tx) MapKey() TxKey {
	if !tx.key.IsZero() {
		return tx.key
	}
	return tx.buildKey()
}

// buildKey is the one place a TxKey is filled in.
func (tx *Tx) buildKey() TxKey {
	k := TxKey{kind: tx.Kind}
	switch {
	case tx.Kind == TxElement && tx.Element != nil:
		copy(k.h[:], tx.Element.ID[:])
	case tx.Kind == TxProof && tx.Proof != nil:
		k.a = tx.Proof.Epoch
		binary.LittleEndian.PutUint64(k.h[:], uint64(tx.Proof.Signer))
	case tx.Kind == TxCompressedBatch && tx.Compressed != nil:
		k.a = uint64(tx.Compressed.Origin)
		binary.LittleEndian.PutUint64(k.h[:], tx.Compressed.Seq)
	case tx.Kind == TxHashBatch && tx.HashBatch != nil:
		k.a = uint64(tx.HashBatch.Signer)
		k.n = uint8(min(len(tx.HashBatch.Hash), setcrypto.HashSize))
		copy(k.h[:], tx.HashBatch.Hash)
	default:
		return TxKey{}
	}
	return k
}

// AppendKey appends an unambiguous binary form of the transaction's dedup
// identity to buf and returns the extended slice. Consensus hashes proposal
// contents through this instead of allocating one string per transaction.
// Every record is self-delimiting: a kind byte, fixed-width fields, and a
// length prefix before the only variable-length field (the batch hash).
func (tx *Tx) AppendKey(buf []byte) []byte {
	buf = append(buf, byte(tx.Kind))
	switch tx.Kind {
	case TxElement:
		buf = append(buf, tx.Element.ID[:]...)
	case TxProof:
		buf = binary.LittleEndian.AppendUint64(buf, tx.Proof.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(tx.Proof.Signer))
	case TxCompressedBatch:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(tx.Compressed.Origin))
		buf = binary.LittleEndian.AppendUint64(buf, tx.Compressed.Seq)
	case TxHashBatch:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(tx.HashBatch.Signer))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tx.HashBatch.Hash)))
		buf = append(buf, tx.HashBatch.Hash...)
	}
	return buf
}

// Block is a finalized ledger block: an ordered sequence of transactions.
//
// CkptEpoch and CkptFold bind the proposer's sealed checkpoint chain into
// the header: CkptEpoch is the latest sealed checkpoint epoch (0 before
// any seal) and CkptFold is checkpoint.FoldChain over the chain through
// that epoch. Both feed the block id, so the 2f+1 commit certificate
// covers them — a state-syncing node verifies a peer snapshot's chain
// against a certified header instead of trusting the peer (DESIGN.md §15).
type Block struct {
	Height    uint64
	Proposer  NodeID
	Txs       []*Tx
	Bytes     int    // sum of tx wire sizes
	CkptEpoch uint64 // latest sealed checkpoint epoch at propose time
	CkptFold  uint64 // checkpoint chain fold through CkptEpoch
}

// AppendEpochHashInput appends to dst the canonical byte string hashed to
// identify an epoch: the epoch number followed by the ids of its elements
// in ledger order. All correct servers derive identical input for the same
// epoch, which is what makes epoch-proofs comparable across servers.
func AppendEpochHashInput(dst []byte, epoch uint64, elems []*Element) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	for _, e := range elems {
		dst = append(dst, e.ID[:]...)
	}
	return dst
}

// EpochHashInput is AppendEpochHashInput into a fresh buffer, for callers
// with no scratch buffer of their own to reuse.
func EpochHashInput(epoch uint64, elems []*Element) []byte {
	return AppendEpochHashInput(make([]byte, 0, 8+len(elems)*16), epoch, elems)
}

// VerifyEpochProof checks an epoch-proof against the expected epoch hash
// using the signer's registered public key.
func VerifyEpochProof(suite setcrypto.Suite, reg *setcrypto.Registry, p *EpochProof, expectedHash []byte) bool {
	if p == nil || len(expectedHash) == 0 {
		return false
	}
	if len(p.EpochHash) != len(expectedHash) {
		return false
	}
	for i := range expectedHash {
		if p.EpochHash[i] != expectedHash[i] {
			return false
		}
	}
	pub := reg.Lookup(int(p.Signer))
	if pub == nil {
		return false
	}
	return suite.Verify(pub, p.EpochHash, p.Sig)
}
