package codec

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/wire"
)

// FuzzDecodeBatch throws arbitrary bytes at the batch decoder; it must
// never panic, and anything it accepts must re-encode to the same bytes
// (decode-encode fixpoint on valid inputs).
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	rng := rand.New(rand.NewSource(1))
	b := &wire.Batch{Elements: []*wire.Element{randElement(rng)},
		Proofs: []*wire.EpochProof{randProof(rng)}}
	f.Add(EncodeBatch(b))
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeBatch(batch), data) {
			t.Fatalf("accepted input is not an encode fixpoint")
		}
	})
}

// FuzzTxCodecRoundTrip drives the encoder from structured inputs: every
// transaction kind, built from arbitrary field values, must encode, decode
// back to a semantically identical object, and re-encode to the same
// bytes. This is the constructive complement of the random-bytes decoders
// below — it explores the valid-input space (huge payloads, zero-length
// signatures, extreme ids) instead of the rejection paths.
func FuzzTxCodecRoundTrip(f *testing.F) {
	f.Add(uint8(wire.TxElement), int64(3), uint64(9), 438, []byte("payload"), []byte("sig"))
	f.Add(uint8(wire.TxProof), int64(-1), uint64(0), 0, []byte{}, []byte{})
	f.Add(uint8(wire.TxCompressedBatch), int64(2), uint64(7), 139, []byte("deflate"), []byte(nil))
	f.Add(uint8(wire.TxHashBatch), int64(5), uint64(1), 64, []byte("hash"), []byte("s"))
	for _, n := range []int{0, wire.TxKeyHashPrefix, wire.DigestSize, wire.DigestSize + 36} {
		f.Add(uint8(wire.TxHashBatch), int64(5), uint64(1), 64, bytes.Repeat([]byte{7}, n), []byte("s"))
	}
	f.Fuzz(func(t *testing.T, kind uint8, id int64, seq uint64, size int, blobA, blobB []byte) {
		var tx *wire.Tx
		switch wire.TxKind(kind) {
		case wire.TxElement:
			e := &wire.Element{Client: wire.ClientID(id), Seq: seq, Size: size,
				Payload: blobA, Sig: blobB}
			binary.LittleEndian.PutUint64(e.ID[:], seq)
			tx = &wire.Tx{Kind: wire.TxElement, Element: e}
		case wire.TxProof:
			tx = &wire.Tx{Kind: wire.TxProof, Proof: &wire.EpochProof{
				Epoch: seq, EpochHash: blobA, Sig: blobB, Signer: wire.NodeID(id)}}
		case wire.TxCompressedBatch:
			tx = &wire.Tx{Kind: wire.TxCompressedBatch, Compressed: &wire.CompressedBatch{
				Data: blobA, CompSize: size, Origin: wire.NodeID(id), Seq: seq}}
		case wire.TxHashBatch:
			tx = &wire.Tx{Kind: wire.TxHashBatch, HashBatch: &wire.HashBatch{
				Hash: blobA, Sig: blobB, Signer: wire.NodeID(id)}}
		default:
			return // not a valid kind; EncodeTx rejecting it is tested elsewhere
		}
		enc, err := EncodeTx(tx)
		if err != nil {
			t.Fatalf("valid tx failed to encode: %v", err)
		}
		dec, err := DecodeTx(enc)
		if err != nil {
			t.Fatalf("encoded tx failed to decode: %v", err)
		}
		re, err := EncodeTx(dec)
		if err != nil {
			t.Fatalf("decoded tx failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, enc) {
			t.Fatalf("round trip not stable:\nfirst:  %x\nsecond: %x", enc, re)
		}
		if dec.Kind != tx.Kind {
			t.Fatalf("kind changed: %d -> %d", tx.Kind, dec.Kind)
		}
		if dec.MapKey() != tx.MapKey() {
			t.Fatalf("dedup key changed: %v -> %v", tx.MapKey(), dec.MapKey())
		}
	})
}

// FuzzDecodeTx does the same for the transaction envelope.
func FuzzDecodeTx(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	enc, _ := EncodeTx(&wire.Tx{Kind: wire.TxElement, Element: randElement(rng)})
	f.Add(enc)
	f.Add([]byte{byte(wire.TxHashBatch)})
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, err := DecodeTx(data)
		if err != nil {
			return
		}
		re, err := EncodeTx(tx)
		if err != nil {
			t.Fatalf("decoded tx failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted input is not an encode fixpoint")
		}
	})
}
