// Package codec provides the deterministic binary encoding of Setchain
// batches: their elements and epoch-proofs. The full-fidelity code path
// uses it to turn batches into the byte strings that get compressed
// (Compresschain) or hashed (Hashchain), and to reconstruct them on the
// receiving side. Encodings are length-prefixed, little-endian, and
// contain no maps, so they are byte-for-byte reproducible — a requirement
// for hashing batches and epochs consistently across servers.
//
// See DESIGN.md §1 (fidelity substitutions).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Encoding errors.
var (
	ErrTruncated = errors.New("codec: truncated input")
	ErrTooLarge  = errors.New("codec: length prefix exceeds limit")
)

// maxLen bounds any single length prefix to defend against corrupt or
// hostile inputs blowing up allocations.
const maxLen = 1 << 28 // 256 MiB

type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || n > maxLen {
		return nil, ErrTooLarge
	}
	if r.remaining() < n {
		return nil, ErrTruncated
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) uint64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *reader) uint32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) lenBytes() ([]byte, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	return r.bytes(int(n))
}

func appendLenBytes(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// appendElement encodes e onto buf.
func appendElement(buf []byte, e *wire.Element) []byte {
	buf = append(buf, e.ID[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Client))
	buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Size))
	buf = appendLenBytes(buf, e.Payload())
	buf = appendLenBytes(buf, e.Sig())
	return buf
}

// decodeElement reads one element. Payload and signature are copied into
// one buffer, the payload capped at its own length, and the body is
// allocated with the element; an element with neither is a bare header.
func decodeElement(r *reader) (*wire.Element, error) {
	idb, err := r.bytes(16)
	if err != nil {
		return nil, err
	}
	var e wire.Element
	copy(e.ID[:], idb)
	client, err := r.uint64()
	if err != nil {
		return nil, err
	}
	e.Client = wire.ClientID(client)
	if e.Seq, err = r.uint64(); err != nil {
		return nil, err
	}
	size, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if size > wire.MaxElementSize {
		return nil, fmt.Errorf("%w: element size %d", ErrTooLarge, size)
	}
	e.Size = int32(size)
	payload, err := r.lenBytes()
	if err != nil {
		return nil, err
	}
	sig, err := r.lenBytes()
	if err != nil {
		return nil, err
	}
	if len(payload) == 0 && len(sig) == 0 {
		bare := e
		return &bare, nil
	}
	body := append(append(make([]byte, 0, len(payload)+len(sig)), payload...), sig...)
	return e.WithBody(body[:len(payload):len(payload)], body[len(payload):]), nil
}

// appendProof encodes an epoch-proof onto buf.
func appendProof(buf []byte, p *wire.EpochProof) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, p.Epoch)
	buf = appendLenBytes(buf, p.EpochHash)
	buf = appendLenBytes(buf, p.Sig)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Signer))
	return buf
}

func decodeProof(r *reader) (*wire.EpochProof, error) {
	var p wire.EpochProof
	var err error
	if p.Epoch, err = r.uint64(); err != nil {
		return nil, err
	}
	h, err := r.lenBytes()
	if err != nil {
		return nil, err
	}
	p.EpochHash = append([]byte(nil), h...)
	sig, err := r.lenBytes()
	if err != nil {
		return nil, err
	}
	p.Sig = append([]byte(nil), sig...)
	signer, err := r.uint64()
	if err != nil {
		return nil, err
	}
	p.Signer = wire.NodeID(signer)
	return &p, nil
}

// EncodeBatch serializes a batch (elements then proofs) deterministically.
// This is the byte string Compresschain compresses and Hashchain hashes.
func EncodeBatch(b *wire.Batch) []byte {
	buf := make([]byte, 0, b.RawSize()+16)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Elements)))
	for _, e := range b.Elements {
		buf = appendElement(buf, e)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Proofs)))
	for _, p := range b.Proofs {
		buf = appendProof(buf, p)
	}
	return buf
}

// DecodeBatch reverses EncodeBatch.
func DecodeBatch(data []byte) (*wire.Batch, error) {
	r := &reader{buf: data}
	nel, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if int(nel) > maxLen {
		return nil, ErrTooLarge
	}
	b := &wire.Batch{}
	for i := 0; i < int(nel); i++ {
		e, err := decodeElement(r)
		if err != nil {
			return nil, fmt.Errorf("element %d: %w", i, err)
		}
		b.Elements = append(b.Elements, e)
	}
	np, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if int(np) > maxLen {
		return nil, ErrTooLarge
	}
	for i := 0; i < int(np); i++ {
		p, err := decodeProof(r)
		if err != nil {
			return nil, fmt.Errorf("proof %d: %w", i, err)
		}
		b.Proofs = append(b.Proofs, p)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("codec: %d trailing bytes", r.remaining())
	}
	return b, nil
}
