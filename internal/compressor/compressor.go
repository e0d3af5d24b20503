// Package compressor provides the batch compression used by Compresschain.
//
// The paper compresses batches with Brotli (RFC 7932) and reports measured
// compression ratios of ~2.7 (collector size 100) to ~3.5 (collector size
// 500) on Arbitrum transactions. Brotli is not in the Go standard library,
// so this repo substitutes:
//
//   - Deflate: real compression via compress/flate. Exercises the true
//     compress → ledger → decompress → validate code path; ratios depend on
//     payload entropy.
//   - Modeled: no byte-level work; the compressed size is computed from the
//     paper's measured ratio for the batch's collector size, and the
//     original batch rides alongside for the "decompression" step. Used by
//     the large virtual-time simulations, where the byte-accounting (not
//     the codec) is what the evaluation measures. CPU cost of compression
//     and decompression is charged separately via the cost model.
//
// The substitution is documented in DESIGN.md §1 (fidelity substitutions).
package compressor

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
)

// ErrCorrupt reports undecodable compressed input.
var ErrCorrupt = errors.New("compressor: corrupt input")

// Deflate is the real, stdlib compressor, at flate's default level.
type Deflate struct{}

// Compress returns the compressed form of data.
func (Deflate) Compress(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DeflateBound is the most Deflate.Compress returns for n input bytes.
// Deflate never codes a block larger than storing it, which costs 5 bytes
// of header per block of at least 16 KiB (or the whole tail); n/1024 + 64
// covers that with room to spare.
func DeflateBound(n int) int { return n + n/1024 + 64 }

// Decompress reverses Compress.
func (Deflate) Decompress(blob []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(blob))
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return out, nil
}

// The paper's measured compression ratios (§4): r ≈ 2.7 at c=100 growing
// to ≈ 3.5 at c=500, because larger batches give the compressor more
// shared context.
const (
	ratioAt100 = 2.7
	ratioAt500 = 3.5
)

// Ratio returns the modeled compression ratio for a batch of n items: a
// linear interpolation in the collector size between the paper's two
// anchors, clamped to the nearest anchor outside [100,500].
func Ratio(n int) float64 {
	switch {
	case n <= 100:
		return ratioAt100
	case n >= 500:
		return ratioAt500
	default:
		// Subtract in float64 at run time: the untyped constant
		// ratioAt500-ratioAt100 would fold to exactly 0.8 and move every
		// modeled size (and run digest) of a 101–499-item batch.
		lo, hi := ratioAt100, ratioAt500
		frac := float64(n-100) / 400.0
		return lo + frac*(hi-lo)
	}
}

// CompressedSize returns the modeled on-ledger size for a batch of n items
// with the given raw byte size. A minimum of 64 bytes models framing
// overhead on tiny batches.
func CompressedSize(n, rawSize int) int {
	size := int(float64(rawSize) / Ratio(n))
	if size < 64 {
		size = 64
	}
	return size
}
