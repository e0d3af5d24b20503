package codec

import (
	"bytes"
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
	f.Add(batchDeclaringSize(wire.MaxElementSize))
	f.Add(batchDeclaringSize(wire.MaxElementSize + 1))
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
