package consensus

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/setcrypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// blockTxsOfEveryKind returns a block's worth of transactions of all four
// kinds, hash-batches with hashes of 64 bytes, of 65 and of 3.
func blockTxsOfEveryKind() []*wire.Tx {
	var txs []*wire.Tx
	for i := range 5 {
		e := &wire.Element{Client: wire.ClientID(i), Seq: uint64(i), Size: 438}
		e.ID[0], e.ID[15] = byte(i), 0x5A
		txs = append(txs,
			wire.NewElementTx(e),
			wire.NewProofTx(&wire.EpochProof{Epoch: uint64(i + 1), Signer: wire.NodeID(i)}),
			wire.NewCompressedTx(&wire.CompressedBatch{Origin: wire.NodeID(i), Seq: uint64(7 * i)}),
		)
		for _, n := range []int{setcrypto.HashSize, setcrypto.HashSize + 1, 3} {
			txs = append(txs, wire.NewHashBatchTx(&wire.HashBatch{
				Hash:   bytes.Repeat([]byte{byte(i + n)}, n),
				Signer: wire.NodeID(i),
			}))
		}
	}
	return txs
}

// blockID and valueID stream their input through the suite's hash one
// transaction key at a time; the ids must be the ones HashData gives over
// the whole input built in one buffer, for both suites, on empty blocks
// and on blocks of every transaction kind.
func TestIDsEqualBufferedHash(t *testing.T) {
	txs := blockTxsOfEveryKind()
	for _, suite := range []setcrypto.Suite{setcrypto.FastSuite{}, setcrypto.Ed25519Suite{}} {
		n := NewNode(0, []wire.NodeID{0}, sim.New(1), nil, PaperParams(), suite, setcrypto.FastKeyPair(0),
			setcrypto.NewRegistry(), nil)
		for _, block := range [][]*wire.Tx{nil, txs[:1], txs[3:4], txs} {
			var buf []byte
			buf = binary.LittleEndian.AppendUint64(buf, 9)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(2))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(3))
			buf = binary.LittleEndian.AppendUint64(buf, 4)
			buf = binary.LittleEndian.AppendUint64(buf, 5)
			for _, tx := range block {
				buf = tx.AppendKey(buf)
			}
			if got, want := n.blockID(9, 2, 3, 4, 5, block), string(suite.HashData(buf)); got != want {
				t.Fatalf("%T: blockID of %d txs differs from HashData over the buffered input", suite, len(block))
			}
			buf = binary.LittleEndian.AppendUint64(buf[:0], 9)
			for _, tx := range block {
				buf = tx.AppendKey(buf)
			}
			if got, want := n.valueID(9, block), string(suite.HashData(buf)); got != want {
				t.Fatalf("%T: valueID of %d txs differs from HashData over the buffered input", suite, len(block))
			}
		}
		if cap(n.keyBuf) > 128 {
			t.Fatalf("%T: the id scratch grew to %d bytes, a block's size; want one key's", suite, cap(n.keyBuf))
		}
	}
}
