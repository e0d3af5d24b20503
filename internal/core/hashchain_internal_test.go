package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/setcrypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// quietHashchain deploys n Hashchain servers whose ledger is never started:
// nothing runs but what a test drives into one server by hand.
func quietHashchain(n int, opts Options) (*Deployment, *hashchainAlg) {
	opts.Algorithm, opts.CollectorLimit, opts.F = Hashchain, 100, (n-1)/2
	d := Deploy(sim.New(1), n, ledger.PaperConfig(), opts, nil)
	return d, d.Servers[0].alg.(*hashchainAlg)
}

// signedHashBatch is signer's hash-batch transaction for hash.
func signedHashBatch(d *Deployment, signer int, hash []byte) *wire.Tx {
	sig := d.Ledger.Suite.Sign(d.Ledger.Keys[signer], hash)
	return &wire.Tx{Kind: wire.TxHashBatch,
		HashBatch: &wire.HashBatch{Hash: hash, Sig: sig, Signer: wire.NodeID(signer)}}
}

// withBatch is tx with b riding on its hash-batch, as an origin sends it
// under Light.
func withBatch(tx *wire.Tx, b *wire.Batch) *wire.Tx {
	tx.HashBatch.Batch = b
	return tx
}

// records returns every batch record of h, the chained ones included.
func (h *hashchainAlg) records() []*batchRec {
	var out []*batchRec
	for _, head := range h.recs {
		for r := head; r != nil; r = r.next {
			out = append(out, r)
		}
	}
	return out
}

func testHash(i int) []byte {
	h := bytes.Repeat([]byte{0xA5}, setcrypto.HashSize)
	h[0], h[1] = byte(i), byte(i>>8)
	return h
}

// Batch recovery asks the hinted signer first and the other ledger signers
// in ascending id order, whatever order they signed in — the same sequence
// on every construction. (The candidates used to come out of a Go map.)
func TestFetchAsksHintThenSignersAscending(t *testing.T) {
	const origin = 2 // signs first, is the hint, and never serves
	want := []wire.NodeID{origin, 1, 3, 4}
	for trial := 0; trial < 20; trial++ {
		d, h := quietHashchain(5, Options{})
		net := d.Ledger.Net
		var asked []wire.NodeID
		for id := wire.NodeID(1); id < 5; id++ {
			net.AddNode(id, func(from wire.NodeID, payload any, _ int) {
				req := payload.(*batchRequest)
				asked = append(asked, id)
				if id != origin {
					net.Send(id, from, &batchResponse{hash: req.hash, reqID: req.reqID}, 96)
				}
			})
		}
		r := h.rec(testHash(trial))
		for _, id := range []wire.NodeID{origin, 4, 1, 3} {
			h.addSigner(r, id)
		}
		calls, outcome := 0, true
		h.fetch(r, origin, func(ok bool) { calls++; outcome = ok })
		d.Sim.RunUntil(time.Minute)
		if !reflect.DeepEqual(asked, want) {
			t.Fatalf("construction %d asked %v, want %v (hint, then ascending)", trial, asked, want)
		}
		if calls != 1 || outcome {
			t.Fatalf("construction %d: callback ran %d times with ok=%v, want once with false", trial, calls, outcome)
		}
	}
}

// The n² step: a block of hash-batches whose batches are local and already
// consolidated costs one record lookup each and allocates nothing — no
// continuation, no key, no event. What is left is per BLOCK: the slot
// FinalizeBlock appends to the block queue and the processNext method value
// handed down as the block's completion.
func TestConsolidatedBlockAllocatesNothingPerTransaction(t *testing.T) {
	d, h := quietHashchain(4, Options{})
	srv := d.Servers[0]
	const txs = 200
	block := &wire.Block{Height: 1}
	for i := 0; i < txs; i++ {
		hash := testHash(i)
		r := h.rec(hash)
		r.register(&wire.Batch{})
		r.contentDone, r.signedOwn, r.consolidated = true, true, true
		block.Txs = append(block.Txs, signedHashBatch(d, 1+i%3, hash))
	}
	finalize := func() {
		srv.FinalizeBlock(block)
		d.Sim.Run()
	}
	finalize() // the event slab and the CPU queue reach their size
	events := d.Sim.Executed()
	allocs := testing.AllocsPerRun(10, finalize)
	if got := (d.Sim.Executed() - events) / 11; got != txs {
		t.Fatalf("a block ran %d events and costed steps, want one per transaction (%d)", got, txs)
	}
	if allocs > 2 {
		t.Fatalf("finalizing a block of %d consolidated hash-batches allocates %.0f times, want the 2 of an empty block", txs, allocs)
	}
	if srv.processing || h.cur.txs != nil || len(h.pending) != 0 {
		t.Fatalf("block left state behind: processing=%v cursor=%v pending=%d", srv.processing, h.cur.txs != nil, len(h.pending))
	}
}

// Light mode through the record: content rides on the hash-batch that
// first names the hash, a proof-only batch consolidates without an epoch,
// and a hash whose hash-batches carry no batch is co-signed, stays pending,
// and is picked up when a hash-batch brings the content.
func TestLightBlockThroughTheRecord(t *testing.T) {
	d, h := quietHashchain(4, Options{Light: true})
	srv := d.Servers[0]
	height := uint64(0)
	finalize := func(txs ...*wire.Tx) {
		height++
		srv.FinalizeBlock(&wire.Block{Height: height, Txs: txs})
		d.Sim.RunUntil(d.Sim.Now() + time.Second)
		if srv.processing {
			t.Fatalf("block %d still processing", height)
		}
	}

	// 1. Elements, carried by the first hash-batch.
	elems := &wire.Batch{}
	for i := 0; i < 5; i++ {
		elems.Elements = append(elems.Elements, d.Clients[1].NewModeledElement(100))
	}
	h1 := testHash(1)
	finalize(withBatch(signedHashBatch(d, 1, h1), elems))
	r1 := h.lookup(h1)
	if r1 == nil || r1.batch != elems {
		t.Fatal("first contact did not bring the batch from the hash-batch into the record")
	}
	if !r1.contentDone || !r1.proofsDone || !r1.signedOwn || r1.consolidated || len(r1.valid) != 5 {
		t.Fatalf("after one signer: %+v", *r1)
	}
	if srv.elems.Len() != 5 || srv.node.Pool.Size() != 1 || !reflect.DeepEqual(r1.signers.ids(), []wire.NodeID{1}) {
		t.Fatalf("after one signer: %d elements in the_set, %d own hash-batches, signers %v",
			srv.elems.Len(), srv.node.Pool.Size(), r1.signers.ids())
	}
	finalize(signedHashBatch(d, 2, h1), signedHashBatch(d, 3, h1))
	if !r1.consolidated || r1.valid != nil || r1.signers.n != 0 || len(h.pending) != 0 {
		t.Fatalf("after f+1 signers: %+v", *r1)
	}
	if len(srv.history) != 1 || len(srv.history[0].Elements) != 5 {
		t.Fatalf("%d epochs, want one of 5 elements", len(srv.history))
	}

	// 2. A proof-only batch: its proof counts, it consolidates, no epoch.
	ehash := srv.history[0].Hash
	proofs := &wire.Batch{Proofs: []*wire.EpochProof{{
		Epoch: 1, EpochHash: ehash, Sig: d.Ledger.Suite.Sign(d.Ledger.Keys[2], ehash), Signer: 2,
	}}}
	h2 := testHash(2)
	finalize(withBatch(signedHashBatch(d, 2, h2), proofs), signedHashBatch(d, 1, h2))
	r2 := h.lookup(h2)
	if got := srv.history[0].Proofs; !r2.consolidated || !r2.proofsDone || len(got) != 1 || got[0].Signer != 2 || len(srv.history) != 1 {
		t.Fatalf("proof-only batch: %+v, epoch 1 proofs %v, epochs %d", *r2, got, len(srv.history))
	}

	// 3. No batch on the hash-batches: co-signed blind, pending past f+1
	// signers, consolidated by the hash-batch that brings the content.
	h3 := testHash(3)
	finalize(signedHashBatch(d, 1, h3), signedHashBatch(d, 2, h3))
	r3 := h.lookup(h3)
	if !r3.signedOwn || r3.contentDone || r3.consolidated || r3.batch != nil ||
		!reflect.DeepEqual(h.pendingBatches(), []PendingBatch{{Hash: h3, Signers: []wire.NodeID{1, 2}}}) {
		t.Fatalf("contentless hash: %+v, pending %v", *r3, h.pendingBatches())
	}
	late := &wire.Batch{Elements: []*wire.Element{d.Clients[2].NewModeledElement(100)}}
	finalize(withBatch(signedHashBatch(d, 3, h3), late))
	if !r3.consolidated || len(srv.history) != 2 || len(h.pending) != 0 {
		t.Fatalf("late content: %+v, epochs %d, pending %d", *r3, len(srv.history), len(h.pending))
	}
	if st := srv.HashchainStats(); st.Consolidated != 3 || st.RequestsSent != 0 {
		t.Fatalf("stats %+v, want 3 consolidated and no batch request", st)
	}
}

// Register_batch: the first batch a record gets stands. A later hash-batch
// carrying a different batch for the same hash leaves it in place.
func TestLaterHashBatchKeepsTheFirstBatch(t *testing.T) {
	d, h := quietHashchain(4, Options{Light: true})
	hash := testHash(7)
	first := &wire.Batch{Elements: []*wire.Element{d.Clients[1].NewModeledElement(100)}}
	other := &wire.Batch{Elements: []*wire.Element{d.Clients[2].NewModeledElement(100)}}
	d.Servers[0].FinalizeBlock(&wire.Block{Height: 1, Txs: []*wire.Tx{
		withBatch(signedHashBatch(d, 1, hash), first),
		withBatch(signedHashBatch(d, 2, hash), other),
	}})
	d.Sim.RunUntil(time.Second)
	if r := h.lookup(hash); r == nil || r.batch != first {
		t.Fatal("a later hash-batch replaced the record's batch")
	}
}

// A batch response costs 96 bytes plus the batch's raw size, and 96 bytes
// when the server does not have the batch.
func TestBatchResponseWireSize(t *testing.T) {
	b := &wire.Batch{}
	for i := 0; i < 10; i++ {
		e := &wire.Element{Size: 438}
		e.ID[0] = byte(i)
		b.Elements = append(b.Elements, e)
	}
	if got := (&batchResponse{hash: []byte("h"), batch: b}).wireSize(); got != 96+b.RawSize() {
		t.Fatalf("size = %d, want %d", got, 96+b.RawSize())
	}
	if got := (&batchResponse{hash: []byte("h")}).wireSize(); got != 96 {
		t.Fatalf("not-found size = %d, want 96", got)
	}
}

// A hash-batch over a hash that is not 64 bytes long — H‖x, where H is a
// batch hash the server holds, or a prefix of H — must stay clear of H's
// record: refused at admission, skipped in a block (no signer counted, no
// co-signature), a miss for batch requests. Keyed by the hash truncated to
// 64 bytes, H‖x used to land in H's record, count its signer toward H and
// have the server co-sign and fetch a hash no batch can match.
func TestHashOfWrongLengthDoesNotAliasARecord(t *testing.T) {
	d, h := quietHashchain(4, Options{})
	srv := d.Servers[0]
	hash := testHash(1)
	r := h.rec(hash)
	r.register(&wire.Batch{})
	long := append(append([]byte(nil), hash...), 0x01)
	for i, bad := range [][]byte{long, hash[:setcrypto.HashSize-1]} {
		tx := signedHashBatch(d, 3, bad)
		if h.checkTx(tx) {
			t.Fatalf("a validly signed hash-batch over a %d-byte hash was admitted", len(bad))
		}
		srv.FinalizeBlock(&wire.Block{Height: uint64(i + 1), Txs: []*wire.Tx{tx}})
		d.Sim.RunUntil(d.Sim.Now() + time.Second)
		if h.lookup(bad) != nil {
			t.Fatalf("a %d-byte hash finds a record", len(bad))
		}
	}
	if len(r.hash) != setcrypto.HashSize || r.signers.n != 0 || r.signedOwn || len(h.records()) != 1 {
		t.Fatalf("H's record after the hash-batches: hash %d bytes, signers %v, co-signed %v; %d records",
			len(r.hash), r.signers.ids(), r.signedOwn, len(h.records()))
	}
	if srv.node.Pool.Size() != 0 || h.requestsSent != 0 {
		t.Fatalf("the server co-signed (%d own hash-batches) or fetched (%d requests)", srv.node.Pool.Size(), h.requestsSent)
	}
}

// Two hashes with the same first word are two records, chained under one
// key; each is found again by its own hash.
func TestRecordsSharingAFirstWordAreChained(t *testing.T) {
	_, h := quietHashchain(4, Options{})
	a, b := testHash(9), testHash(9)
	b[setcrypto.HashSize-1] ^= 0xFF
	ra, rb := h.rec(a), h.rec(b)
	if ra == rb || len(h.recs) != 1 || len(h.records()) != 2 {
		t.Fatalf("records %p %p, %d keys, %d records: want two records under one key", ra, rb, len(h.recs), len(h.records()))
	}
	if h.rec(a) != ra || h.rec(b) != rb || h.lookup(a) != ra || h.lookup(b) != rb {
		t.Fatal("a chained record is not found again by its hash")
	}
}
