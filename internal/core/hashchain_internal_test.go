package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/batchstore"
	"repro/internal/ledger"
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

func testHash(i int) []byte {
	h := bytes.Repeat([]byte{0xA5}, wire.DigestSize)
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
				req := payload.(*batchstore.Request)
				asked = append(asked, id)
				if id != origin {
					net.Send(id, from, &batchstore.Response{Hash: req.Hash, ReqID: req.ReqID}, 96)
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
	jobs := srv.cpu.Jobs()
	allocs := testing.AllocsPerRun(10, finalize)
	if got := (srv.cpu.Jobs() - jobs) / 11; got != txs {
		t.Fatalf("a block ran %d costed steps, want one per transaction (%d)", got, txs)
	}
	if allocs > 2 {
		t.Fatalf("finalizing a block of %d consolidated hash-batches allocates %.0f times, want the 2 of an empty block", txs, allocs)
	}
	if srv.processing || h.cur.txs != nil || len(h.pending) != 0 {
		t.Fatalf("block left state behind: processing=%v cursor=%v pending=%d", srv.processing, h.cur.txs != nil, len(h.pending))
	}
}

// Light mode through the record: content comes from the shared oracle on
// first contact, a proof-only batch consolidates without an epoch, and a
// hash with no content anywhere is co-signed, stays pending, and is picked
// up when the content appears.
func TestLightBlockThroughTheRecord(t *testing.T) {
	d, h := quietHashchain(4, Options{Light: true})
	srv, shared := d.Servers[0], d.Opts.SharedStore
	height := uint64(0)
	finalize := func(txs ...*wire.Tx) {
		height++
		srv.FinalizeBlock(&wire.Block{Height: height, Txs: txs})
		d.Sim.RunUntil(d.Sim.Now() + time.Second)
		if srv.processing {
			t.Fatalf("block %d still processing", height)
		}
	}

	// 1. Elements, found in the shared oracle at the first hash-batch.
	elems := &wire.Batch{}
	for i := 0; i < 5; i++ {
		elems.Elements = append(elems.Elements, d.Clients[1].NewModeledElement(100))
	}
	h1 := testHash(1)
	shared.Register(h1, elems)
	finalize(signedHashBatch(d, 1, h1))
	r1 := h.recs[wire.DigestOf(h1)]
	if r1 == nil || r1.batch != elems {
		t.Fatal("first contact did not bring the batch from the shared oracle into the record")
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
	shared.Register(h2, proofs)
	finalize(signedHashBatch(d, 2, h2), signedHashBatch(d, 1, h2))
	r2 := h.recs[wire.DigestOf(h2)]
	if got := srv.history[0].Proofs; !r2.consolidated || !r2.proofsDone || len(got) != 1 || got[0].Signer != 2 || len(srv.history) != 1 {
		t.Fatalf("proof-only batch: %+v, epoch 1 proofs %v, epochs %d", *r2, got, len(srv.history))
	}

	// 3. No content anywhere: co-signed blind, pending past f+1 signers,
	// consolidated by the first hash-batch after the content shows up.
	h3 := testHash(3)
	finalize(signedHashBatch(d, 1, h3), signedHashBatch(d, 2, h3))
	r3 := h.recs[wire.DigestOf(h3)]
	if !r3.signedOwn || r3.contentDone || r3.consolidated || r3.batch != nil ||
		!reflect.DeepEqual(h.pendingSigners(), map[wire.Digest][]wire.NodeID{wire.DigestOf(h3): {1, 2}}) {
		t.Fatalf("contentless hash: %+v, pending %v", *r3, h.pendingSigners())
	}
	late := &wire.Batch{Elements: []*wire.Element{d.Clients[2].NewModeledElement(100)}}
	shared.Register(h3, late)
	finalize(signedHashBatch(d, 3, h3))
	if !r3.consolidated || len(srv.history) != 2 || len(h.pending) != 0 {
		t.Fatalf("late content: %+v, epochs %d, pending %d", *r3, len(srv.history), len(h.pending))
	}
	if st := srv.HashchainStats(); st.Consolidated != 3 || st.RequestsSent != 0 {
		t.Fatalf("stats %+v, want 3 consolidated and no batch request", st)
	}
}
