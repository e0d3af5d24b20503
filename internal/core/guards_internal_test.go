package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Each test below is the known-bad input for one guard: it fails when that
// guard is removed, and names the guard it stands for.

// forgedHashBatch is a hash-batch that names signer but carries forger's
// signature over hash: a co-signature signer never made.
func forgedHashBatch(d *Deployment, signer, forger int, hash []byte) *wire.Tx {
	sig := d.Ledger.Suite.Sign(d.Ledger.Keys[forger], hash)
	return wire.NewHashBatchTx(&wire.HashBatch{Hash: hash, Sig: sig, Signer: wire.NodeID(signer)})
}

// Guard: validHashBatchSig in checkTx. A forged co-signature is refused at
// mempool admission: CheckTx says no, the pool does not take it, and no
// record or prefetch starts for its hash. The genuine one passes.
func TestForgedCoSignatureRefusedAtCheckTx(t *testing.T) {
	d, h := quietHashchain(4, Options{})
	srv := d.Servers[0]
	hash := testHash(1)
	if srv.CheckTx(forgedHashBatch(d, 1, 3, hash)) {
		t.Fatal("CheckTx admitted server 1's hash-batch signed with server 3's key")
	}
	if srv.node.Append(forgedHashBatch(d, 2, 3, hash)) {
		t.Fatal("the mempool took server 2's hash-batch signed with server 3's key")
	}
	if h.lookup(hash) != nil || h.requestsSent != 0 {
		t.Fatalf("a forged hash-batch made a record (%v) or a batch request (%d)", h.lookup(hash) != nil, h.requestsSent)
	}
	if !srv.CheckTx(signedHashBatch(d, 1, hash)) {
		t.Fatal("CheckTx refused a genuine hash-batch")
	}
}

// Guard: validHashBatchSig in step. A Byzantine proposer puts forged
// co-signatures of f+1 correct servers for a hash nobody can serve into its
// block. The block commits, and no correct server counts them: step checks
// every hash-batch's signature before it touches a record, so the forgery
// can neither stall block processing nor move consolidation.
func TestForgedCoSignatureInABlockIsNotCounted(t *testing.T) {
	const n = 4
	s := sim.New(3)
	d := Deploy(s, n, ledger.PaperConfig(), Options{Algorithm: Hashchain, CollectorLimit: 10, F: 1}, nil)
	hash := testHash(7)
	forged := []*wire.Tx{forgedHashBatch(d, 0, 3, hash), forgedHashBatch(d, 1, 3, hash)}
	proposed := false
	d.Servers[3].node.Cons.SetProposalMutator(func(txs []*wire.Tx) []*wire.Tx {
		if proposed {
			return txs
		}
		proposed = true
		return append(slices.Clone(txs), forged...)
	})
	d.Start()
	for i := 0; i < 80; i++ {
		srv, e := d.Servers[i%n], d.Clients[i%n].NewModeledElement(100)
		s.After(time.Duration(i)*50*time.Millisecond, func() {
			if err := srv.Add(e); err != nil {
				panic(err)
			}
		})
	}
	s.RunUntil(10 * time.Second)
	d.Drain()
	s.RunUntil(30 * time.Second)
	d.Stop()

	committed := false
	for _, b := range d.Servers[0].node.Cons.Chain() {
		committed = committed || slices.Contains(b.Txs, forged[0])
	}
	if !committed {
		t.Fatal("no committed block carries the forged co-signatures")
	}
	for i := 0; i < 3; i++ {
		srv := d.Servers[i]
		if r := srv.alg.(*hashchainAlg).lookup(hash); r != nil {
			t.Fatalf("server %d counted %d forged co-signatures", i, r.signers.n)
		}
		if srv.processing || len(srv.history) == 0 {
			t.Fatalf("server %d: processing=%v after quiescence, %d epochs", i, srv.processing, len(srv.history))
		}
	}
}

// Guard: acceptProof's distinct-signer check. One signer's valid epoch proof
// offered twice — the same transaction listed twice in a block, and a copy
// in a later block — counts once: f+1 needs f+1 signers, not f+1 proofs.
func TestSameSignerProofCountsOnce(t *testing.T) {
	d := quiet(Vanilla, 4) // f = 1: an epoch settles at 2 signers
	srv := d.Servers[0]
	height := uint64(0)
	finalize := func(txs ...*wire.Tx) {
		t.Helper()
		height++
		srv.FinalizeBlock(&wire.Block{Height: height, Txs: txs})
		d.Sim.RunUntil(d.Sim.Now() + time.Second)
	}
	finalize(wire.NewElementTx(d.Clients[1].NewModeledElement(100)))
	if len(srv.history) != 1 {
		t.Fatalf("%d epochs after one element block, want 1", len(srv.history))
	}
	ep := srv.history[0]
	proof := func(signer int) *wire.EpochProof {
		return &wire.EpochProof{Epoch: 1, EpochHash: ep.Hash, Signer: wire.NodeID(signer),
			Sig: d.Ledger.Suite.Sign(d.Ledger.Keys[signer], ep.Hash)}
	}
	tx := wire.NewProofTx(proof(1))
	finalize(tx, tx)
	finalize(wire.NewProofTx(proof(1)))
	if len(ep.Proofs) != 1 || srv.settled != 0 {
		t.Fatalf("server 1's proof offered three times: %d proofs counted, settled through %d; want 1 and 0",
			len(ep.Proofs), srv.settled)
	}
	finalize(wire.NewProofTx(proof(2)))
	if len(ep.Proofs) != 2 || srv.settled != 1 {
		t.Fatalf("a second signer's proof: %d proofs, settled through %d; want 2 and 1", len(ep.Proofs), srv.settled)
	}
}

// Guard: the stall retry in step and retryUntilRecovered. The schedule in
// which the prefetch fails and the f+1-th signature lands before any
// candidate can serve the batch: the origin signed and crashed, the other
// signer withholds, and the origin restarts later. Block processing must
// park on the batch (its position is fixed once f+1 have signed) and retry
// every RetryBackoff until the restarted origin serves it.
func TestStalledBatchRecoversWhenOriginRestarts(t *testing.T) {
	const origin, withholder = 1, 3
	const restart = 10 * time.Second
	d, h := quietHashchain(4, Options{})
	srv, net := d.Servers[0], d.Ledger.Net
	batch := &wire.Batch{Elements: []*wire.Element{
		d.Clients[1].NewModeledElement(100), d.Clients[2].NewModeledElement(100)}}
	hash := h.batchHash(batch)
	for id := wire.NodeID(1); id < 4; id++ {
		net.AddNode(id, func(from wire.NodeID, payload any, _ int) {
			req, ok := payload.(*batchRequest)
			if !ok || id != origin || d.Sim.Now() < restart {
				return // gossip, a withheld batch, or a crashed origin
			}
			resp := &batchResponse{hash: req.hash, reqID: req.reqID, batch: batch}
			net.Send(id, from, resp, resp.wireSize())
		})
	}
	if !srv.CheckTx(signedHashBatch(d, origin, hash)) { // the prefetch: the origin is down
		t.Fatal("CheckTx refused the origin's hash-batch")
	}
	srv.FinalizeBlock(&wire.Block{Height: 1,
		Txs: []*wire.Tx{signedHashBatch(d, origin, hash), signedHashBatch(d, withholder, hash)}})
	d.Sim.RunUntil(time.Minute)

	st := srv.HashchainStats()
	if st.StallRetries < 2 {
		t.Fatalf("%d stall retries, want the schedule to stall more than once before the restart", st.StallRetries)
	}
	if srv.processing {
		t.Fatalf("block processing still parked on the batch a minute in (%d stall retries)", st.StallRetries)
	}
	if len(srv.history) != 1 || !slices.Equal(srv.history[0].Elements, batch.Elements) {
		t.Fatalf("%d epochs, want the recovered batch as epoch 1", len(srv.history))
	}
}
