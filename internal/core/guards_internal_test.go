package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/setcrypto"
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

// signedProof is signer's epoch-proof of the given epoch hash, signed with
// key's key: signer's own proof when key == signer, a forgery otherwise.
func signedProof(d *Deployment, epoch uint64, hash []byte, signer, key int) *wire.EpochProof {
	return &wire.EpochProof{Epoch: epoch, EpochHash: hash, Signer: wire.NodeID(signer),
		Sig: d.Ledger.Suite.Sign(d.Ledger.Keys[key], hash)}
}

// oneEpoch finalizes a block of one element on d's server 0 and returns the
// epoch it makes.
func oneEpoch(t *testing.T, d *Deployment) *Epoch {
	t.Helper()
	srv := d.Servers[0]
	srv.FinalizeBlock(&wire.Block{Height: 1, Txs: []*wire.Tx{wire.NewElementTx(d.Clients[1].NewModeledElement(100))}})
	d.Sim.RunUntil(d.Sim.Now() + time.Second)
	if len(srv.history) != 1 {
		t.Fatalf("%d epochs after one element block, want 1", len(srv.history))
	}
	return srv.history[0]
}

// Guard: acceptProof's signature check. A proof of the right epoch hash that
// names signer 1 but carries signer 2's signature, or no signature, counts
// for nobody; signer 1's own proof counts.
func TestForgedEpochProofIsNotCounted(t *testing.T) {
	d := quiet(Vanilla, 4)
	srv := d.Servers[0]
	ep := oneEpoch(t, d)
	forged := signedProof(d, 1, ep.Hash, 1, 2)
	unsigned := &wire.EpochProof{Epoch: 1, EpochHash: ep.Hash, Signer: 1}
	for name, p := range map[string]*wire.EpochProof{"signed by another server": forged, "unsigned": unsigned} {
		if srv.acceptProof(p) || len(ep.Proofs) != 0 {
			t.Fatalf("a proof %s was counted: %d proofs", name, len(ep.Proofs))
		}
	}
	if !srv.acceptProof(signedProof(d, 1, ep.Hash, 1, 1)) || len(ep.Proofs) != 1 {
		t.Fatalf("signer 1's own proof was refused: %d proofs", len(ep.Proofs))
	}
}

// A verdict belongs to the object it was recorded on (wire.Verdict). After
// server 0 has verified a genuine hash-batch and epoch-proof, struct copies
// of them with one field changed are verified again by server 1, and
// refused. The genuine objects still pass there.
func TestVerdictIsNotCopied(t *testing.T) {
	d := quiet(Hashchain, 4)
	s0, s1 := d.Servers[0], d.Servers[1]
	hash := testHash(3)
	hb := signedHashBatch(d, 1, hash).HashBatch
	if !s0.CheckTx(wire.NewHashBatchTx(hb)) {
		t.Fatal("CheckTx refused a genuine hash-batch")
	}
	for name, change := range map[string]func(*wire.HashBatch){
		"Sig":    func(c *wire.HashBatch) { c.Sig = d.Ledger.Suite.Sign(d.Ledger.Keys[2], hash) },
		"Signer": func(c *wire.HashBatch) { c.Signer = 2 },
		"Hash":   func(c *wire.HashBatch) { c.Hash = testHash(4) },
	} {
		c := *hb
		change(&c)
		if s1.CheckTx(wire.NewHashBatchTx(&c)) {
			t.Errorf("a copy of a verified hash-batch with another %s was admitted", name)
		}
	}
	if !s1.CheckTx(wire.NewHashBatchTx(hb)) {
		t.Fatal("the verified hash-batch was refused by the next server")
	}

	// Both servers make the same epoch of the same block.
	d = quiet(Vanilla, 4)
	s0, s1 = d.Servers[0], d.Servers[1]
	block := &wire.Block{Height: 1, Txs: []*wire.Tx{wire.NewElementTx(d.Clients[1].NewModeledElement(100))}}
	s0.FinalizeBlock(block)
	s1.FinalizeBlock(block)
	d.Sim.RunUntil(time.Second)
	ep0, ep1 := s0.history[0], s1.history[0]
	p := signedProof(d, 1, ep0.Hash, 2, 2)
	if !s0.acceptProof(p) {
		t.Fatal("server 0 refused a genuine proof")
	}
	for name, change := range map[string]func(*wire.EpochProof){
		"Sig":       func(c *wire.EpochProof) { c.Sig = d.Ledger.Suite.Sign(d.Ledger.Keys[3], ep0.Hash) },
		"Signer":    func(c *wire.EpochProof) { c.Signer = 3 },
		"EpochHash": func(c *wire.EpochProof) { c.EpochHash = testHash(5) },
	} {
		c := *p
		change(&c)
		if s1.acceptProof(&c) {
			t.Errorf("a copy of a verified proof with another %s was counted", name)
		}
	}
	if !s1.acceptProof(p) || len(ep1.Proofs) != 1 {
		t.Fatalf("the verified proof was refused by the next server: %d proofs", len(ep1.Proofs))
	}
}

// A verdict recorded under one deployment's registry does not hold under
// another's: there, where signer 1 has another key, the hash-batch and the
// proof that verified in the first deployment are verified again, and
// refused.
func TestVerdictIsPerRegistry(t *testing.T) {
	a, b := quiet(Vanilla, 4), quiet(Vanilla, 4)
	b.Ledger.Registry.Register(1, setcrypto.FastKeyPair(99).Public)
	epA, epB := oneEpoch(t, a), oneEpoch(t, b)
	if !bytes.Equal(epA.Hash, epB.Hash) {
		t.Fatal("the two deployments made different epochs")
	}
	p := signedProof(a, 1, epA.Hash, 1, 1)
	if !a.Servers[0].acceptProof(p) {
		t.Fatal("the first deployment refused signer 1's proof")
	}
	if b.Servers[0].acceptProof(p) {
		t.Fatal("a deployment where signer 1 has another key counted the proof")
	}

	ha, _ := quietHashchain(4, Options{})
	hb, _ := quietHashchain(4, Options{})
	hb.Ledger.Registry.Register(1, setcrypto.FastKeyPair(99).Public)
	tx := signedHashBatch(ha, 1, testHash(6))
	if !ha.Servers[0].CheckTx(tx) {
		t.Fatal("the first deployment refused signer 1's hash-batch")
	}
	if hb.Servers[0].CheckTx(tx) {
		t.Fatal("a deployment where signer 1 has another key admitted the hash-batch")
	}
}
