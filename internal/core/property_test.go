package core_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/byzantine"
	"repro/internal/core"
	"repro/internal/wire"
)

// TestRandomizedFaultSchedules fuzzes deployments across algorithms, fault
// presets and seeds, asserting the safety properties every time and
// liveness for elements added at correct servers whenever the fault budget
// is respected. This is the repository's broadest invariant net: any
// regression in consensus, mempool, batch recovery or epoch consolidation
// tends to surface here first.
func TestRandomizedFaultSchedules(t *testing.T) {
	algs := []core.Algorithm{core.Vanilla, core.Compresschain, core.Hashchain}
	faults := []func() *core.Behavior{
		nil,
		func() *core.Behavior { return byzantine.InjectInvalid(2) },
		func() *core.Behavior { return byzantine.WithholdBatches() },
		func() *core.Behavior { return byzantine.WrongBatches() },
		func() *core.Behavior { return byzantine.CorruptProofs() },
		func() *core.Behavior {
			return byzantine.Combine(byzantine.InjectInvalid(1), byzantine.CorruptProofs())
		},
	}
	// Under -short, run a reduced pass instead of skipping outright: 6
	// rounds still exercise every algorithm (twice) and every fault preset
	// (once) along the i%3/i%6 diagonal, keeping the invariant net active
	// in short CI runs at half the cost.
	rounds := 12
	if testing.Short() {
		rounds = 6
	}
	for i := 0; i < rounds; i++ {
		i := i
		alg := algs[i%len(algs)]
		mkFault := faults[i%len(faults)]
		name := fmt.Sprintf("seed=%d/%s/fault=%d", i, alg, i%len(faults))
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, d := deployFull(int64(100+i), 4, core.Options{
				Algorithm:      alg,
				CollectorLimit: 5 + i%7,
				RequestTimeout: time.Second,
				RetryBackoff:   300 * time.Millisecond,
			})
			byzID := 3
			if mkFault != nil {
				d.Servers[byzID].SetBehavior(mkFault())
			}
			// Elements go only to the three correct servers.
			var ids []wire.ElementID
			for k := 0; k < 24; k++ {
				cl := d.Clients[k%3]
				e := cl.NewElement([]byte(fmt.Sprintf("r%d-%d", i, k)))
				ids = append(ids, e.ID)
				k := k
				s.After(time.Duration(k*137)*time.Millisecond, func() {
					_ = d.Servers[k%3].Add(e)
				})
			}
			runQuiesce(s, d, 45*time.Second)
			d.Stop()
			checkProperties(t, d, ids, false)
			// Liveness for correct-server elements regardless of the
			// single Byzantine server's behavior.
			for si := 0; si < 3; si++ {
				snap := d.Servers[si].Get()
				inHist := make(map[wire.ElementID]bool)
				for _, ep := range snap.History {
					for _, e := range ep.Elements {
						inHist[e.ID] = true
					}
				}
				for _, id := range ids {
					if !inHist[id] {
						t.Fatalf("server %d: element %v never reached an epoch", si, id)
					}
				}
			}
		})
	}
}

func TestHashchainLightEndToEnd(t *testing.T) {
	// The Light ablation still satisfies the Setchain properties under the
	// all-correct assumption it is defined for.
	s, d := deployFull(60, 4, core.Options{
		Algorithm:      core.Hashchain,
		Light:          true,
		CollectorLimit: 8,
	})
	ids := addElements(s, d, 32)
	runQuiesce(s, d, 25*time.Second)
	d.Stop()
	checkProperties(t, d, ids, true)
	// No batch requests happened: the whole point of the ablation.
	for _, srv := range d.Servers {
		if st := srv.HashchainStats(); st.RequestsSent != 0 {
			t.Fatalf("Light mode issued %d batch requests", st.RequestsSent)
		}
	}
}

func TestCompresschainLightEndToEnd(t *testing.T) {
	s, d := deployFull(61, 4, core.Options{
		Algorithm:      core.Compresschain,
		Light:          true,
		CollectorLimit: 8,
	})
	ids := addElements(s, d, 32)
	runQuiesce(s, d, 25*time.Second)
	d.Stop()
	checkProperties(t, d, ids, true)
}

func TestSnapshotEpochCounter(t *testing.T) {
	s, d := deployFull(62, 4, core.Options{Algorithm: core.Compresschain, CollectorLimit: 4})
	ids := addElements(s, d, 12)
	runQuiesce(s, d, 20*time.Second)
	d.Stop()
	snap := d.Servers[0].Get()
	if snap.Epoch != uint64(len(snap.History)) {
		t.Fatalf("epoch counter %d != history length %d", snap.Epoch, len(snap.History))
	}
	if snap.Epoch == 0 {
		t.Fatal("no epochs despite committed elements")
	}
	_ = ids
}

func TestServerStatsProgress(t *testing.T) {
	s, d := deployFull(63, 4, core.Options{Algorithm: core.Hashchain, CollectorLimit: 4})
	addElements(s, d, 16)
	runQuiesce(s, d, 20*time.Second)
	d.Stop()
	adds, rejects, blocks, epochs := d.Servers[0].Stats()
	if adds == 0 || blocks == 0 || epochs == 0 {
		t.Fatalf("stats stuck at zero: adds=%d blocks=%d epochs=%d", adds, blocks, epochs)
	}
	if rejects != 0 {
		t.Fatalf("unexpected rejects: %d", rejects)
	}
	if f := d.Servers[0].Options().F; f != 1 {
		t.Fatalf("F = %d, want 1", f)
	}
	if d.Servers[0].ID() != 0 {
		t.Fatal("server id wrong")
	}
	if d.Servers[0].CPU() == nil {
		t.Fatal("server lacks a CPU resource")
	}
}

func TestCheckTxRejectsCrossAlgorithmTraffic(t *testing.T) {
	// A hash-batch tx must not enter a Vanilla deployment's mempool and
	// vice versa (a Byzantine server cannot smuggle foreign tx kinds).
	s, d := deployFull(64, 4, core.Options{Algorithm: core.Vanilla})
	_ = s
	srv := d.Servers[0]
	hb := &wire.Tx{Kind: wire.TxHashBatch, HashBatch: &wire.HashBatch{Hash: []byte("h")}}
	if srv.CheckTx(hb) {
		t.Fatal("Vanilla accepted a hash-batch tx")
	}
	cb := &wire.Tx{Kind: wire.TxCompressedBatch, Compressed: &wire.CompressedBatch{CompSize: 5}}
	if srv.CheckTx(cb) {
		t.Fatal("Vanilla accepted a compressed-batch tx")
	}
	bad := &wire.Tx{Kind: 99}
	if srv.CheckTx(bad) {
		t.Fatal("unknown tx kind accepted")
	}
	proofShape := &wire.Tx{Kind: wire.TxProof, Proof: &wire.EpochProof{Epoch: 0, Sig: []byte("s")}}
	if srv.CheckTx(proofShape) {
		t.Fatal("epoch-0 proof accepted")
	}
	d.Stop()
}

func TestElementSizesFlowToLedgerBlocks(t *testing.T) {
	// Wire-size accounting: Vanilla ledger bytes must equal the sum of
	// element sizes plus proof sizes.
	s, d := deployFull(65, 4, core.Options{Algorithm: core.Vanilla})
	ids := addElements(s, d, 10)
	runQuiesce(s, d, 20*time.Second)
	d.Stop()
	var elBytes, prBytes, blockBytes int
	for _, b := range d.Ledger.Nodes[0].Cons.Chain() {
		blockBytes += b.Bytes
		for _, tx := range b.Txs {
			switch tx.Kind {
			case wire.TxElement:
				elBytes += tx.Element.WireSize()
			case wire.TxProof:
				prBytes += wire.EpochProofWireSize
			}
		}
	}
	if blockBytes != elBytes+prBytes {
		t.Fatalf("block bytes %d != elements %d + proofs %d", blockBytes, elBytes, prBytes)
	}
	if prBytes == 0 {
		t.Fatal("no proof bytes on the ledger")
	}
	_ = ids
}

func TestDrainFlushesPartialBatches(t *testing.T) {
	// Without Drain a partial batch below the collector limit would wait
	// for the timeout; Drain forces it out immediately.
	s, d := deployFull(66, 4, core.Options{
		Algorithm:        core.Hashchain,
		CollectorLimit:   1000,      // never reached
		CollectorTimeout: time.Hour, // never fires
	})
	cl := d.Clients[0]
	e := cl.NewElement([]byte("stuck?"))
	s.After(time.Second, func() {
		if err := d.Servers[0].Add(e); err != nil {
			t.Errorf("Add: %v", err)
		}
	})
	s.RunUntil(10 * time.Second)
	d.Drain()
	s.RunUntil(40 * time.Second)
	d.Stop()
	snap := d.Servers[1].Get()
	if !snap.TheSet.Has(e.ID) {
		t.Fatal("drained element never propagated")
	}
}

func TestMaximumByzantineBoundary(t *testing.T) {
	// n=7 tolerates f=3 at the Setchain layer: with exactly 3 servers
	// misbehaving (withholding batches, corrupting proofs, injecting
	// junk), elements added at the 4 correct servers still commit with
	// f+1 = 4 valid proofs, and correct histories agree.
	// (The misbehaving servers still run consensus correctly — the ledger
	// itself tolerates only 2 of 7 — which matches the paper's layering:
	// Setchain faults and ledger faults are separate budgets.)
	s, d := deployFull(70, 7, core.Options{
		Algorithm:      core.Hashchain,
		CollectorLimit: 6,
		RequestTimeout: time.Second,
	})
	for _, byz := range []int{4, 5, 6} {
		d.Servers[byz].SetBehavior(byzantine.Combine(
			byzantine.WithholdBatches(),
			byzantine.CorruptProofs(),
			byzantine.InjectInvalid(1),
		))
	}
	var ids []wire.ElementID
	for k := 0; k < 28; k++ {
		cl := d.Clients[k%4]
		e := cl.NewElement([]byte(fmt.Sprintf("bnd-%d", k)))
		ids = append(ids, e.ID)
		k := k
		s.After(time.Duration(k*150)*time.Millisecond, func() {
			_ = d.Servers[k%4].Add(e)
		})
	}
	runQuiesce(s, d, 60*time.Second)
	d.Stop()
	checkProperties(t, d, ids, false)
	cl := d.Clients[0]
	for si := 0; si < 4; si++ {
		snap := d.Servers[si].Get()
		for _, id := range ids {
			found := false
			for _, ep := range snap.History {
				for _, e := range ep.Elements {
					if e.ID == id {
						found = true
						// The client's f+1 verification must pass using
						// only the 4 correct servers' proofs.
						if _, err := cl.VerifyCommitted(snap, id); err != nil {
							t.Fatalf("server %d: element %v unverifiable: %v", si, id, err)
						}
					}
				}
			}
			if !found {
				t.Fatalf("server %d: element %v lost with f=3 Byzantine servers", si, id)
			}
		}
	}
}
