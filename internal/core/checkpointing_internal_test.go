package core

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/wire"
)

// EagerSyncMembers is the copy of the membership index that every seal used
// to make, kept as the reference implementation TestLateServeEquivalence
// holds ServeSnapshot's serve-time filter against.
func (s *Server) EagerSyncMembers() map[wire.ElementID]Member {
	members := make(map[wire.ElementID]Member)
	for id, ent := range s.elems.m.All() {
		if ent.epoch != 0 {
			members[id] = Member{Element: ent.e, Epoch: ent.epoch}
		}
	}
	return members
}

// sealAllocBytes grows one server's state to the given number of elements
// through the real epoch and seal path — eight epochs, four seals — then
// returns the bytes allocated by one further seal covering two ten-element
// epochs. The chain is equally long whatever the element count, so the
// only thing that varies between two calls is how much state the seal
// happens on top of.
func sealAllocBytes(elements int) uint64 {
	d := Deploy(sim.New(1), 4, ledger.PaperConfig(),
		Options{Algorithm: Hashchain, CollectorLimit: 100, F: 1, CheckpointInterval: 2, Prune: true}, nil)
	srv, cl := d.Servers[0], d.Clients[0]
	epochs := func(count, size int) {
		for i := 0; i < count; i++ {
			g := make([]*wire.Element, size)
			for j := range g {
				g[j] = cl.NewModeledElement(438)
			}
			srv.createEpoch(g)
		}
		srv.settled = srv.prunedEpochs + uint64(len(srv.history))
	}
	epochs(8, elements/8)
	srv.maybeSeal()
	epochs(2, 10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.maybeSeal()
	runtime.ReadMemStats(&after)
	if len(srv.checkpoints) != 5 || srv.syncState.Last != srv.checkpoints[4] {
		panic("sealAllocBytes: the measured call did not seal exactly the fifth checkpoint")
	}
	return after.TotalAlloc - before.TotalAlloc
}

// A seal costs O(checkpoint interval), not O(state): ten times the set
// must not show in what one seal allocates. With the per-seal copy of
// the_set and the membership index this ratio was about ten (hundreds of
// KiB against MiB). TotalAlloc is process-wide, and whatever else allocates
// meanwhile (the collector, goroutines earlier tests left winding down)
// only ever adds, so each figure is the least of five measurements; the
// 4 KiB of slack keeps what survives that from deciding between two
// sub-KiB figures.
func TestSealAllocationIndependentOfSetSize(t *testing.T) {
	least := func(elements int) uint64 {
		m := sealAllocBytes(elements)
		for i := 1; i < 5; i++ {
			if b := sealAllocBytes(elements); b < m {
				m = b
			}
		}
		return m
	}
	small, large := least(2000), least(20000)
	t.Logf("one seal allocates %d B on 2,000 elements, %d B on 20,000", small, large)
	if large > 2*small+4096 {
		t.Fatalf("seal allocation grows with the set: %d B at 2,000 elements, %d B at 20,000", small, large)
	}
}

// PendingSigners is hashchainAlg.pendingSigners for the external tests: what
// a snapshot sealed now would ship as SyncState.PendingSigners.
func (s *Server) PendingSigners() map[wire.Digest][]wire.NodeID {
	return s.alg.(*hashchainAlg).pendingSigners()
}

// A state-sync install replaces the signer sets of a server's batch records
// and nothing else in them. The victim here is a server that crashed
// mid-run, so it holds records of every kind — own batches flushed, batches
// consolidated, a recovery in flight — when it installs a peer's later
// snapshot: afterwards its pending signer sets are exactly the snapshot's,
// what it had consolidated is still consolidated, the recovery is still in
// flight, and no record newly claims an own signature the snapshot does not
// show.
func TestInstallSyncReplacesOnlySignerSets(t *testing.T) {
	s := sim.New(5)
	d := Deploy(s, 4, ledger.PaperConfig(), Options{
		Algorithm: Hashchain, CollectorLimit: 10, F: 1, CheckpointInterval: 2, Prune: true,
	}, nil)
	d.Start()
	defer d.Stop()
	for i := 0; i < 400; i++ {
		e := d.Clients[i%4].NewModeledElement(438)
		s.After(time.Duration(i)*25*time.Millisecond, func() { _ = d.Servers[i%4].Add(e) })
	}
	victim, donor := d.Servers[3], d.Servers[0]
	h := victim.alg.(*hashchainAlg)
	s.RunUntil(3 * time.Second)
	d.Ledger.Net.Faults().SetDown(victim.id, "test", true)
	s.RunUntil(3*time.Second + 100*time.Millisecond) // what was in flight settles

	// Run on until the donor seals a snapshot that carries pending sets.
	var snap *checkpoint.Snapshot
	for s.Now() < 12*time.Second {
		s.RunUntil(s.Now() + 50*time.Millisecond)
		if sealed, ok := donor.SyncSnapshot(); ok && sealed.Last.Epoch > victim.lastCheckpointEpoch() &&
			len(sealed.State.(*SyncState).PendingSigners) > 0 {
			snap = donor.ServeSnapshot(sealed)
			break
		}
	}
	if snap == nil {
		t.Fatal("the donor sealed no snapshot with pending signer sets; tune the workload")
	}
	want := snap.State.(*SyncState).PendingSigners
	// A recovery in flight (the request went nowhere: the node is down).
	stray := h.rec(bytes.Repeat([]byte{0x5C}, wire.DigestSize))
	h.fetch(stray, 1, func(bool) {})

	type before struct{ signedOwn, consolidated, contentDone bool }
	was := make(map[*batchRec]before, len(h.recs))
	var own, consolidated, pendingBefore int
	for _, r := range h.recs {
		was[r] = before{r.signedOwn, r.consolidated, r.contentDone}
		if r.signedOwn {
			own++
		}
		if r.consolidated {
			consolidated++
		}
	}
	pendingBefore = len(h.pending)
	if own == 0 || consolidated == 0 || consolidated != h.consolidated {
		t.Fatalf("weak victim: %d own-signed records, %d consolidated (counter %d); tune the workload", own, consolidated, h.consolidated)
	}
	if !victim.InstallSync(snap) {
		t.Fatal("the donor's snapshot does not install")
	}
	t.Logf("victim had %d records (%d consolidated, %d pending); the snapshot carries %d pending sets",
		len(was), consolidated, pendingBefore, len(want))

	if got := h.pendingSigners(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pending signer sets after the install:\n got %v\nwant %v", got, want)
	}
	for i, r := range h.pending {
		if r.pendIdx != i || r.signers.n == 0 {
			t.Fatalf("pending[%d]: pendIdx %d, %d signers", i, r.pendIdx, r.signers.n)
		}
	}
	if h.consolidated != consolidated {
		t.Fatalf("consolidated counter moved %d -> %d", consolidated, h.consolidated)
	}
	for key, r := range h.recs {
		ownInSnapshot := slices.Contains(want[key], victim.id)
		b, known := was[r]
		if r.consolidated != b.consolidated || r.contentDone != b.contentDone {
			t.Fatalf("record %x: consolidated %v -> %v, contentDone %v -> %v", key.Bytes()[:4],
				b.consolidated, r.consolidated, b.contentDone, r.contentDone)
		}
		if r.signedOwn != (b.signedOwn || ownInSnapshot) {
			t.Fatalf("record %x (known before: %v): signedOwn %v -> %v with own id in the snapshot's set: %v",
				key.Bytes()[:4], known, b.signedOwn, r.signedOwn, ownInSnapshot)
		}
		if _, pending := want[key]; !pending && r.signers.n != 0 {
			t.Fatalf("record %x keeps %d signers the snapshot does not list", key.Bytes()[:4], r.signers.n)
		}
	}
	if stray.fetch == nil || !stray.fetch.inFlight {
		t.Fatal("the install disturbed a recovery in flight")
	}

	// installPending on its own, with the cases an honest snapshot of this run
	// cannot contain: a set on a record that is already consolidated here, the
	// installer's own id in a set, and a signer no registry knows.
	var done *batchRec
	for _, r := range h.recs {
		if r.consolidated {
			done = r
			break
		}
	}
	mine := wire.DigestOf(bytes.Repeat([]byte{0x77}, wire.DigestSize))
	theirs := wire.DigestOf(bytes.Repeat([]byte{0x78}, wire.DigestSize))
	crafted := map[wire.Digest][]wire.NodeID{
		wire.DigestOf(done.hash): {0, 1},
		mine:                     {1, victim.id},
		theirs:                   {1, 2, 9999},
	}
	h.installPending(crafted)
	crafted[theirs] = []wire.NodeID{1, 2}
	if got := h.pendingSigners(); !reflect.DeepEqual(got, crafted) {
		t.Fatalf("pending signer sets after the crafted install:\n got %v\nwant %v", got, crafted)
	}
	if !done.consolidated || h.consolidated != consolidated {
		t.Fatalf("a signer set un-consolidated a record: %+v, counter %d", *done, h.consolidated)
	}
	if !h.recs[mine].signedOwn || h.recs[theirs].signedOwn {
		t.Fatalf("own-signature memory: %v for the set with the installer's id, %v for the set without",
			h.recs[mine].signedOwn, h.recs[theirs].signedOwn)
	}
}

// Every epoch InstallSync adopts is the installer's own: a struct copy whose
// proofs are capped at their length. Two servers install one snapshot and
// each accepts another signer's proof for the same adopted epoch: the
// snapshot's epoch is never written, and neither installer sees the other's
// proof.
func TestInstallSyncAdoptsCopiesOfEpochs(t *testing.T) {
	opts := Options{Algorithm: Hashchain, CollectorLimit: 10, F: 1, CheckpointInterval: 2, Prune: true}
	s := sim.New(7)
	d := Deploy(s, 4, ledger.PaperConfig(), opts, nil)
	d.Start()
	for i := 0; i < 200; i++ {
		e := d.Clients[i%4].NewModeledElement(438)
		s.After(time.Duration(i)*25*time.Millisecond, func() { _ = d.Servers[i%4].Add(e) })
	}
	// Run until the donor seals a snapshot with a suffix epoch that at least
	// two signers have not proven yet.
	var snap *checkpoint.Snapshot
	var ep *Epoch
	for s.Now() < 10*time.Second && ep == nil {
		s.RunUntil(s.Now() + 50*time.Millisecond)
		if sealed, ok := d.Servers[0].SyncSnapshot(); ok {
			for _, e := range sealed.State.(*SyncState).Epochs {
				if len(e.Proofs) <= 1 {
					snap, ep = d.Servers[0].ServeSnapshot(sealed), e
					break
				}
			}
		}
	}
	d.Stop()
	if ep == nil {
		t.Fatal("no sealed snapshot with a suffix epoch two signers still owe; tune the workload")
	}
	// Room to append behind the sealed proofs, as a freeze of five or more
	// proofs has (allocation size classes round the capacity up).
	ep.Proofs = append(make([]*wire.EpochProof, 0, len(ep.Proofs)+4), ep.Proofs...)
	held := slices.Clone(ep.Proofs)
	var missing []wire.NodeID
	for id := wire.NodeID(0); id < 4; id++ {
		if !slices.ContainsFunc(held, func(p *wire.EpochProof) bool { return p.Signer == id }) {
			missing = append(missing, id)
		}
	}

	vd := Deploy(sim.New(1), 4, ledger.PaperConfig(), opts, nil)
	installers := vd.Servers[:2]
	for i, v := range installers {
		if !v.InstallSync(snap) {
			t.Fatalf("installer %d rejects the snapshot", i)
		}
		mine := v.history[ep.Number-1-v.prunedEpochs]
		if mine == ep || cap(mine.Proofs) != len(mine.Proofs) {
			t.Fatalf("installer %d adopted epoch %d as the snapshot's own struct (%v) or with room to append into its proofs (len %d, cap %d)",
				i, ep.Number, mine == ep, len(mine.Proofs), cap(mine.Proofs))
		}
		signer := missing[i]
		p := &wire.EpochProof{Epoch: ep.Number, EpochHash: ep.Hash,
			Sig: vd.Ledger.Suite.Sign(vd.Ledger.Keys[signer], ep.Hash), Signer: signer}
		if !v.acceptProof(p) {
			t.Fatalf("installer %d rejects signer %d's proof of epoch %d", i, signer, ep.Number)
		}
	}
	if !slices.Equal(ep.Proofs, held) || slices.ContainsFunc(ep.Proofs[len(held):cap(ep.Proofs)], func(p *wire.EpochProof) bool { return p != nil }) {
		t.Fatalf("the snapshot's epoch %d was written: it lists %d proofs, sealed with %d", ep.Number, len(ep.Proofs), len(held))
	}
	for i, v := range installers {
		got := v.history[ep.Number-1-v.prunedEpochs].Proofs
		if len(got) != len(held)+1 || !slices.Equal(got[:len(held)], held) || got[len(held)].Signer != missing[i] {
			t.Fatalf("installer %d holds %d proofs of epoch %d, want the snapshot's %d and then signer %d's",
				i, len(got), ep.Number, len(held), missing[i])
		}
	}
}
