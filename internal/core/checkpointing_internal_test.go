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
	"repro/internal/setcrypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// EagerSyncMembers is the membership a snapshot sealed at epoch through
// carries, taken at once, as the reference TestLateServeEquivalence holds
// ServeSnapshot's serve-time lists against.
// It takes the members from the id table's marks and finds each one's
// element and epoch by its own scan of the epoch slices, the first
// occurrence of an id winning, so it shares no walk with ServeSnapshot's.
// Entry n maps the ids of epoch n to their elements; entry 0 holds the
// stamped ids the scan does not find, which no snapshot carries.
func (s *Server) EagerSyncMembers(through uint64) []map[wire.ElementID]*wire.Element {
	type member struct {
		e     *wire.Element
		epoch uint64
	}
	scanned := make(map[wire.ElementID]member)
	for n, elems := range s.elems.epochs {
		for _, e := range elems {
			if _, ok := scanned[e.ID]; !ok {
				scanned[e.ID] = member{e, uint64(n)}
			}
		}
	}
	members := make([]map[wire.ElementID]*wire.Element, through+1)
	for n := range members {
		members[n] = make(map[wire.ElementID]*wire.Element)
	}
	for id := range wire.Diff(&s.elems.m, &wire.IDMap[struct{}]{}) {
		if m := scanned[id]; s.elems.m.Marked(id) && m.epoch <= through {
			members[m.epoch][id] = m.e
		}
	}
	return members
}

// grownServer grows one server's state to the given number of elements
// through the real epoch and seal path — eight epochs, four seals — and
// then creates two ten-element epochs; epochs creates more.
func grownServer(elements int) (d *Deployment, epochs func(count, size int)) {
	d = Deploy(sim.New(1), 4, ledger.PaperConfig(),
		Options{Algorithm: Hashchain, CollectorLimit: 100, F: 1, CheckpointInterval: 2, Prune: true}, nil)
	srv, cl := d.Servers[0], d.Clients[0]
	epochs = func(count, size int) {
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
	return d, epochs
}

// sealAllocBytes returns the bytes allocated by the seal that follows
// grownServer(elements): one covering two ten-element epochs. The chain is
// equally long whatever the element count, so the only thing that varies
// between two calls is how much state the seal happens on top of.
func sealAllocBytes(elements int) uint64 {
	d, _ := grownServer(elements)
	srv := d.Servers[0]
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

// Completing a snapshot costs O(epochs), not O(state): ServeSnapshot
// allocates one list of the checkpoint's epochs, whose entries view the
// index's own epoch slices, whether the epochs hold 2,000 elements or
// 20,000.
func TestServeSnapshotAllocatesPerEpoch(t *testing.T) {
	for _, elements := range []int{2000, 20000} {
		d, _ := grownServer(elements)
		srv := d.Servers[0]
		snap, _ := srv.SyncSnapshot()
		st := snap.State.(*SyncState)
		// Spare room behind one epoch's slice, as a second stamp of its
		// number leaves it: the list must not offer it to an append.
		srv.elems.epochs[1] = slices.Grow(srv.elems.epochs[1], 4)
		var before, after runtime.MemStats
		allocs := testing.AllocsPerRun(5, func() {
			st.Members = nil
			runtime.ReadMemStats(&before)
			srv.ServeSnapshot(snap)
			runtime.ReadMemStats(&after)
		})
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d elements in %d epochs: %.0f allocations, %d B", elements, len(st.Members), allocs, bytes)
		if allocs > 1 || bytes > uint64(len(st.Members))*24+64 {
			t.Fatalf("serving a snapshot of %d epochs over %d elements allocates %.0f times, %d B; want one list of the epochs",
				len(st.Members), elements, allocs, bytes)
		}
		for i, elems := range st.Members {
			live := srv.elems.epochs[i+1]
			if len(elems) == 0 || &elems[0] != &live[0] || cap(elems) != len(elems) {
				t.Fatalf("epoch %d's list is not a clipped view of the index's slice", i+1)
			}
		}
	}
}

// A sealed snapshot shares what never changes with the live epochs and
// copies nothing else: each suffix epoch is a struct of its own whose
// Elements and Hash are the live epoch's arrays, and whose Proofs view the
// live array clipped at the seal, so a proof the server accepts afterwards,
// appended into that same array, does not show in the snapshot.
func TestSealSharesEpochArrays(t *testing.T) {
	d, epochs := grownServer(2000)
	srv := d.Servers[0]
	srv.settled = srv.lastCheckpointEpoch()
	epochs(1, 10)
	srv.settled = srv.lastCheckpointEpoch()
	live := srv.history[len(srv.history)-1]
	p := func(signer wire.NodeID) *wire.EpochProof {
		return &wire.EpochProof{Epoch: live.Number, EpochHash: live.Hash,
			Sig: d.Ledger.Suite.Sign(d.Ledger.Keys[signer], live.Hash), Signer: signer}
	}
	if !srv.acceptProof(p(1)) {
		t.Fatal("the live epoch refuses a proof")
	}
	srv.settled = srv.prunedEpochs + uint64(len(srv.history)) - 1 // seal everything below the last epoch
	srv.maybeSeal()
	snap, _ := srv.SyncSnapshot()
	st := snap.State.(*SyncState)
	sealed := st.Epochs[len(st.Epochs)-1]
	if sealed == live || sealed.Number != live.Number {
		t.Fatalf("the sealed epoch %d is the live struct (%v)", sealed.Number, sealed == live)
	}
	if &sealed.Elements[0] != &live.Elements[0] || &sealed.Hash[0] != &live.Hash[0] {
		t.Fatal("the sealed epoch copies its elements or its hash")
	}
	if len(sealed.Proofs) != 1 || cap(sealed.Proofs) != 1 || &sealed.Proofs[0] != &live.Proofs[0] {
		t.Fatalf("the sealed proofs (len %d, cap %d) are not the live array clipped at the seal", len(sealed.Proofs), cap(sealed.Proofs))
	}
	if !srv.acceptProof(p(2)) || len(live.Proofs) != 2 || &live.Proofs[0] != &sealed.Proofs[0] {
		t.Fatal("the live epoch did not take a second proof into the same array")
	}
	if len(sealed.Proofs) != 1 || sealed.Proofs[0].Signer != 1 {
		t.Fatalf("the snapshot shows %d proofs after the seal, want the 1 it was sealed with", len(sealed.Proofs))
	}
}

// PendingBatches is hashchainAlg.pendingBatches for the external tests: what
// a snapshot sealed now would ship as SyncState.Pending.
func (s *Server) PendingBatches() []PendingBatch {
	return s.alg.(*hashchainAlg).pendingBatches()
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
			len(sealed.State.(*SyncState).Pending) > 0 {
			snap = donor.ServeSnapshot(sealed)
			break
		}
	}
	if snap == nil {
		t.Fatal("the donor sealed no snapshot with pending signer sets; tune the workload")
	}
	want := snap.State.(*SyncState).Pending
	// A recovery in flight (the request went nowhere: the node is down).
	stray := h.rec(bytes.Repeat([]byte{0x5C}, setcrypto.HashSize))
	h.fetch(stray, 1, func(bool) {})

	type before struct{ signedOwn, consolidated, contentDone bool }
	was := make(map[*batchRec]before, len(h.records()))
	var own, consolidated, pendingBefore int
	for _, r := range h.records() {
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

	if got := h.pendingBatches(); !reflect.DeepEqual(got, want) {
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
	signersOf := func(hash []byte) ([]wire.NodeID, bool) {
		for _, p := range want {
			if bytes.Equal(p.Hash, hash) {
				return p.Signers, true
			}
		}
		return nil, false
	}
	for _, r := range h.records() {
		signers, pending := signersOf(r.hash)
		ownInSnapshot := slices.Contains(signers, victim.id)
		b, known := was[r]
		if r.consolidated != b.consolidated || r.contentDone != b.contentDone {
			t.Fatalf("record %x: consolidated %v -> %v, contentDone %v -> %v", r.hash[:4],
				b.consolidated, r.consolidated, b.contentDone, r.contentDone)
		}
		if r.signedOwn != (b.signedOwn || ownInSnapshot) {
			t.Fatalf("record %x (known before: %v): signedOwn %v -> %v with own id in the snapshot's set: %v",
				r.hash[:4], known, b.signedOwn, r.signedOwn, ownInSnapshot)
		}
		if !pending && r.signers.n != 0 {
			t.Fatalf("record %x keeps %d signers the snapshot does not list", r.hash[:4], r.signers.n)
		}
	}
	if stray.fetch == nil || !stray.fetch.inFlight {
		t.Fatal("the install disturbed a recovery in flight")
	}

	// installPending on its own, with the cases an honest snapshot of this run
	// cannot contain: a set on a record that is already consolidated here, the
	// installer's own id in a set, a signer no registry knows and a hash of
	// the wrong length.
	var done *batchRec
	for _, r := range h.records() {
		if r.consolidated {
			done = r
			break
		}
	}
	mine := bytes.Repeat([]byte{0x77}, setcrypto.HashSize)
	theirs := bytes.Repeat([]byte{0x78}, setcrypto.HashSize)
	crafted := []PendingBatch{
		{Hash: done.hash, Signers: []wire.NodeID{0, 1}},
		{Hash: mine, Signers: []wire.NodeID{1, victim.id}},
		{Hash: theirs, Signers: []wire.NodeID{1, 2, 9999}},
		{Hash: theirs[:setcrypto.HashSize-1], Signers: []wire.NodeID{1}},
	}
	h.installPending(crafted)
	crafted[2].Signers = []wire.NodeID{1, 2}
	crafted = crafted[:3]
	if got := h.pendingBatches(); !reflect.DeepEqual(got, crafted) {
		t.Fatalf("pending signer sets after the crafted install:\n got %v\nwant %v", got, crafted)
	}
	if !done.consolidated || h.consolidated != consolidated {
		t.Fatalf("a signer set un-consolidated a record: %+v, counter %d", *done, h.consolidated)
	}
	if !h.lookup(mine).signedOwn || h.lookup(theirs).signedOwn {
		t.Fatalf("own-signature memory: %v for the set with the installer's id, %v for the set without",
			h.lookup(mine).signedOwn, h.lookup(theirs).signedOwn)
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
