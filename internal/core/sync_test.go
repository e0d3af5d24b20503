package core_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/wire"
)

// checkpointedOpts is the deployment every state-sync test here runs:
// Hashchain sealing every second settled epoch, pruning on.
var checkpointedOpts = core.Options{
	Algorithm: core.Hashchain, CollectorLimit: 10,
	CheckpointInterval: 2, Prune: true,
}

// deployCheckpointed builds a 4-server Full-mode Hashchain deployment with
// checkpointing + pruning on, feeds it elements and quiesces, so every
// server has a sealed chain and a state-sync snapshot to serve.
func deployCheckpointed(t *testing.T, seed int64) *core.Deployment {
	t.Helper()
	s, d := deployFull(seed, 4, checkpointedOpts)
	addElements(s, d, 60)
	runQuiesce(s, d, 20*time.Second)
	d.Stop()
	return d
}

// Header commitments are consistent across correct servers: seal points
// and content are deterministic, so every server's (epoch, fold) claim
// verifies everywhere — and a tampered fold, or a fold claimed for the
// wrong epoch, verifies nowhere at or below the local horizon.
func TestHeaderCommitmentAcrossServers(t *testing.T) {
	d := deployCheckpointed(t, 11)
	epoch, fold := d.Servers[0].HeaderCommitment()
	if epoch == 0 {
		t.Fatal("no checkpoint sealed; the commitment test is vacuous")
	}
	if want := checkpoint.FoldChain(d.Servers[0].Checkpoints()); fold != want {
		t.Fatalf("incremental fold cache %x diverges from FoldChain %x", fold, want)
	}
	for i, srv := range d.Servers {
		if !srv.VerifyCommitment(epoch, fold) {
			t.Fatalf("server %d rejects server 0's commitment (epoch %d)", i, epoch)
		}
		if srv.VerifyCommitment(epoch, fold^1) {
			t.Fatalf("server %d accepts a tampered fold at epoch %d", i, epoch)
		}
		if !srv.VerifyCommitment(epoch+1000, fold^1) {
			t.Fatalf("server %d rejects a claim beyond its horizon — validators "+
				"cannot falsify state they have not computed", i)
		}
	}
	// Interior prefix claims: the fold through any earlier seal point
	// verifies; the same fold claimed one epoch later does not.
	chain := d.Servers[0].Checkpoints()
	if len(chain) < 2 {
		t.Fatalf("need >= 2 checkpoints, have %d", len(chain))
	}
	prefix := checkpoint.FoldChain(chain[:1])
	if !d.Servers[1].VerifyCommitment(chain[0].Epoch, prefix) {
		t.Fatal("interior prefix commitment rejected")
	}
	if d.Servers[1].VerifyCommitment(chain[1].Epoch, prefix) {
		t.Fatal("prefix fold accepted at the wrong epoch")
	}
}

// The forge-snapshot behavior produces exactly the attack the header
// binding exists for: a snapshot that is internally consistent under every
// local check — so it INSTALLS on a behind server, smuggling bogus
// elements into its set — while its chain cannot fold to any certified
// commitment. If the install here starts failing, the sabotage tests in
// the harness go vacuous.
func TestForgedSnapshotInstallsLocallyButBreaksFold(t *testing.T) {
	d := deployCheckpointed(t, 12)
	forger := d.Servers[3]
	snap, ok := forger.SyncSnapshot()
	if !ok {
		t.Fatal("no sealed snapshot to forge")
	}
	if forger.ServeSnapshot(snap) != snap {
		t.Fatal("a correct server offered something other than the snapshot it sealed")
	}
	forger.SetBehavior(&core.Behavior{ForgeSnapshot: true})
	forged := forger.ServeSnapshot(snap)
	if forged == snap {
		t.Fatal("ForgeSnapshot behavior served the honest snapshot")
	}
	if forged.Last.Height != snap.Last.Height {
		t.Fatalf("forgery moved Last.Height %d -> %d: consensus decides whether to "+
			"offer from the honest handle's height", snap.Last.Height, forged.Last.Height)
	}
	if forged.Last.Epoch != snap.Last.Epoch+1 || len(forged.Chain) != len(snap.Chain)+1 {
		t.Fatalf("forgery shape wrong: Last.Epoch %d vs honest %d, chain %d vs %d",
			forged.Last.Epoch, snap.Last.Epoch, len(forged.Chain), len(snap.Chain))
	}
	if checkpoint.FoldChain(forged.Chain) == checkpoint.FoldChain(snap.Chain) {
		t.Fatal("forged chain folds identically to the honest chain — the header binding could never catch it")
	}
	// A maximally-behind requester (fresh server, empty chain): every local
	// check passes and the forgery installs — the pre-binding trust hole.
	_, fresh := deployFull(13, 4, checkpointedOpts)
	victim := fresh.Servers[0]
	if !victim.InstallSync(forged) {
		t.Fatal("forgery rejected by InstallSync's local checks — it is no longer " +
			"the certified-fold check doing the work, and the sabotage tests are vacuous")
	}
	var smuggled int
	for _, el := range victim.Get().TheSet.All() {
		if el.Bogus {
			smuggled++
		}
	}
	if smuggled == 0 {
		t.Fatal("forgery installed but smuggled nothing — the attack demonstrates no harm")
	}
	fresh.Stop()
}

// A served snapshot must stay readable while the serving server keeps
// running: it shares with the server only what the server never writes
// again — epoch elements and hashes, proofs below the length the seal
// clipped them to, the index's epoch slices — so an installer iterating it
// concurrently must not race the server mutating its index, accepting
// further proofs, sealing further checkpoints, or serving the same snapshot
// again. Run under -race; handing out the live epoch structs or unclipped
// proofs, or rebuilding Members on a second serve, fails here
// deterministically.
func TestSyncSnapshotReadsDoNotRaceServingServer(t *testing.T) {
	s, d := deployFull(14, 4, checkpointedOpts)
	addElements(s, d, 200) // 50ms spacing: injection runs to t=10s
	s.RunUntil(4 * time.Second)
	sealed, ok := d.Servers[0].SyncSnapshot()
	if !ok {
		t.Fatal("no snapshot sealed after 4s; tune the workload")
	}
	snap := d.Servers[0].ServeSnapshot(sealed)
	st := snap.State.(*core.SyncState)
	if len(st.Members) == 0 {
		t.Fatal("served snapshot carries no members")
	}

	// Walk every structure of the served snapshot for the entire remainder
	// of the run, while the serving server keeps adding elements, creating
	// epochs, sealing checkpoints and re-serving on the main goroutine.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var n int
			for _, elems := range st.Members {
				for _, e := range elems {
					n += e.WireSize()
				}
			}
			for _, ep := range st.Epochs {
				n += len(ep.Elements) + len(ep.Hash)
				for _, p := range ep.Proofs {
					n += int(p.Signer)
				}
			}
			for _, ck := range snap.Chain {
				n += int(ck.Epoch)
			}
			_ = n
		}
	}()
	seals := len(d.Servers[0].Checkpoints())
	for at := 5 * time.Second; at <= 10*time.Second; at += time.Second {
		s.RunUntil(at)
		if d.Servers[0].ServeSnapshot(sealed) != snap {
			t.Error("re-serving a snapshot returned a different one")
		}
	}
	runQuiesce(s, d, 15*time.Second)
	close(stop)
	<-done
	d.Stop()
	if len(d.Servers[0].Checkpoints()) == seals {
		t.Fatal("the server sealed nothing while the snapshot was being read; tune the workload")
	}
}

// Sealing leaves the O(state) half of the snapshot unbuilt: a fault-free
// run serves no snapshot, so no server may have paid for one.
func TestSealDoesNotBuildMembersOrSet(t *testing.T) {
	d := deployCheckpointed(t, 15)
	for i, srv := range d.Servers {
		snap, ok := srv.SyncSnapshot()
		if !ok {
			t.Fatalf("server %d sealed no snapshot; the laziness test is vacuous", i)
		}
		if st := snap.State.(*core.SyncState); st.Members != nil {
			t.Fatalf("server %d built Members (%d) for a snapshot nobody asked for", i, len(st.Members))
		}
	}
}

// Late-serve equivalence: a snapshot completed long after its seal —
// after more epochs, more seals and a prune — is the snapshot that would
// have been served at once. Two same-seed deployments take the snapshot
// at t1; A serves it there, B runs to quiescence first. B's late Members
// must match both A's and the eager copy of B's own index taken at t1
// (element pointers included: a key is never rebound), the chain of
// the t1 snapshot must not have moved under B's later seals, and fresh
// victims installing either must end in identical state.
func TestLateServeEquivalence(t *testing.T) {
	const t1 = 4 * time.Second
	start := func() (*sim.Simulator, *core.Deployment, *checkpoint.Snapshot) {
		s, d := deployFull(31, 4, checkpointedOpts)
		addElements(s, d, 200) // 50ms spacing: injection runs to t=10s
		s.RunUntil(t1)
		sealed, ok := d.Servers[0].SyncSnapshot()
		if !ok {
			t.Fatal("no snapshot sealed at t1; tune the workload")
		}
		return s, d, sealed
	}
	_, da, sealedA := start()
	sb, db, sealedB := start()
	if sealedA.Last != sealedB.Last || sealedA.Bytes != sealedB.Bytes {
		t.Fatalf("same-seed deployments sealed different snapshots: %+v vs %+v", sealedA.Last, sealedB.Last)
	}
	early := da.Servers[0].ServeSnapshot(sealedA)
	da.Stop()

	srvB := db.Servers[0]
	refMembers := srvB.EagerSyncMembers(sealedB.Last.Epoch)
	chainT1 := append([]checkpoint.Checkpoint(nil), sealedB.Chain...)
	before := srvB.Get()
	runQuiesce(sb, db, 20*time.Second)
	db.Stop()
	after := srvB.Get()
	if after.Epoch <= before.Epoch || len(after.Checkpoints) <= len(before.Checkpoints) ||
		after.PrunedEpochs <= before.PrunedEpochs {
		t.Fatalf("B did not move on past t1 (epochs %d->%d, seals %d->%d, pruned %d->%d); tune the workload",
			before.Epoch, after.Epoch, len(before.Checkpoints), len(after.Checkpoints),
			before.PrunedEpochs, after.PrunedEpochs)
	}
	t.Logf("checkpoint %d's snapshot served with the server at epoch %d, and at epoch %d after %d more seals",
		sealedB.Last.Epoch, before.Epoch, after.Epoch, len(after.Checkpoints)-len(before.Checkpoints))
	late := srvB.ServeSnapshot(sealedB)
	if late != sealedB {
		t.Fatal("a correct server offered something other than the snapshot it sealed")
	}
	if !reflect.DeepEqual(late.Chain, chainT1) {
		t.Fatalf("later seals rewrote the t1 snapshot's chain:\n got %+v\nwant %+v", late.Chain, chainT1)
	}

	est, lst := early.State.(*core.SyncState), late.State.(*core.SyncState)
	// Against the eager copy: exactly its entries, epoch by epoch, same
	// element pointers.
	if len(refMembers[0]) != 0 {
		t.Fatalf("%d stamped ids are in no epoch slice", len(refMembers[0]))
	}
	if uint64(len(lst.Members)) != sealedB.Last.Epoch {
		t.Fatalf("late snapshot lists %d epochs, its checkpoint covers %d", len(lst.Members), sealedB.Last.Epoch)
	}
	installed := 0
	for i, elems := range lst.Members {
		ref := refMembers[i+1]
		for _, e := range elems {
			if ref[e.ID] != e {
				t.Fatalf("epoch %d lists %x; the t1 copy holds %p under that id", i+1, e.ID[:4], ref[e.ID])
			}
		}
		if len(elems) != len(ref) {
			t.Fatalf("epoch %d lists %d elements, the t1 copy holds %d", i+1, len(elems), len(ref))
		}
		installed += len(elems)
	}
	// Against A's immediate serve (DeepEqual follows the element pointers).
	if !reflect.DeepEqual(est.Members, lst.Members) {
		t.Fatalf("Members differ between the immediate (%d) and the late (%d) serve", len(est.Members), len(lst.Members))
	}
	for _, ep := range lst.Epochs {
		installed += len(ep.Elements)
	}

	// The victims are fresh servers of a deployment of the same seed: the
	// same keys, so the suffix proofs verify.
	install := func(snap *checkpoint.Snapshot) (core.Snapshot, uint64) {
		_, fresh := deployFull(31, 4, checkpointedOpts)
		defer fresh.Stop()
		victim := fresh.Servers[0]
		if !victim.InstallSync(snap) {
			t.Fatal("snapshot rejected by a fresh server")
		}
		return victim.Get(), victim.Settled()
	}
	gotA, settledA := install(early)
	gotB, settledB := install(late)
	// The element index is compared by content — its pages and cursor
	// depend on the order of reads and writes — and the rest field by field.
	setA, setB := gotA.TheSet, gotB.TheSet
	gotA.TheSet, gotB.TheSet = nil, nil
	if settledA != settledB || !setA.Equal(setB) || !reflect.DeepEqual(gotA, gotB) {
		t.Fatalf("victims diverge: settled %d vs %d, epoch %d vs %d, set %d vs %d, checkpoints %d vs %d",
			settledA, settledB, gotA.Epoch, gotB.Epoch, setA.Len(), setB.Len(),
			len(gotA.Checkpoints), len(gotB.Checkpoints))
	}
	if setB.Len() != installed || len(gotB.Checkpoints) != len(chainT1) {
		t.Fatalf("victim holds %d elements and %d checkpoints; the snapshot carried %d and %d",
			setB.Len(), len(gotB.Checkpoints), installed, len(chainT1))
	}
}

// Every epoch holds an element, so a checkpoint that covers more epochs than
// elements is forged, even when its members add up: a checkpoint at epoch
// 2^40 would make the installer's index register an epoch its epoch table
// cannot hold. InstallSync must reject such a snapshot, not panic on it or
// install it.
func TestInstallSyncRejectsMoreEpochsThanElements(t *testing.T) {
	d := deployCheckpointed(t, 19)
	sealed, ok := d.Servers[0].SyncSnapshot()
	if !ok {
		t.Fatal("no sealed snapshot to serve")
	}
	mut := mutateSnapshot(d.Servers[0].ServeSnapshot(sealed), nil)
	st := mut.State.(*core.SyncState)
	ck := mut.Last
	last := len(st.Members) - 1
	for _, ep := range st.Epochs {
		st.Members[last] = append(st.Members[last], ep.Elements...)
		ck.Elements += uint64(len(ep.Elements))
	}
	ck.Epoch = 1 << 40
	mut.Last, mut.Chain, st.Epochs = ck, []checkpoint.Checkpoint{ck}, nil
	_, fresh := deployFull(20, 4, checkpointedOpts)
	defer fresh.Stop()
	if fresh.Servers[0].InstallSync(mut) {
		t.Fatal("a checkpoint of 2^40 epochs over a few hundred elements installed")
	}
}

// A client counts an epoch's proofs on the epoch itself, so a pruned
// snapshot — whose History[0] is epoch PrunedEpochs+1 — verifies like any
// other. (Counting by epoch number read History[epoch-1]: it hashed the
// wrong epoch or ran off the end, and counted 0.)
func TestCountValidProofsAbovePruneHorizon(t *testing.T) {
	s, d := deployFull(18, 4, checkpointedOpts)
	addElements(s, d, 200)
	s.RunUntil(4 * time.Second) // between two seals: settled past the horizon
	d.Stop()
	srv, cl, f := d.Servers[0], d.Clients[0], d.Opts.F
	snap := srv.Get()
	if snap.PrunedEpochs == 0 || len(snap.History) == 0 || srv.Settled() <= snap.PrunedEpochs {
		t.Fatalf("pruned %d epochs, kept %d, settled %d: no settled epoch above the horizon; tune the workload",
			snap.PrunedEpochs, len(snap.History), srv.Settled())
	}
	for _, ep := range snap.History {
		if ep.Number > srv.Settled() {
			break
		}
		if got := cl.CountValidProofs(ep); got < f+1 {
			t.Fatalf("settled epoch %d above the horizon %d counts %d valid proofs, want >= %d",
				ep.Number, snap.PrunedEpochs, got, f+1)
		}
		if n, err := cl.VerifyCommitted(snap, ep.Elements[0].ID); err != nil || n != ep.Number {
			t.Fatalf("element of settled epoch %d: VerifyCommitted = %d, %v", ep.Number, n, err)
		}
	}
}

// refusalFixture is a run of deployFull(23) with two snapshots server 0
// sealed: the first with a suffix proof and no epoch created since, taken
// at at, and the first after it with a longer chain. Victims are server 0 of
// same-seed deployments run to a chosen moment, so their state agrees with
// the snapshots' and their keys verify the proofs: a victim run to at holds
// the first snapshot's suffix epochs, and a strict prefix of the second's
// chain with the epochs of that chain's next entry still retained.
type refusalFixture struct {
	snap, later *checkpoint.Snapshot
	at          time.Duration
}

func newRefusalFixture(t *testing.T) refusalFixture {
	t.Helper()
	s, d := deployFull(23, 4, checkpointedOpts)
	defer d.Stop()
	addElements(s, d, 200)
	var fx refusalFixture
	srv := d.Servers[0]
	var kept []checkpoint.Checkpoint
	for s.Now() < 10*time.Second && fx.later == nil {
		s.RunUntil(s.Now() + 20*time.Millisecond)
		sealed, ok := srv.SyncSnapshot()
		if !ok {
			continue
		}
		st := sealed.State.(*core.SyncState)
		if fx.snap == nil {
			if len(sealed.Chain) >= 2 && len(st.Epochs) >= 2 && len(st.Epochs[0].Proofs) > 0 &&
				srv.Get().Epoch == sealed.Last.Epoch+uint64(len(st.Epochs)) {
				fx.snap, fx.at = srv.ServeSnapshot(sealed), s.Now()
				g := srv.Get()
				kept = g.Checkpoints
				if g.PrunedEpochs != kept[len(kept)-1].Epoch {
					t.Fatal("the victim at the first snapshot is not pruned to its checkpoint")
				}
			}
			continue
		}
		if len(sealed.Chain) > len(kept)+1 && sealed.Chain[len(kept)].Epoch <= fx.snap.Last.Epoch+uint64(len(fx.snap.State.(*core.SyncState).Epochs)) {
			fx.later = srv.ServeSnapshot(sealed)
		}
	}
	if fx.later == nil {
		t.Fatalf("no pair of snapshots the refusals need (first %v); tune the workload", fx.snap != nil)
	}
	return fx
}

// victim returns server 0 of a deployFull(23): run to fx.at with at set, a
// fresh server otherwise.
func (fx refusalFixture) victim(t *testing.T, at bool) (*core.Server, *core.Deployment) {
	s, d := deployFull(23, 4, checkpointedOpts)
	t.Cleanup(d.Stop)
	if at {
		addElements(s, d, 200)
		s.RunUntil(fx.at)
	}
	return d.Servers[0], d
}

// Every check InstallSync makes refuses the snapshot that only it can
// catch, and a refused snapshot leaves the server as it was. Each case
// mutates a copy of one served snapshot that installs on the same victim
// unmutated; a suffix epoch a case rebuilds is rehashed and stripped of
// its proofs, so that only the check under test sees it.
func TestInstallSyncRefusals(t *testing.T) {
	fx := newRefusalFixture(t)
	t.Logf("snapshot at %v: checkpoint %d of %d, %d suffix epochs; the later one: checkpoint %d of %d", fx.at,
		fx.snap.Last.Epoch, len(fx.snap.Chain), len(fx.snap.State.(*core.SyncState).Epochs),
		fx.later.Last.Epoch, len(fx.later.Chain))
	rehash := func(d *core.Deployment, ep *core.Epoch) {
		ep.Hash = d.Ledger.Suite.HashData(wire.EpochHashInput(ep.Number, ep.Elements))
		ep.Proofs = nil
	}
	bogus := &wire.Element{Client: wire.ClientID(-1), Size: 100, Bogus: true}
	bogus.ID[0] = 0xFE
	type mutation func(d *core.Deployment, mut *checkpoint.Snapshot, st *core.SyncState)
	// A case's victim is a fresh server, or with at set the one run to
	// fx.at, which prep changes further; later picks the later snapshot.
	cases := []struct {
		name      string
		at, later bool
		prep      func(v *core.Server, d *core.Deployment)
		mut       mutation
	}{
		{"no state", false, false, nil, func(_ *core.Deployment, mut *checkpoint.Snapshot, _ *core.SyncState) { mut.State = nil }},
		{"nil state", false, false, nil, func(_ *core.Deployment, mut *checkpoint.Snapshot, _ *core.SyncState) {
			mut.State = (*core.SyncState)(nil)
		}},
		{"empty chain", false, false, nil, func(_ *core.Deployment, mut *checkpoint.Snapshot, _ *core.SyncState) { mut.Chain = nil }},
		{"chain ends before Last", false, false, nil, func(_ *core.Deployment, mut *checkpoint.Snapshot, _ *core.SyncState) {
			mut.Last.Digest ^= 1
		}},
		{"older than local state", true, false, func(v *core.Server, d *core.Deployment) {
			v.CreateEpoch([]*wire.Element{d.Clients[0].NewElement([]byte("one epoch more"))})
		}, func(*core.Deployment, *checkpoint.Snapshot, *core.SyncState) {}},
		{"a member list missing", false, false, nil, func(_ *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			st.Members = st.Members[:len(st.Members)-1]
		}},
		{"an empty member list", false, false, nil, func(_ *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			st.Members[1] = append(st.Members[1], st.Members[0]...)
			st.Members[0] = nil
		}},
		{"a nil member", false, false, nil, func(_ *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) { st.Members[0][0] = nil }},
		{"an id twice in the member lists", false, false, nil, func(_ *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			st.Members[1][0] = st.Members[0][0]
		}},
		{"an id in the member lists and the suffix", false, false, nil, func(_ *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			st.Members[0][0] = st.Epochs[0].Elements[0]
		}},
		{"a member more than certified", false, false, nil, func(_ *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			st.Members[0] = append(st.Members[0], bogus)
		}},
		{"a local checkpoint differs", true, true, nil, func(_ *core.Deployment, mut *checkpoint.Snapshot, _ *core.SyncState) {
			mut.Chain[0].Digest ^= 1
		}},
		{"the chain descends", true, true, nil, func(d *core.Deployment, mut *checkpoint.Snapshot, _ *core.SyncState) {
			k := len(d.Servers[0].Checkpoints())
			mut.Chain = slices.Insert(mut.Chain, k, mut.Chain[0])
		}},
		{"retained epochs do not fold", true, true, nil, func(d *core.Deployment, mut *checkpoint.Snapshot, _ *core.SyncState) {
			mut.Chain[len(d.Servers[0].Checkpoints())].Digest ^= 1
			mut.Last = mut.Chain[len(mut.Chain)-1]
		}},
		{"a nil suffix epoch", false, false, nil, func(_ *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) { st.Epochs[0] = nil }},
		{"a nil suffix element", false, false, nil, func(_ *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			st.Epochs[0].Elements[0] = nil
		}},
		{"a suffix epoch misnumbered", false, false, nil, func(d *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			ep := st.Epochs[len(st.Epochs)-1]
			ep.Number++
			rehash(d, ep)
		}},
		{"a suffix hash that does not recompute", false, false, nil, func(d *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			ep := st.Epochs[len(st.Epochs)-1]
			rehash(d, ep)
			ep.Hash[0] ^= 1
		}},
		{"a suffix epoch unlike the local one", true, false, nil, func(d *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			ep := st.Epochs[len(st.Epochs)-1]
			ep.Elements = ep.Elements[:len(ep.Elements)-1]
			rehash(d, ep)
		}},
		{"a proof with a bad signature", false, false, nil, func(_ *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			ep := st.Epochs[0]
			signer := wire.NodeID(0)
			for slices.ContainsFunc(ep.Proofs, func(p *wire.EpochProof) bool { return p.Signer == signer }) {
				signer++
			}
			ep.Proofs = append(ep.Proofs, &wire.EpochProof{Epoch: ep.Number, EpochHash: ep.Hash,
				Sig: bytes.Repeat([]byte{7}, 64), Signer: signer})
		}},
		{"two bad proofs from one signer", false, false, nil, func(_ *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			ep := st.Epochs[0]
			for range 2 {
				ep.Proofs = append(ep.Proofs, &wire.EpochProof{Epoch: ep.Number, EpochHash: ep.Hash,
					Sig: bytes.Repeat([]byte{7}, 64), Signer: 3})
			}
		}},
		{"a proof listed twice", false, false, nil, func(_ *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			ep := st.Epochs[0]
			ep.Proofs = append(ep.Proofs, ep.Proofs[0])
		}},
		{"a proof of another epoch", false, false, nil, func(_ *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			p := *st.Epochs[0].Proofs[0]
			p.Epoch++
			st.Epochs[0].Proofs[0] = &p
		}},
		{"a nil proof", false, false, nil, func(_ *core.Deployment, _ *checkpoint.Snapshot, st *core.SyncState) {
			st.Epochs[0].Proofs = append(st.Epochs[0].Proofs, nil)
		}},
	}
	// The unmutated snapshots install on the victims the cases use.
	for _, base := range []struct {
		at   bool
		snap *checkpoint.Snapshot
	}{{false, fx.snap}, {true, fx.snap}, {true, fx.later}} {
		if v, _ := fx.victim(t, base.at); !v.InstallSync(mutateSnapshot(base.snap, nil)) {
			t.Fatalf("a snapshot at checkpoint %d does not install unmutated on the victim (at %v); the cases are vacuous",
				base.snap.Last.Epoch, base.at)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, d := fx.victim(t, tc.at)
			if tc.prep != nil {
				tc.prep(v, d)
			}
			snap := fx.snap
			if tc.later {
				snap = fx.later
			}
			mut := mutateSnapshot(snap, nil)
			tc.mut(d, mut, mut.State.(*core.SyncState))
			before, settled, set := v.Get(), v.Settled(), v.Get().TheSet.Len()
			if v.InstallSync(mut) {
				t.Fatal("installed")
			}
			after := v.Get()
			if after.Epoch != before.Epoch || after.PrunedEpochs != before.PrunedEpochs ||
				len(after.Checkpoints) != len(before.Checkpoints) || v.Settled() != settled || after.TheSet.Len() != set {
				t.Fatalf("a refused install changed the server: epoch %d -> %d, pruned %d -> %d, checkpoints %d -> %d, settled %d -> %d, set %d -> %d",
					before.Epoch, after.Epoch, before.PrunedEpochs, after.PrunedEpochs,
					len(before.Checkpoints), len(after.Checkpoints), settled, v.Settled(), set, after.TheSet.Len())
			}
		})
	}
}
