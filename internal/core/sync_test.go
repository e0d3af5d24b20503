package core_test

import (
	"reflect"
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
// running: the seal-time half of SyncState is a copy, the serve-time half
// is built once from the live maps and never written again, so concurrent
// iteration by an installer (another partition in a parallel run) must not
// race the server mutating its live maps, accepting further proofs, sealing
// further checkpoints, or serving the same snapshot again. Run under -race;
// handing out the live maps or epochs, or rebuilding Members on a second
// serve, fails here deterministically.
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
			for _, m := range st.Members {
				if m.Epoch > st.LastEpoch {
					panic("served index entry above LastEpoch")
				}
				n += m.Element.WireSize()
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
	refMembers := srvB.EagerSyncMembers()
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
	if len(lst.Members) == 0 {
		t.Fatal("late snapshot carries no members")
	}
	// Against the eager copy: exactly its entries through LastEpoch, same
	// epoch numbers, same element pointers.
	var through int
	for id, ref := range refMembers {
		if ref.Epoch > lst.LastEpoch {
			continue
		}
		through++
		got, ok := lst.Members[id]
		if !ok || got.Epoch != ref.Epoch {
			t.Fatalf("member %x: late index says %d (present %v), the t1 copy says %d", id[:4], got.Epoch, ok, ref.Epoch)
		}
		if got.Element != ref.Element {
			t.Fatalf("member %x: late index holds a different element than the_set did at t1", id[:4])
		}
	}
	if through != len(lst.Members) {
		t.Fatalf("late index has %d entries, the t1 copy %d through epoch %d", len(lst.Members), through, lst.LastEpoch)
	}
	// Against A's immediate serve (DeepEqual follows the element pointers).
	if !reflect.DeepEqual(est.Members, lst.Members) {
		t.Fatalf("Members differ between the immediate (%d) and the late (%d) serve", len(est.Members), len(lst.Members))
	}

	install := func(snap *checkpoint.Snapshot) (core.Snapshot, uint64) {
		_, fresh := deployFull(32, 4, checkpointedOpts)
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
	if setB.Len() != len(lst.Members) || len(gotB.Checkpoints) != len(chainT1) {
		t.Fatalf("victim holds %d elements and %d checkpoints; the snapshot carried %d and %d",
			setB.Len(), len(gotB.Checkpoints), len(lst.Members), len(chainT1))
	}
}

// A snapshot whose membership index files an element under an id that is
// not the element's own must not install: the installer's index is keyed by
// the element's id, so the entry would land beside the one the snapshot's
// index promised.
func TestInstallSyncRejectsElementFiledUnderAnotherID(t *testing.T) {
	d := deployCheckpointed(t, 16)
	sealed, ok := d.Servers[0].SyncSnapshot()
	if !ok {
		t.Fatal("no sealed snapshot to serve")
	}
	mut := mutateSnapshot(d.Servers[0].ServeSnapshot(sealed), nil)
	st := mut.State.(*core.SyncState)
	var a, b *wire.Element
	for _, m := range st.Members {
		if a == nil {
			a = m.Element
		} else if b == nil {
			b = m.Element
		}
	}
	if b == nil {
		t.Fatal("snapshot carries fewer than two elements; tune the workload")
	}
	_, fresh := deployFull(17, 4, checkpointedOpts)
	defer fresh.Stop()
	if !fresh.Servers[1].InstallSync(mutateSnapshot(mut, nil)) {
		t.Fatal("the unmutated copy does not install; the test is vacuous")
	}
	ma, mb := st.Members[a.ID], st.Members[b.ID]
	ma.Element, mb.Element = b, a
	st.Members[a.ID], st.Members[b.ID] = ma, mb
	if fresh.Servers[0].InstallSync(mut) {
		t.Fatal("a snapshot with two index entries' elements swapped installed")
	}
}

// Every epoch holds an element, so a checkpoint that covers more epochs than
// elements is forged, even when its members add up: one member filed under
// the checkpoint's own epoch, 2^40, would make the installer's index
// register an epoch its locators cannot hold. InstallSync must reject such a
// snapshot, not panic on it or install it.
func TestInstallSyncRejectsMoreEpochsThanElements(t *testing.T) {
	d := deployCheckpointed(t, 19)
	sealed, ok := d.Servers[0].SyncSnapshot()
	if !ok {
		t.Fatal("no sealed snapshot to serve")
	}
	mut := mutateSnapshot(d.Servers[0].ServeSnapshot(sealed), nil)
	st := mut.State.(*core.SyncState)
	ck := mut.Last
	ck.Epoch, ck.Elements = 1<<40, uint64(len(st.Members))
	mut.Last, mut.Chain = ck, []checkpoint.Checkpoint{ck}
	st.Epochs, st.LastEpoch = nil, ck.Epoch
	for id, m := range st.Members {
		m.Epoch = ck.Epoch
		st.Members[id] = m
		break
	}
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
