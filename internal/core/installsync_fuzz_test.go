package core_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/wire"
)

// FuzzInstallSync drives mutated state-sync snapshots through the full
// install pipeline a recovering server runs: the consensus-side gate (the
// snapshot chain must fold to the certified header commitment) followed by
// InstallSync's local consistency checks. The oracle is the layered trust
// model of DESIGN.md §15: InstallSync must never panic, and no snapshot
// that passes BOTH layers may smuggle a bogus element, lose an element,
// carry a proof that does not verify or a different sealed chain into the
// victim. Mutations stay within the catchable classes — forged digests,
// truncations, count inflation, member-list reshaping, epoch splices,
// member smuggling, an id listed twice, nil members and nil suffix
// elements, bad and repeated proofs; element-value swaps below the horizon
// are the documented residual hole (they need Merkle state proofs) and are
// not generated.
func FuzzInstallSync(f *testing.F) {
	s, d := deployFull(21, 4, checkpointedOpts)
	addElements(s, d, 120)
	// Mid-run: the first sealed snapshot with a chain, member lists and a
	// suffix epoch some proof already rides on.
	var snap *checkpoint.Snapshot
	for s.Now() < 10*time.Second && snap == nil {
		s.RunUntil(s.Now() + 50*time.Millisecond)
		sealed, ok := d.Servers[0].SyncSnapshot()
		if !ok || len(sealed.Chain) < 2 || !slices.ContainsFunc(sealed.State.(*core.SyncState).Epochs,
			func(ep *core.Epoch) bool { return len(ep.Proofs) > 0 }) {
			continue
		}
		snap = d.Servers[0].ServeSnapshot(sealed)
	}
	if snap == nil {
		f.Fatal("no sealed snapshot with a suffix proof by 10s; tune the workload")
	}
	base := snap.State.(*core.SyncState)
	certEpoch, certFold := snap.Last.Epoch, checkpoint.FoldChain(snap.Chain)
	d.Stop()

	// A victim is a fresh server of a deployment of the same seed: the same
	// keys, so the suffix proofs verify.
	freshVictim := func() (*core.Deployment, *core.Server) {
		_, fd := deployFull(21, 4, checkpointedOpts)
		return fd, fd.Servers[0]
	}
	// The unmutated copy must install, or every mutation below is rejected
	// for the base's own defect and the oracle never runs.
	fd, victim := freshVictim()
	if !victim.InstallSync(mutateSnapshot(snap, nil)) {
		f.Fatal("the served snapshot itself does not install; the fuzz target is vacuous")
	}
	fd.Stop()

	for _, seed := range [][]byte{
		{}, {0, 0}, {1, 0}, {1, 1}, {2, 3}, {3, 1}, {4, 0}, {4, 1},
		{5, 0}, {6, 0}, {7, 0}, {8, 0}, {9, 0}, {9, 1}, {4, 1, 1, 0}, {2, 0, 5, 1},
		{9, 1, 7, 0}, {9, 1, 9, 0},
		{3, 0}, {3, 2}, {7, 1}, {10, 0}, {11, 0, 11, 0}, {12, 0}, {6, 0, 11, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mut := mutateSnapshot(snap, data)
		fd, victim := freshVictim()
		defer fd.Stop()
		gate := len(mut.Chain) > 0 && mut.Last.Epoch == certEpoch &&
			checkpoint.FoldChain(mut.Chain) == certFold
		installed := victim.InstallSync(mut) // must never panic
		if !gate || !installed {
			return
		}
		// Both layers passed: the installed state must be the certified one.
		got := victim.Get()
		want := int(snap.Last.Elements)
		for _, ep := range got.History {
			want += len(ep.Elements)
			if n := fd.Clients[0].CountValidProofs(ep); n != len(ep.Proofs) {
				t.Fatalf("installed epoch %d holds %d proofs, %d of them valid and from distinct signers",
					ep.Number, len(ep.Proofs), n)
			}
		}
		if n := got.TheSet.Len(); n != want {
			t.Fatalf("installed set holds %d elements; the checkpoint and the installed suffix hold %d", n, want)
		}
		for _, el := range got.TheSet.All() {
			if el.Bogus {
				t.Fatalf("bogus element %x installed through the certified pipeline", el.ID[:4])
			}
		}
		cks := victim.Checkpoints()
		if len(cks) == 0 || !cks[len(cks)-1].Same(snap.Last) {
			t.Fatal("installed chain head differs from the certified checkpoint")
		}
		// No mutation touches the pending batches: the victim's batch records
		// must now hold exactly the snapshot's signer sets.
		if got := victim.PendingBatches(); len(got) != len(base.Pending) ||
			(len(got) > 0 && !reflect.DeepEqual(got, base.Pending)) {
			t.Fatalf("installed pending batches %v, the snapshot's are %v", got, base.Pending)
		}
	})
}

// mutateSnapshot deep-copies the base snapshot and applies the mutation
// ops encoded in data as (op, arg) byte pairs.
func mutateSnapshot(snap *checkpoint.Snapshot, data []byte) *checkpoint.Snapshot {
	base := snap.State.(*core.SyncState)
	st := &core.SyncState{Pending: base.Pending}
	for _, elems := range base.Members {
		st.Members = append(st.Members, slices.Clone(elems))
	}
	for _, ep := range base.Epochs {
		st.Epochs = append(st.Epochs, &core.Epoch{
			Number:   ep.Number,
			Elements: slices.Clone(ep.Elements),
			Hash:     bytes.Clone(ep.Hash),
			Proofs:   slices.Clone(ep.Proofs),
		})
	}
	mut := &checkpoint.Snapshot{
		Last:  snap.Last,
		Chain: slices.Clone(snap.Chain),
		State: st,
		Bytes: snap.Bytes,
	}
	// member returns the k-th member counting across the lists, as list and
	// position, or false if the lists hold none.
	member := func(k int) (int, int, bool) {
		n := 0
		for _, elems := range st.Members {
			n += len(elems)
		}
		if n == 0 {
			return 0, 0, false
		}
		k %= n
		for i, elems := range st.Members {
			if k < len(elems) {
				return i, k, true
			}
			k -= len(elems)
		}
		panic("unreachable")
	}
	bogusN := 0
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%13, data[i+1]
		switch op {
		case 0: // truncate the chain (older snapshot — gate must reject)
			if len(mut.Chain) > 1 {
				mut.Chain = mut.Chain[:len(mut.Chain)-1]
				mut.Last = mut.Chain[len(mut.Chain)-1]
			}
		case 1: // forge a chain digest (keeping Last == Chain[last] coherent)
			k := int(arg) % len(mut.Chain)
			mut.Chain[k].Digest ^= 0x5a5a
			mut.Last = mut.Chain[len(mut.Chain)-1]
		case 2: // inflate a cumulative element count
			k := int(arg) % len(mut.Chain)
			mut.Chain[k].Elements += uint64(arg) + 1
			mut.Last = mut.Chain[len(mut.Chain)-1]
		case 3: // reshape the member lists: drop the last, add an empty one, or empty one into its neighbor
			if len(st.Members) < 2 {
				break
			}
			switch arg % 3 {
			case 0:
				st.Members = st.Members[:len(st.Members)-1]
			case 1:
				st.Members = append(st.Members, nil)
			case 2:
				k := int(arg/3) % (len(st.Members) - 1)
				st.Members[k+1] = append(st.Members[k+1], st.Members[k]...)
				st.Members[k] = nil
			}
		case 4: // smuggle a bogus element into a member list or a suffix epoch
			e := &wire.Element{Client: wire.ClientID(-1), Size: 100, Bogus: true}
			e.ID[0], e.ID[1], e.ID[2] = 0xFE, arg, byte(bogusN)
			bogusN++
			if arg%2 == 1 && len(st.Epochs) > 0 {
				ep := st.Epochs[int(arg/2)%len(st.Epochs)]
				ep.Elements = append(ep.Elements, e)
			} else if len(st.Members) > 0 {
				k := int(arg/2) % len(st.Members)
				st.Members[k] = append(st.Members[k], e)
			}
		case 5: // splice a suffix epoch's number
			if len(st.Epochs) > 0 {
				st.Epochs[int(arg)%len(st.Epochs)].Number++
			}
		case 6: // drop the last suffix epoch
			if len(st.Epochs) > 0 {
				st.Epochs = st.Epochs[:len(st.Epochs)-1]
			}
		case 7: // list an id twice within the member lists, in place of another member
			a, j, okA := member(int(arg))
			b, k, okB := member(int(arg)*7 + 1)
			if okA && okB && (a != b || j != k) {
				st.Members[b][k] = st.Members[a][j]
			}
		case 8: // duplicate a suffix element into another suffix epoch
			if len(st.Epochs) > 1 {
				src := st.Epochs[0]
				dst := st.Epochs[1]
				if len(src.Elements) > 0 {
					dst.Elements = append(dst.Elements, src.Elements[int(arg)%len(src.Elements)])
				}
			}
		case 9: // a nil entry: a nil member, or a nil suffix element
			if arg%2 == 0 {
				if a, j, ok := member(int(arg / 2)); ok {
					st.Members[a][j] = nil
				}
			} else if len(st.Epochs) > 0 && len(st.Epochs[0].Elements) > 0 {
				els := st.Epochs[0].Elements
				els[int(arg/2)%len(els)] = nil
			}
		case 10: // list a suffix element in a member list too, in place of a member
			if a, j, ok := member(int(arg)); ok && len(st.Epochs) > 0 {
				els := st.Epochs[int(arg)%len(st.Epochs)].Elements
				if len(els) > 0 {
					st.Members[a][j] = els[int(arg/3)%len(els)]
				}
			}
		case 11: // a proof with a garbage signature on a suffix epoch
			if len(st.Epochs) > 0 {
				ep := st.Epochs[int(arg/4)%len(st.Epochs)]
				ep.Proofs = append(ep.Proofs, &wire.EpochProof{
					Epoch: ep.Number, EpochHash: ep.Hash, Sig: bytes.Repeat([]byte{arg}, 64), Signer: wire.NodeID(arg % 4),
				})
			}
		case 12: // a suffix epoch's proof listed twice
			for _, ep := range st.Epochs {
				if len(ep.Proofs) > 0 {
					ep.Proofs = append(ep.Proofs, ep.Proofs[int(arg)%len(ep.Proofs)])
					break
				}
			}
		}
	}
	return mut
}
