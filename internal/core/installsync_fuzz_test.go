package core_test

import (
	"maps"
	"reflect"
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
// that passes BOTH layers may smuggle a bogus element or a different
// sealed chain into the victim. Mutations stay within the catchable
// classes — forged digests, truncations, count inflation, epoch splices,
// index smuggling, elements filed under another id, nil members and nil
// suffix elements; element-value swaps below the horizon are the
// documented residual hole (they need Merkle state proofs) and are not
// generated.
func FuzzInstallSync(f *testing.F) {
	s, d := deployFull(21, 4, checkpointedOpts)
	addElements(s, d, 120)
	s.RunUntil(5 * time.Second) // mid-run: sealed chain AND unsettled suffix epochs
	sealed, ok := d.Servers[0].SyncSnapshot()
	if !ok {
		f.Fatal("no snapshot sealed after 5s")
	}
	snap := d.Servers[0].ServeSnapshot(sealed)
	base := snap.State.(*core.SyncState)
	if len(snap.Chain) < 2 || len(base.Epochs) == 0 || uint64(len(base.Members)) <= snap.Last.Elements {
		f.Fatalf("weak base snapshot (chain %d, suffix %d, members %d); tune the workload",
			len(snap.Chain), len(base.Epochs), len(base.Members))
	}
	certEpoch, certFold := snap.Last.Epoch, checkpoint.FoldChain(snap.Chain)
	d.Stop()

	freshVictim := func() (*core.Deployment, *core.Server) {
		_, fd := deployFull(22, 4, checkpointedOpts)
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
		for _, el := range victim.Get().TheSet.All() {
			if el.Bogus {
				t.Fatalf("bogus element %x installed through the certified pipeline", el.ID[:4])
			}
		}
		cks := victim.Checkpoints()
		if len(cks) == 0 || !cks[len(cks)-1].Same(snap.Last) {
			t.Fatal("installed chain head differs from the certified checkpoint")
		}
		// No mutation touches the pending signer sets: the victim's batch
		// records must now hold exactly the snapshot's.
		if got := victim.PendingSigners(); len(got) != len(base.PendingSigners) ||
			(len(got) > 0 && !reflect.DeepEqual(got, base.PendingSigners)) {
			t.Fatalf("installed pending signer sets %v, the snapshot's are %v", got, base.PendingSigners)
		}
	})
}

// mutateSnapshot deep-copies the base snapshot and applies the mutation
// ops encoded in data as (op, arg) byte pairs.
func mutateSnapshot(snap *checkpoint.Snapshot, data []byte) *checkpoint.Snapshot {
	base := snap.State.(*core.SyncState)
	st := &core.SyncState{
		LastEpoch:      base.LastEpoch,
		CkptBytes:      base.CkptBytes,
		Members:        maps.Clone(base.Members),
		PendingSigners: base.PendingSigners,
	}
	for _, ep := range base.Epochs {
		st.Epochs = append(st.Epochs, &core.Epoch{
			Number:   ep.Number,
			Elements: append([]*wire.Element(nil), ep.Elements...),
			Hash:     append([]byte(nil), ep.Hash...),
			Proofs:   append([]*wire.EpochProof(nil), ep.Proofs...),
		})
	}
	mut := &checkpoint.Snapshot{
		Last:  snap.Last,
		Chain: append([]checkpoint.Checkpoint(nil), snap.Chain...),
		State: st,
		Bytes: snap.Bytes,
	}
	bogusN := 0
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%10, data[i+1]
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
		case 3: // inflate the claimed top epoch
			st.LastEpoch += uint64(arg%3) + 1
		case 4: // smuggle a bogus element through the index
			e := &wire.Element{Client: wire.ClientID(-1), Size: 100, Bogus: true}
			e.ID[0], e.ID[1], e.ID[2] = 0xFE, arg, byte(bogusN)
			bogusN++
			epn := mut.Last.Epoch // below the horizon
			if arg%2 == 1 && len(st.Epochs) > 0 {
				epn = st.Epochs[int(arg/2)%len(st.Epochs)].Number // suffix range
			}
			st.Members[e.ID] = core.Member{Element: e, Epoch: epn}
		case 5: // splice a suffix epoch's number
			if len(st.Epochs) > 0 {
				st.Epochs[int(arg)%len(st.Epochs)].Number++
			}
		case 6: // drop a suffix epoch, leaving its elements indexed
			if len(st.Epochs) > 0 {
				st.Epochs = st.Epochs[:len(st.Epochs)-1]
			}
		case 7: // file two suffix elements under each other's id
			if len(st.Epochs) > 0 && len(st.Epochs[0].Elements) > 1 {
				els := st.Epochs[0].Elements
				i := int(arg) % len(els)
				if els[i] == nil || els[(i+1)%len(els)] == nil {
					break // class 9 got there first
				}
				idA, idB := els[i].ID, els[(i+1)%len(els)].ID
				a, b := st.Members[idA], st.Members[idB]
				a.Element, b.Element = b.Element, a.Element
				st.Members[idA], st.Members[idB] = a, b
			}
		case 8: // duplicate a suffix element into another suffix epoch
			if len(st.Epochs) > 1 {
				src := st.Epochs[0]
				dst := st.Epochs[1]
				if len(src.Elements) > 0 {
					dst.Elements = append(dst.Elements, src.Elements[int(arg)%len(src.Elements)])
				}
			}
		case 9: // a nil entry: a member without its element, or a nil suffix element
			if len(st.Epochs) > 0 && len(st.Epochs[0].Elements) > 0 {
				els := st.Epochs[0].Elements
				k := int(arg/2) % len(els)
				if els[k] == nil {
					break
				}
				if arg%2 == 0 {
					m := st.Members[els[k].ID]
					m.Element = nil
					st.Members[els[k].ID] = m
				} else {
					els[k] = nil
				}
			}
		}
	}
	return mut
}
