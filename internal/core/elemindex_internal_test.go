package core

import (
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/wire"
)

// modelEntry is the reference model's view of one id: the element the id is
// bound to and the epoch that stamped it (0: pending).
type modelEntry struct {
	e     *wire.Element
	epoch uint64
}

// indexReach counts what a driven sequence made the pending ring do.
type indexReach struct {
	grows, compactions, wraps, seqWraps int
}

// elemIndexSeeds are FuzzElemIndex's seeds, and TestElemIndexModel's table:
// each names the ring behavior it must reach. Byte 0 bit 0 starts the ring's
// sequence numbers just below the uint32 wrap; the rest is (op, arg) pairs
// (driveElemIndex).
var elemIndexSeeds = []struct {
	name string
	data []byte
	want indexReach
}{
	{"empty", []byte{0}, indexReach{}},
	{"adds then one epoch", []byte{0, 0, 20, 1, 3}, indexReach{grows: 2}},
	// One straggler pins the head, the eight ids after it are stamped, and
	// the next run of adds fills a ring half of which is released.
	{"a straggler forces a compaction", []byte{0, 4, 0, 0, 7, 1, 7, 0, 31}, indexReach{grows: 2, compactions: 1}},
	{"sequence numbers wrap", []byte{1,
		0, 31, 1, 2, 1, 4, 0, 12, 1, 6, 0, 31, 3, 5, 2, 9, 2, 200, 1, 8,
	}, indexReach{grows: 3, wraps: 1, seqWraps: 1}},
	{"install-style groups beside epochs", []byte{0,
		0, 25, 3, 0, 3, 7, 1, 5, 2, 40, 2, 41, 3, 130, 4, 9, 0, 3, 3, 255,
	}, indexReach{grows: 2}},
}

// driveElemIndex applies the ops encoded in data to an index and to a
// map-of-ids model, and fails t as soon as the two disagree or the ring
// breaks its own invariants. Ops, chosen by op%5 with argument arg:
//
//	0: Add a run of arg%32+1 fresh ids, then re-Add an old one with another object;
//	1: stampEpoch a fresh epoch number over a selection of known ids (pending,
//	   stamped and repeated ones, each other object of an id when arg&2), plus a
//	   never-added id when arg&1;
//	2: Stamp one id — known or fresh — with an arbitrary epoch;
//	3: stampMembers over a selection of ids spread across epochs, some above
//	   the cut, the way InstallSync installs a snapshot;
//	4: Add a run of stragglers: ids no stamp ever selects.
func driveElemIndex(t testing.TB, data []byte) indexReach {
	var (
		x        ElemIndex
		model    = map[wire.ElementID]modelEntry{}
		known    []wire.ElementID // ids ops 1–3 may select, in first-seen order
		seq      = map[wire.ClientID]uint64{}
		topEpoch uint64
		reach    indexReach
	)
	if len(data) > 0 && data[0]&1 == 1 {
		x.pending.head = math.MaxUint32 - 40
		x.pending.next = x.pending.head
	}
	fresh := func(client wire.ClientID) *wire.Element {
		seq[client]++
		return &wire.Element{ID: wire.NewElementID(client, seq[client]), Client: client, Seq: seq[client], Size: 1}
	}
	// object returns the element to use for id: the model's, or another
	// object of the same id.
	object := func(id wire.ElementID, other bool) *wire.Element {
		if ent, ok := model[id]; ok && !other {
			return ent.e
		}
		return &wire.Element{ID: id, Size: 2}
	}
	selectIDs := func(arg byte) []wire.ElementID {
		if len(known) == 0 {
			return nil
		}
		var ids []wire.ElementID
		for j := 0; j <= int(arg%8); j++ {
			ids = append(ids, known[(int(arg)*7+j*3)%len(known)])
		}
		return ids
	}
	add := func(e *wire.Element, straggler bool) {
		r := &x.pending
		slots, span := len(r.slots), r.next-r.head
		_, had := model[e.ID]
		if got := x.Add(e); got == had {
			t.Fatalf("Add(%v) = %v with the id present=%v", e.ID, got, had)
		}
		if !had {
			model[e.ID] = modelEntry{e: e}
			if !straggler {
				known = append(known, e.ID)
			}
		}
		switch {
		case len(r.slots) > slots:
			reach.grows++
		case r.next-r.head < span:
			reach.compactions++
		}
		if r.next < r.head {
			reach.seqWraps++
		}
	}
	// stampModel stamps e's id with epoch unless an epoch holds it already;
	// keep binds a pending id to the object it was added with (Stamp), not
	// to e (stampEpoch).
	stampModel := func(e *wire.Element, epoch uint64, keep bool) bool {
		ent, ok := model[e.ID]
		if ok && ent.epoch != 0 {
			return false
		}
		if !ok {
			known = append(known, e.ID)
		} else if keep {
			e = ent.e
		}
		model[e.ID] = modelEntry{e: e, epoch: epoch}
		return true
	}
	for i := 1; i+1 < len(data); i += 2 {
		op, arg := data[i]%5, data[i+1]
		switch op {
		case 0:
			for range int(arg%32) + 1 {
				add(fresh(1), false)
			}
			if len(known) > 0 {
				add(object(known[int(arg)%len(known)], true), false)
			}
		case 1:
			topEpoch++
			var elems []*wire.Element
			for _, id := range selectIDs(arg) {
				elems = append(elems, object(id, arg&2 != 0))
			}
			if arg&1 != 0 {
				elems = append(elems, fresh(3))
			}
			var want []*wire.Element
			for _, e := range elems {
				if stampModel(e, topEpoch, false) {
					want = append(want, e)
				}
			}
			if got := x.stampEpoch(topEpoch, elems); !slices.Equal(got, want) {
				t.Fatalf("stampEpoch(%d) kept %d elements, the model %d", topEpoch, len(got), len(want))
			}
		case 2:
			e := fresh(3)
			if len(known) > 0 && arg&1 == 0 {
				e = object(known[int(arg/2)%len(known)], true)
			}
			epoch := uint64(arg%40) + 1
			topEpoch = max(topEpoch, epoch)
			want := stampModel(e, epoch, true)
			if got := x.Stamp(e, epoch); got != want {
				t.Fatalf("Stamp(%v, %d) = %v, the model says %v", e.ID, epoch, got, want)
			}
		case 3:
			through := topEpoch + uint64(arg%4)
			members := map[wire.ElementID]Member{}
			for j, id := range selectIDs(arg) {
				epoch := uint64(j%5) + 1 + uint64(arg%3)
				members[id] = Member{Element: object(id, arg&4 != 0), Epoch: epoch}
			}
			for _, m := range members {
				if m.Epoch <= through {
					stampModel(m.Element, m.Epoch, false)
				}
			}
			x.stampMembers(members, through)
			topEpoch = max(topEpoch, through)
		case 4:
			for range int(arg%16) + 1 {
				add(fresh(2), true)
			}
		}
		checkAgainstModel(t, &x, model, topEpoch)
		if r := &x.pending; r.live > 0 && r.head&uint32(len(r.slots)-1) > (r.next-1)&uint32(len(r.slots)-1) {
			reach.wraps++
		}
	}
	return reach
}

// checkAgainstModel compares every reading of x with the model, and the
// pending ring with its invariants.
func checkAgainstModel(t testing.TB, x *ElemIndex, model map[wire.ElementID]modelEntry, topEpoch uint64) {
	t.Helper()
	if x.Len() != len(model) {
		t.Fatalf("Len %d, the model holds %d", x.Len(), len(model))
	}
	pending := 0
	for id, ent := range model {
		if !x.Has(id) || x.Epoch(id) != ent.epoch {
			t.Fatalf("id %v: Has %v epoch %d, the model says epoch %d", id, x.Has(id), x.Epoch(id), ent.epoch)
		}
		if ent.epoch == 0 {
			pending++
		}
	}
	if x.Pending() != pending {
		t.Fatalf("the ring holds %d live elements, the model %d pending ones", x.Pending(), pending)
	}
	r := &x.pending
	if int(r.next-r.head) > len(r.slots) || len(r.slots)&(len(r.slots)-1) != 0 {
		t.Fatalf("ring spans %d sequence numbers over %d slots", r.next-r.head, len(r.slots))
	}
	if r.live > 0 && r.slots[r.head&uint32(len(r.slots)-1)] == nil {
		t.Fatal("the ring's head is a released slot")
	}
	inSpan := 0
	for seq := r.head; seq != r.next; seq++ {
		if r.slots[seq&uint32(len(r.slots)-1)] != nil {
			inSpan++
		}
	}
	nonNil := 0
	for _, e := range r.slots {
		if e != nil {
			nonNil++
		}
	}
	if inSpan != r.live || nonNil != r.live {
		t.Fatalf("%d live elements, %d in [head, next), %d slots hold one", r.live, inSpan, nonNil)
	}

	got := map[wire.ElementID]*wire.Element{}
	for id, e := range x.All() {
		got[id] = e
	}
	want := map[wire.ElementID]*wire.Element{}
	for id, ent := range model {
		want[id] = ent.e
	}
	if !maps.Equal(got, want) {
		t.Fatalf("All yields %d ids, not the model's %d bound to the model's objects", len(got), len(want))
	}

	// The two differences the checker reads, against a key set of every other
	// model id plus ids the index never saw.
	var ids wire.IDMap[uint64]
	i := 0
	for id := range model {
		if i++; i%2 == 0 {
			ids.Put(id, 1)
		}
	}
	for k := range 3 {
		ids.Put(wire.NewElementID(9, uint64(k+1)), 7)
	}
	without := map[wire.ElementID]*wire.Element{}
	for id, e := range x.Without(&ids) {
		without[id] = e
	}
	missing := map[wire.ElementID]uint64{}
	for id, epoch := range x.Missing(&ids) {
		missing[id] = epoch
	}
	wantWithout, wantMissing := map[wire.ElementID]*wire.Element{}, map[wire.ElementID]uint64{}
	for id, ent := range model {
		if !ids.Has(id) {
			wantWithout[id] = ent.e
		}
	}
	for id, v := range ids.All() {
		if _, ok := model[id]; !ok {
			wantMissing[id] = v
		}
	}
	if !maps.Equal(without, wantWithout) || !maps.Equal(missing, wantMissing) {
		t.Fatalf("Without yields %d (model %d), Missing %d (model %d)",
			len(without), len(wantWithout), len(missing), len(wantMissing))
	}

	through := topEpoch / 2
	members := map[wire.ElementID]Member{}
	for id, m := range x.members(through) {
		members[id] = m
	}
	wantMembers := map[wire.ElementID]Member{}
	for id, ent := range model {
		if ent.epoch != 0 && ent.epoch <= through {
			wantMembers[id] = Member{Element: ent.e, Epoch: ent.epoch}
		}
	}
	if !maps.Equal(members, wantMembers) {
		t.Fatalf("members(%d) yields %d entries, the model %d", through, len(members), len(wantMembers))
	}
}

// The element index against a map of ids: every op of the table's seeds
// agrees with the model, and each seed reaches the ring behavior it is
// there for — growth, compaction of stragglers, a span that wraps the
// ring, sequence numbers that wrap uint32.
func TestElemIndexModel(t *testing.T) {
	for _, tc := range elemIndexSeeds {
		t.Run(tc.name, func(t *testing.T) {
			got := driveElemIndex(t, tc.data)
			t.Logf("reached %+v", got)
			if got.grows < tc.want.grows || got.compactions < tc.want.compactions ||
				got.wraps < tc.want.wraps || got.seqWraps < tc.want.seqWraps {
				t.Fatalf("reached %+v, want at least %+v", got, tc.want)
			}
		})
	}
}

func FuzzElemIndex(f *testing.F) {
	for _, tc := range elemIndexSeeds {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		driveElemIndex(t, data)
	})
}

// The index's page value locates an element instead of holding it: a walk of
// its type finds nothing the collector would have to follow.
func TestElemIndexValueHoldsNoPointer(t *testing.T) {
	var walk func(reflect.Type) bool
	walk = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				if !walk(typ.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return walk(typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return true
		default:
			return false
		}
	}
	var x ElemIndex
	value := reflect.TypeOf(x.m).Field(0).Type.Elem().Elem().Field(2).Type.Elem() // pages → *idPage → inline → V
	if value != reflect.TypeOf(elemLoc{}) {
		t.Fatalf("the walk reached %v, not the index's value type", value)
	}
	if !walk(value) {
		t.Fatalf("%v holds a pointer", value)
	}
	if size := value.Size(); size != 8 {
		t.Fatalf("%v is %d bytes, want 8", value, size)
	}
}
