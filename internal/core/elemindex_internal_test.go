package core

import (
	"iter"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/wire"
)

// Stamp records that epoch contains e, adding e to the_set if the index
// never saw its add, and reports whether it did: the first stamp stands, and
// an id that already has one is left as it is. A pending id keeps the
// element it was added with. It is stampEpoch for one element, as tests use
// it.
func (x *ElemIndex) Stamp(e *wire.Element, epoch uint64) bool {
	if stamped, ok := x.m.Get(e.ID); ok && !stamped {
		for _, p := range x.pending {
			if p.ID == e.ID {
				e = p
				break
			}
		}
	}
	return len(x.stampEpoch(epoch, []*wire.Element{e})) == 1
}

// Epoch returns the epoch that stamped id, or 0 if none has (whether or not
// id is in the_set), by a scan of the epoch slices.
func (x *ElemIndex) Epoch(id wire.ElementID) uint64 {
	if stamped, _ := x.m.Get(id); stamped {
		for n, elems := range x.epochs {
			for _, e := range elems {
				if e.ID == id {
					return uint64(n)
				}
			}
		}
	}
	return 0
}

// Len returns the size of the_set.
func (x *ElemIndex) Len() int {
	n := 0
	for range wire.Diff(&x.m, &wire.IDMap[struct{}]{}) {
		n++
	}
	return n
}

// All iterates over the_set in unspecified order.
func (x *ElemIndex) All() iter.Seq2[wire.ElementID, *wire.Element] {
	return func(yield func(wire.ElementID, *wire.Element) bool) {
		for id, m := range x.entries() {
			if !yield(id, m.Element) {
				return
			}
		}
	}
}

// Equal reports whether x and y hold the same ids, bound to equal elements
// and stamped with the same epochs. Two indexes with equal contents differ
// in their cursors, page arrays and slices, so this, not reflect.DeepEqual
// on the index, is how to compare them.
func (x *ElemIndex) Equal(y *ElemIndex) bool {
	if x.Len() != y.Len() {
		return false
	}
	theirs := make(map[wire.ElementID]Member, y.Len())
	for id, m := range y.entries() {
		theirs[id] = m
	}
	for id, m := range x.entries() {
		other, ok := theirs[id]
		if !ok || other.Epoch != m.Epoch || !reflect.DeepEqual(other.Element, m.Element) {
			return false
		}
	}
	return true
}

// modelEntry is the reference model's view of one id: the element the id is
// bound to and the epoch that stamped it (0: pending).
type modelEntry struct {
	e     *wire.Element
	epoch uint64
}

// indexReach counts what a driven sequence made the pending slice do: grow
// its array, or drop its dead entries to make room.
type indexReach struct {
	grows, compactions int
}

// elemIndexSeeds are FuzzElemIndex's seeds, and TestElemIndexModel's table:
// each names the pending-slice behavior it must reach. Byte 0 is not read;
// the rest is (op, arg) pairs (driveElemIndex).
var elemIndexSeeds = []struct {
	name string
	data []byte
	want indexReach
}{
	{"empty", []byte{0}, indexReach{}},
	{"adds then one epoch", []byte{0, 0, 20, 1, 3}, indexReach{grows: 2}},
	// One straggler stays pending, the eight ids after it are stamped, and
	// the next run of adds fills a slice half of which is dead.
	{"a straggler forces a compaction", []byte{0, 4, 0, 0, 7, 1, 7, 0, 31}, indexReach{grows: 2, compactions: 1}},
	{"sequence numbers wrap", []byte{1,
		0, 31, 1, 2, 1, 4, 0, 12, 1, 6, 0, 31, 3, 5, 2, 9, 2, 200, 1, 8,
	}, indexReach{grows: 3}},
	{"install-style groups beside epochs", []byte{0,
		0, 25, 3, 0, 3, 7, 1, 5, 2, 40, 2, 41, 3, 130, 4, 9, 0, 3, 3, 255,
	}, indexReach{grows: 2}},
}

// driveElemIndex applies the ops encoded in data to an index and to a
// map-of-ids model, and fails t as soon as the two disagree or the pending
// slice breaks its own invariants. Ops, chosen by op%5 with argument arg:
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
		peak     int // the most ids the model has held pending at once
		reach    indexReach
	)
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
		n, c := len(x.pending), cap(x.pending)
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
		if len(x.pending) <= n && !had {
			reach.compactions++
		}
		if cap(x.pending) > c {
			reach.grows++
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
		pending := 0
		for _, ent := range model {
			if ent.epoch == 0 {
				pending++
			}
		}
		peak = max(peak, pending)
		checkAgainstModel(t, &x, model, topEpoch, peak)
	}
	return reach
}

// checkAgainstModel compares every reading of x with the model, and the
// pending slice with its invariants; peak is the most ids the model has held
// pending at once.
func checkAgainstModel(t testing.TB, x *ElemIndex, model map[wire.ElementID]modelEntry, topEpoch uint64, peak int) {
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
		t.Fatalf("the index counts %d live pending elements, the model %d pending ones", x.Pending(), pending)
	}
	// Each id is in the slice at most once, a live entry is the element the
	// model's pending id is bound to, and the live entries are as many as
	// the count says. Dead entries are dropped only when the slice fills, so
	// its array is bounded by the most elements ever pending at once, not by
	// how many are pending now: it doubles only a full slice more than half
	// of which is live, from 16.
	inSlice, live := map[wire.ElementID]bool{}, 0
	for _, e := range x.pending {
		if inSlice[e.ID] {
			t.Fatalf("id %v is in the pending slice twice", e.ID)
		}
		inSlice[e.ID] = true
		if ent := model[e.ID]; ent.epoch == 0 {
			if ent.e != e {
				t.Fatalf("pending id %v is bound to %p in the slice, %p in the model", e.ID, e, ent.e)
			}
			live++
		}
	}
	if live != pending {
		t.Fatalf("the pending slice holds %d live entries, the model %d pending ids", live, pending)
	}
	if cap(x.pending) > max(16, 4*peak) {
		t.Fatalf("the pending slice's array holds %d entries; at most %d ids were ever pending at once", cap(x.pending), peak)
	}

	got, yields := map[wire.ElementID]*wire.Element{}, 0
	for id, e := range x.All() {
		got[id] = e
		yields++
	}
	if yields != x.Len() || len(got) != x.Len() {
		t.Fatalf("All yields %d entries of %d ids, want each of the %d once", yields, len(got), x.Len())
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
	yields = 0
	for id, e := range x.Without(&ids) {
		without[id] = e
		yields++
	}
	if yields != len(without) {
		t.Fatalf("Without yields %d entries of %d ids", yields, len(without))
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
	for id, v := range wire.Diff(&ids, &wire.IDMap[struct{}]{}) {
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
// agrees with the model, and each seed reaches the pending-slice behavior it
// is there for — growth, and dropping the dead entries a straggler sits
// among.
func TestElemIndexModel(t *testing.T) {
	for _, tc := range elemIndexSeeds {
		t.Run(tc.name, func(t *testing.T) {
			got := driveElemIndex(t, tc.data)
			t.Logf("reached %+v", got)
			if got.grows < tc.want.grows || got.compactions < tc.want.compactions {
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

// The index's page value is one stamped bit, not the element: a walk of its
// type finds nothing the collector would have to follow, and it is 1 byte.
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
	if value != reflect.TypeOf(false) {
		t.Fatalf("the walk reached %v, not the index's value type", value)
	}
	if !walk(value) {
		t.Fatalf("%v holds a pointer", value)
	}
	if size := value.Size(); size != 1 {
		t.Fatalf("%v is %d bytes, want 1", value, size)
	}
}
