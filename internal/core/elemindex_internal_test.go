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
	if x.m.Has(e.ID) && !x.m.Marked(e.ID) {
		for _, c := range x.pending {
			for _, p := range c {
				if p.ID == e.ID {
					e = p
				}
			}
		}
	}
	return len(x.stampEpoch(epoch, []*wire.Element{e})) == 1
}

// Epoch returns the epoch that stamped id, or 0 if none has (whether or not
// id is in the_set), by a scan of the epoch slices.
func (x *ElemIndex) Epoch(id wire.ElementID) uint64 {
	if x.m.Marked(id) {
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
		for e := range x.entries() {
			if !yield(e.ID, e) {
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
	theirs := make(map[wire.ElementID]modelEntry, y.Len())
	for e, epoch := range y.entries() {
		theirs[e.ID] = modelEntry{e, epoch}
	}
	for e, epoch := range x.entries() {
		other, ok := theirs[e.ID]
		if !ok || other.epoch != epoch || !reflect.DeepEqual(other.e, e) {
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

// indexReach counts what a driven sequence made the pending chunks do: grow
// room, drop stamped elements to make room, let a batch's chunk go on the
// stamp of exactly its slice, drop a batch chunk at a compaction (dead, or
// only part live, whose live elements then move to the run of single adds).
type indexReach struct {
	grows, compactions, exact, dropped, moved int
}

// elemIndexSeeds are FuzzElemIndex's seeds, and TestElemIndexModel's table:
// each names the pending-chunk behavior it must reach. Byte 0 is not read;
// the rest is (op, arg) pairs (driveElemIndex).
var elemIndexSeeds = []struct {
	name string
	data []byte
	want indexReach
}{
	{"empty", []byte{0}, indexReach{}},
	{"adds then one epoch", []byte{0, 0, 20, 1, 3}, indexReach{grows: 2}},
	// One straggler stays pending, the eight ids after it are stamped, and
	// the next run of adds fills a room half of which is dead.
	{"a straggler forces a compaction", []byte{0, 4, 0, 0, 7, 1, 7, 0, 31}, indexReach{grows: 2, compactions: 1}},
	{"sequence numbers wrap", []byte{1,
		0, 31, 1, 2, 1, 4, 0, 12, 1, 6, 0, 31, 3, 5, 2, 9, 2, 200, 1, 8,
	}, indexReach{grows: 3}},
	{"install-style groups beside epochs", []byte{0,
		0, 25, 3, 0, 3, 7, 1, 5, 2, 40, 2, 41, 3, 130, 4, 9, 0, 3, 3, 255,
	}, indexReach{grows: 2}},
	// Two batches of 61 consecutive ids, the second across a page edge,
	// each stamped as its own slice.
	{"batches cross a page edge and leave whole", []byte{0, 5, 0x78, 5, 0x78, 5, 0x80, 5, 0x81}, indexReach{grows: 2, exact: 2}},
	{"a batch holding a pending id", []byte{0, 0, 3, 5, 0x09, 5, 0x80, 0, 31}, indexReach{grows: 3}},
	{"an in-batch duplicate", []byte{0, 5, 0x0a, 5, 0x80, 5, 0x0a, 5, 0x81}, indexReach{grows: 1}},
	{"a batch part of which an earlier epoch holds", []byte{0, 0, 3, 1, 7, 5, 0x0c, 5, 0x80, 0, 31}, indexReach{grows: 2, compactions: 1, dropped: 1}},
	// A copy of the batch is stamped, never the batch's own slice: its
	// chunk is dead, and the compaction the adds after it force drops it.
	{"a batch never stamped is dropped", []byte{0, 5, 0x78, 5, 0xc0, 0, 31}, indexReach{grows: 1, compactions: 1, dropped: 1}},
	// All but the last element stamped, through the batch's own array but a
	// shorter slice: the chunk stays, and a compaction moves its last one.
	{"a batch partly stamped moves to the run", []byte{0, 5, 0x78, 5, 0xa0, 0, 31}, indexReach{grows: 1, compactions: 1, dropped: 1, moved: 1}},
}

// driveElemIndex applies the ops encoded in data to an index and to a
// map-of-ids model, and fails t as soon as the two disagree or the pending
// chunks break their own invariants. Ops, chosen by op%6 with argument arg:
//
//	0: Add a run of arg%32+1 fresh ids, then re-Add an old one with another object;
//	1: stampEpoch a fresh epoch number over a selection of known ids (pending,
//	   stamped and repeated ones, each other object of an id when arg&2), plus a
//	   never-added id when arg&1;
//	2: Stamp one id — known or fresh — with an arbitrary epoch;
//	3: stampEpoch each epoch 1..through, in number order, over a list of a
//	   selection of ids (possibly empty, possibly naming an id twice), the way
//	   InstallSync installs a snapshot's members;
//	4: Add a run of stragglers: ids no stamp ever selects;
//	5: with arg&0x80, stampEpoch a fresh epoch number over an earlier batch
//	   (batch arg&0x1f modulo their count): its own slice, or all but its last
//	   element when arg&0x20, or a copy of that when arg&0x40. Otherwise
//	   addBatch (arg>>3&15)*4+1 consecutive fresh ids of one client, with a
//	   pending id in the middle when arg&1, another object of its first id
//	   at the end when arg&2, and a stamped id in front when arg&4.
func driveElemIndex(t testing.TB, data []byte) indexReach {
	var (
		x        ElemIndex
		model    = map[wire.ElementID]modelEntry{}
		known    []wire.ElementID // ids ops 1–3 may select, in first-seen order
		batches  [][]*wire.Element
		inBatch  = map[wire.ElementID]bool{} // ids a batch put in the_set
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
	// firstKnown returns the first known id the model holds pending (or
	// stamped), if any.
	firstKnown := func(stamped bool) (wire.ElementID, bool) {
		for _, id := range known {
			if (model[id].epoch != 0) == stamped {
				return id, true
			}
		}
		return wire.ElementID{}, false
	}
	// adding runs an op that adds n elements to the_set, as one more batch
	// chunk when batch is set, and counts what the pending chunks did
	// meanwhile.
	adding := func(n int, batch bool, op func()) {
		held, room, chunks := x.held, x.room, max(1, len(x.pending))
		op()
		if x.held < held+n {
			reach.compactions++
		}
		if x.room > room {
			reach.grows++
		}
		if batch && n > 0 {
			chunks++
		}
		if len(x.pending) > 0 {
			reach.dropped += chunks - len(x.pending)
		}
		if len(x.pending) > 0 && x.held < held+n {
			for _, e := range x.pending[0] {
				if inBatch[e.ID] {
					reach.moved++
					break
				}
			}
		}
	}
	add := func(e *wire.Element, straggler bool) {
		_, had := model[e.ID]
		if !had {
			model[e.ID] = modelEntry{e: e}
			if !straggler {
				known = append(known, e.ID)
			}
		}
		n := 1
		if had {
			n = 0
		}
		adding(n, false, func() {
			if got := x.Add(e); got == had {
				t.Fatalf("Add(%v) = %v with the id present=%v", e.ID, got, had)
			}
		})
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
	// stamp stamps elems as a fresh epoch in the model and the index.
	stamp := func(elems []*wire.Element) {
		topEpoch++
		var want []*wire.Element
		for _, e := range elems {
			if stampModel(e, topEpoch, false) {
				want = append(want, e)
			}
		}
		if got := x.stampEpoch(topEpoch, elems); !slices.Equal(got, want) {
			t.Fatalf("stampEpoch(%d) kept %d elements, the model %d", topEpoch, len(got), len(want))
		}
	}
	for i := 1; i+1 < len(data); i += 2 {
		op, arg := data[i]%6, data[i+1]
		switch op {
		case 0:
			for range int(arg%32) + 1 {
				add(fresh(1), false)
			}
			if len(known) > 0 {
				add(object(known[int(arg)%len(known)], true), false)
			}
		case 1:
			var elems []*wire.Element
			for _, id := range selectIDs(arg) {
				elems = append(elems, object(id, arg&2 != 0))
			}
			if arg&1 != 0 {
				elems = append(elems, fresh(3))
			}
			stamp(elems)
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
			members := make([][]*wire.Element, through)
			for j, id := range selectIDs(arg) {
				if epoch := uint64(j%5) + 1 + uint64(arg%3); epoch <= through {
					members[epoch-1] = append(members[epoch-1], object(id, arg&4 != 0))
				}
			}
			for i, elems := range members {
				var want []*wire.Element
				for _, e := range elems {
					if stampModel(e, uint64(i+1), false) {
						want = append(want, e)
					}
				}
				if got := x.stampEpoch(uint64(i+1), elems); !slices.Equal(got, want) {
					t.Fatalf("stampEpoch(%d) of a member list kept %d elements, the model %d", i+1, len(got), len(want))
				}
			}
			topEpoch = max(topEpoch, through)
		case 4:
			for range int(arg%16) + 1 {
				add(fresh(2), true)
			}
		case 5:
			if arg&0x80 != 0 {
				if len(batches) == 0 {
					break
				}
				b := batches[int(arg&0x1f)%len(batches)]
				if arg&0x20 != 0 {
					b = b[:len(b)-1]
				}
				if arg&0x40 != 0 {
					b = slices.Clone(b)
				}
				chunks := len(x.pending)
				stamp(b)
				if len(x.pending) < chunks {
					reach.exact++
				}
				break
			}
			var b []*wire.Element
			if id, ok := firstKnown(true); ok && arg&4 != 0 {
				b = append(b, object(id, false))
			}
			for j := range int(arg>>3&15)*4 + 1 {
				if id, ok := firstKnown(false); ok && arg&1 != 0 && j == 2 {
					b = append(b, object(id, false))
				}
				b = append(b, fresh(4))
			}
			if arg&2 != 0 {
				b = append(b, object(b[0].ID, true))
			}
			n := 0
			for _, e := range b {
				if _, ok := model[e.ID]; !ok {
					model[e.ID] = modelEntry{e: e}
					known = append(known, e.ID)
					inBatch[e.ID] = true
					n++
				}
			}
			adding(n, true, func() { x.addBatch(b) })
			batches = append(batches, b)
		}
		pending := 0
		for _, ent := range model {
			if ent.epoch == 0 {
				pending++
			}
		}
		peak = max(peak, pending)
		checkAgainstModel(t, &x, model, peak)
	}
	return reach
}

// checkAgainstModel compares every reading of x with the model, and the
// pending chunks with their invariants; peak is the most ids the model has
// held pending at once.
func checkAgainstModel(t testing.TB, x *ElemIndex, model map[wire.ElementID]modelEntry, peak int) {
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
	// Each id is in the chunks at most once, a live entry is the element the
	// model's pending id is bound to, and the live entries are as many as
	// the count says. Stamped entries are dropped only when the chunks would
	// pass room, so what they hold is bounded by the most elements ever
	// pending at once, not by how many are pending now: room doubles only
	// when more than half of it is live, from 16, and so does the run's
	// array.
	inSlice, live, held := map[wire.ElementID]bool{}, 0, 0
	for i, c := range x.pending {
		if i > 0 && len(c) == 0 {
			t.Fatalf("batch chunk %d is empty", i)
		}
		held += len(c)
		for _, e := range c {
			if inSlice[e.ID] {
				t.Fatalf("id %v is in the pending chunks twice", e.ID)
			}
			inSlice[e.ID] = true
			if ent := model[e.ID]; ent.epoch == 0 {
				if ent.e != e {
					t.Fatalf("pending id %v is bound to %p in the chunks, %p in the model", e.ID, e, ent.e)
				}
				live++
			}
		}
	}
	if live != pending {
		t.Fatalf("the pending chunks hold %d live entries, the model %d pending ids", live, pending)
	}
	if held != x.held || held > x.room || x.room > max(16, 4*peak) {
		t.Fatalf("the chunks hold %d entries (counted %d) in a room of %d; at most %d ids were ever pending at once", held, x.held, x.room, peak)
	}
	if len(x.pending) > 0 && cap(x.pending[0]) > max(16, 4*peak) {
		t.Fatalf("the run of single adds has an array of %d; at most %d ids were ever pending at once", cap(x.pending[0]), peak)
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

// The index's stamp is its page's mark word and its value is empty: the
// value type takes no byte, so no page holds a value array or anything the
// collector would have to follow, and a page is its two bitmaps beside the
// empty value slice.
func TestElemIndexValueHoldsNoPointer(t *testing.T) {
	var x ElemIndex
	page := reflect.TypeOf(x.m).Field(0).Type.Elem().Elem() // pages → *idPage
	inline, ok := page.FieldByName("inline")
	if !ok {
		t.Fatalf("%v has no inline values", page)
	}
	if value := inline.Type.Elem(); value != reflect.TypeOf(struct{}{}) || value.Size() != 0 {
		t.Fatalf("the index's value is %v, %d bytes; want the empty struct", value, value.Size())
	}
	for _, name := range []string{"bits", "marks"} {
		if f, ok := page.FieldByName(name); !ok || f.Type.Kind() != reflect.Uint64 {
			t.Fatalf("%v has no %s word", page, name)
		}
	}
	if size := page.Size(); size > 40 {
		t.Fatalf("a page of the index is %d bytes, want its two words and a slice header", size)
	}
}

// Once a batch's pages exist, adding a batch of consecutive ids and stamping
// it allocates nothing per element: the stamps are bits of the pages' mark
// words, beside no value array, and the batch is pending as one chunk,
// which leaves on its stamp. What a batch may allocate is its share of the
// epoch table's growth.
func TestBatchAddAndStampAllocateNothingPerElement(t *testing.T) {
	const batches, size = 100, 500
	elems := make([]wire.Element, batches*size)
	batch := make([][]*wire.Element, batches)
	for i := range elems {
		seq := uint64(i + 1)
		elems[i] = wire.Element{ID: wire.NewElementID(7, seq), Client: 7, Seq: seq, Size: 1}
		batch[i/size] = append(batch[i/size], &elems[i])
	}
	var x ElemIndex
	// One id of each page, inserted and then reset away, leaves every page
	// of the batches in place and empty.
	for i := 0; i < len(elems); i += 64 {
		x.m.Slot(elems[i].ID)
	}
	x.m.Reset()
	n := 0
	allocs := testing.AllocsPerRun(batches-1, func() {
		x.addBatch(batch[n])
		if g := x.stampEpoch(uint64(n+1), batch[n]); len(g) != size {
			t.Fatalf("batch %d: stamped %d of %d elements", n, len(g), size)
		}
		n++
	})
	if allocs > 1 {
		t.Errorf("adding and stamping a %d-id batch allocates %.2f times, want at most once", size, allocs)
	}
	if x.Pending() != 0 || x.held != 0 || len(x.pending) != 1 || x.Len() != batches*size {
		t.Errorf("after %d batches: %d pending, %d held in %d chunks, %d ids", n, x.Pending(), x.held, len(x.pending), x.Len())
	}
}

// A server's own adds are stamped as its own batches consolidate, while
// other servers' batches wait pending beside them: the run of single adds
// drops its stamped elements when its array fills, so it keeps reusing one
// small array however many pass, rather than growing toward room.
func TestRunReusesItsArray(t *testing.T) {
	var x ElemIndex
	waiting := make([]*wire.Element, 1000)
	for i := range waiting {
		waiting[i] = &wire.Element{ID: wire.NewElementID(1, uint64(i+1)), Size: 1}
	}
	x.addBatch(waiting)
	for n := range 100 {
		own := make([]*wire.Element, 10)
		for i := range own {
			seq := uint64(n*len(own) + i + 1)
			own[i] = &wire.Element{ID: wire.NewElementID(2, seq), Size: 1}
			x.Add(own[i])
		}
		x.stampEpoch(uint64(n+1), own)
	}
	if c := cap(x.pending[0]); c > 16 || x.Pending() != len(waiting) {
		t.Fatalf("after 1,000 own adds, 10 at a time stamped: the run's array holds %d, %d pending", c, x.Pending())
	}
}
