package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// The rules ServeSnapshot's serve-time exactness rests on (DESIGN.md §11):
// the index never rebinds an id to another element, the first stamp stands,
// and an element stamped without an add is in the_set all the same.
func TestElemIndexNeverRebindsOrRestamps(t *testing.T) {
	var x core.ElemIndex
	id := wire.NewElementID(1, 70)
	first, second := &wire.Element{ID: id, Size: 1}, &wire.Element{ID: id, Size: 2}
	if !x.Add(first) || x.Add(second) {
		t.Fatal("Add must report the first add of an id as new and the second as not")
	}
	if x.Epoch(id) != 0 || !x.Has(id) {
		t.Fatalf("an added element is in the_set and in no epoch; got epoch %d, has %v", x.Epoch(id), x.Has(id))
	}
	if !x.Stamp(second, 4) || x.Stamp(second, 9) || x.Stamp(first, 9) {
		t.Fatal("Stamp must report the first stamp of an id as made and any later one as not")
	}
	if x.Epoch(id) != 4 {
		t.Fatalf("epoch %d after stamps 4 and 9, want the first", x.Epoch(id))
	}
	stampedOnly := &wire.Element{ID: wire.NewElementID(1, 71), Size: 3}
	if !x.Stamp(stampedOnly, 5) {
		t.Fatal("Stamp of an id never added must add and stamp it")
	}
	absent := wire.NewElementID(2, 70) // the first id's sequence number, another client
	if x.Len() != 2 || !x.Has(stampedOnly.ID) || x.Has(absent) || x.Epoch(absent) != 0 {
		t.Fatalf("len %d, stamped-only present %v, absent id present %v", x.Len(), x.Has(stampedOnly.ID), x.Has(absent))
	}
	for got, e := range x.All() {
		if want := map[wire.ElementID]*wire.Element{id: first, stampedOnly.ID: stampedOnly}[got]; e != want {
			t.Fatalf("id %v is bound to %p, want %p", got, e, want)
		}
	}

	// The two differences the checker reads: the_set ∖ ids and ids ∖ the_set.
	var ids wire.IDMap[uint64]
	ids.Put(id, 4)
	ids.Put(absent, 6)
	yields := 0
	for got, e := range x.Without(&ids) {
		if yields++; got != stampedOnly.ID || e != stampedOnly {
			t.Fatalf("the_set without {first, absent} yields %v", got)
		}
	}
	for got, epoch := range x.Missing(&ids) {
		if yields++; got != absent || epoch != 6 {
			t.Fatalf("{first, absent} missing from the_set yields %v of epoch %d", got, epoch)
		}
	}
	if yields != 2 {
		t.Fatalf("the two differences yield %d entries, want one each", yields)
	}

	// Equal is by content: the same entries inserted in another order, with
	// equal elements behind other pointers, and reads in between that move
	// the cursor.
	var y core.ElemIndex
	y.Stamp(&wire.Element{ID: stampedOnly.ID, Size: 3}, 5)
	y.Has(absent)
	y.Stamp(&wire.Element{ID: id, Size: 1}, 4)
	if !x.Equal(&y) || !y.Equal(&x) {
		t.Fatal("indexes with equal contents compare unequal")
	}
	var z core.ElemIndex
	z.Stamp(&wire.Element{ID: stampedOnly.ID, Size: 3}, 5)
	z.Stamp(&wire.Element{ID: id, Size: 1}, 3)
	if x.Equal(&z) {
		t.Fatal("indexes that disagree on an epoch compare equal")
	}
	z.Add(&wire.Element{ID: absent, Size: 1})
	if x.Equal(&z) || z.Equal(&x) {
		t.Fatal("indexes of different sizes compare equal")
	}
}
