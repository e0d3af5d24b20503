package core

import (
	"iter"
	"reflect"

	"repro/internal/wire"
)

// elemEntry is what a server knows about one element id: the element, and
// the epoch that stamped it (0 while it is in the_set but in no epoch yet).
type elemEntry struct {
	e     *wire.Element
	epoch uint64
}

// ElemIndex is a server's the_set and its id→epoch membership index in one
// container, keyed by the element's own id: the two questions every
// algorithm asks per element — "is e in the_set?", "is e already in an
// epoch?" — are one probe of one structure. It only grows, never rebinds an
// id to another element and never rewrites a non-zero epoch; serving a
// state-sync snapshot long after its seal depends on exactly that
// (ServeSnapshot, DESIGN.md §11). It has one owner, the server; a Snapshot
// hands it out for reading under the rules of wire.IDMap.
type ElemIndex struct {
	m wire.IDMap[elemEntry]
}

// entry returns the entry of e's id, binding the id to e if it is new
// (fresh reports which). The pointer is valid until the next insertion.
func (x *ElemIndex) entry(e *wire.Element) (ent *elemEntry, fresh bool) {
	ent, fresh = x.m.Slot(e.ID)
	if fresh {
		ent.e = e
	}
	return ent, fresh
}

// Add puts e in the_set unless its id is already there, and reports whether
// it was new.
func (x *ElemIndex) Add(e *wire.Element) bool {
	_, fresh := x.entry(e)
	return fresh
}

// Stamp records that epoch contains e, adding e to the_set if this server
// never saw its add (Get-Global/Consistent-Sets), and reports whether it did:
// the first stamp stands, and an id that already has one is left as it is.
func (x *ElemIndex) Stamp(e *wire.Element, epoch uint64) bool {
	ent, _ := x.entry(e)
	if ent.epoch != 0 {
		return false
	}
	ent.epoch = epoch
	return true
}

// Epoch returns the epoch that stamped id, or 0 if none has (whether or not
// id is in the_set).
func (x *ElemIndex) Epoch(id wire.ElementID) uint64 {
	ent, _ := x.m.Get(id)
	return ent.epoch
}

// Has reports whether id is in the_set.
func (x *ElemIndex) Has(id wire.ElementID) bool { return x.m.Has(id) }

// Len returns the size of the_set.
func (x *ElemIndex) Len() int { return x.m.Len() }

// All iterates over the_set in unspecified order.
func (x *ElemIndex) All() iter.Seq2[wire.ElementID, *wire.Element] {
	return x.Without(&wire.IDMap[uint64]{})
}

// Without iterates over the_set ∖ ids: the entries of the_set whose id is
// not a key of ids, a page at a time (wire.Diff).
func (x *ElemIndex) Without(ids *wire.IDMap[uint64]) iter.Seq2[wire.ElementID, *wire.Element] {
	return func(yield func(wire.ElementID, *wire.Element) bool) {
		for id, ent := range wire.Diff(&x.m, ids) {
			if !yield(id, ent.e) {
				return
			}
		}
	}
}

// Missing iterates over ids ∖ the_set: the entries of ids whose id is not in
// the_set.
func (x *ElemIndex) Missing(ids *wire.IDMap[uint64]) iter.Seq2[wire.ElementID, uint64] {
	return wire.Diff(ids, &x.m)
}

// Equal reports whether x and y hold the same ids, bound to equal elements
// and stamped with the same epochs. Two indexes with equal contents differ
// in their cursors and page arrays, so this, not reflect.DeepEqual on the
// index, is how to compare them.
func (x *ElemIndex) Equal(y *ElemIndex) bool {
	if x.Len() != y.Len() {
		return false
	}
	for id, ent := range x.m.All() {
		other, ok := y.m.Get(id)
		if !ok || other.epoch != ent.epoch || !reflect.DeepEqual(other.e, ent.e) {
			return false
		}
	}
	return true
}
