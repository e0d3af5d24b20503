package core

import (
	"bytes"
	"cmp"
	"iter"
	"slices"

	"repro/internal/wire"
)

// ElemIndex is a server's the_set and its id→epoch membership index in one
// container, keyed by the element's own id: the two questions every
// algorithm asks per element — "is e in the_set?", "is e already in an
// epoch?" — are one probe of one structure. It only grows, and it never
// rebinds or restamps a stamped id; serving a state-sync snapshot long after
// its seal depends on exactly that (ServeSnapshot, DESIGN.md §11). It has one
// owner, the server; a Snapshot hands it out for reading under the rules of
// wire.IDMap.
type ElemIndex struct {
	// m's keys are the_set; an id's value says whether an epoch holds it.
	// The elements themselves are found through epochs and pending, so no
	// page of m holds a pointer for the collector to mark.
	m wire.IDMap[bool]
	// epochs[n] holds the elements epoch n stamped: the epoch's own Elements
	// when one stampEpoch made it (under Hashchain the batch's array, shared
	// by every server), the index's copy once a later stamp of the same
	// number appended to it. Entries outlive pruning, so an element below
	// the prune horizon is still found.
	epochs [][]*wire.Element
	// pending holds, in add order, the elements of the_set no epoch held
	// when they were added; live of them are still unstamped. A stamped one
	// stays, dead, until the slice fills (makeRoom).
	pending []*wire.Element
	live    int
}

// Add puts e in the_set unless its id is already there, and reports whether
// it was new. A new element is pending: in the_set, in no epoch.
func (x *ElemIndex) Add(e *wire.Element) bool {
	_, fresh := x.m.Slot(e.ID)
	if fresh {
		if len(x.pending) == cap(x.pending) {
			x.makeRoom()
		}
		x.pending = append(x.pending, e)
		x.live++
	}
	return fresh
}

// makeRoom frees room in the full pending slice. When more than half of it
// is live it doubles the array; otherwise it drops the dead entries, so
// elements that are never stamped cannot make it grow without bound. It
// keeps the live ones in order, probing from the newest entry back and
// stopping at the oldest live one, all before it being dead: stamps mostly
// follow adds, so what is still live is mostly the tail.
func (x *ElemIndex) makeRoom() {
	if len(x.pending) == 0 || 2*x.live > len(x.pending) {
		x.pending = append(make([]*wire.Element, 0, max(16, 2*len(x.pending))), x.pending...)
		return
	}
	w := len(x.pending)
	for r := w - 1; w > len(x.pending)-x.live; r-- {
		if stamped, _ := x.m.Get(x.pending[r].ID); !stamped {
			w--
			x.pending[w] = x.pending[r]
		}
	}
	n := copy(x.pending, x.pending[w:])
	clear(x.pending[n:])
	x.pending = x.pending[:n]
}

// stampEpoch stamps number on those elements of elems that no epoch holds
// yet, in order, adding each to the_set if this server never saw its add,
// and returns them — under filter's aliasing rule, so elems itself when it
// stamps them all. A second occurrence of an id within elems meets the
// first one's stamp and is dropped like any other element already in an
// epoch. The returned slice is where the index finds them: a pending id is
// bound from now on to the epoch's element of that id.
func (x *ElemIndex) stampEpoch(number uint64, elems []*wire.Element) []*wire.Element {
	n := int(number)
	if n >= len(x.epochs) {
		x.epochs = append(x.epochs, make([][]*wire.Element, n+1-len(x.epochs))...)
	}
	g := filter(elems, func(e *wire.Element) bool {
		stamped, fresh := x.m.Slot(e.ID)
		if *stamped {
			return false
		}
		if !fresh {
			x.live--
		}
		*stamped = true
		return true
	})
	if len(x.epochs[n]) == 0 {
		// Capped, so that a later stamp of this number copies instead of
		// appending into an array some epoch or batch owns.
		x.epochs[n] = slices.Clip(g)
	} else {
		x.epochs[n] = append(x.epochs[n], g...)
	}
	return g
}

// Has reports whether id is in the_set.
func (x *ElemIndex) Has(id wire.ElementID) bool { return x.m.Has(id) }

// Pending returns how many elements of the_set no epoch holds yet: none on
// a correct server once a run has quiesced.
func (x *ElemIndex) Pending() int { return x.live }

// entries iterates over the_set, each id once with its element and the
// epoch that stamped it (0: pending): the live pending elements in add
// order, then the epochs in number order.
func (x *ElemIndex) entries() iter.Seq2[wire.ElementID, Member] {
	return func(yield func(wire.ElementID, Member) bool) {
		for _, e := range x.pending {
			if stamped, _ := x.m.Get(e.ID); !stamped && !yield(e.ID, Member{Element: e}) {
				return
			}
		}
		for id, m := range x.members(uint64(len(x.epochs))) {
			if !yield(id, m) {
				return
			}
		}
	}
}

// Without iterates over the_set ∖ ids: the entries of the_set whose id is
// not a key of ids. It counts them first off the two maps' page bitmaps
// (wire.Diff), so a the_set inside ids — every server whose history was
// never pruned, against the ids of its history — costs no element; only
// otherwise does it walk the_set for them, and it stops at the last one.
func (x *ElemIndex) Without(ids *wire.IDMap[uint64]) iter.Seq2[wire.ElementID, *wire.Element] {
	return func(yield func(wire.ElementID, *wire.Element) bool) {
		left := 0
		for range wire.Diff(&x.m, ids) {
			left++
		}
		if left == 0 {
			return
		}
		for id, m := range x.entries() {
			if ids.Has(id) {
				continue
			}
			if !yield(id, m.Element) {
				return
			}
			if left--; left == 0 {
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

// members iterates over the stamped entries of epochs 1..through, in epoch
// order: a state-sync snapshot's Members.
func (x *ElemIndex) members(through uint64) iter.Seq2[wire.ElementID, Member] {
	return func(yield func(wire.ElementID, Member) bool) {
		for n := 1; n < len(x.epochs) && uint64(n) <= through; n++ {
			for _, e := range x.epochs[n] {
				if !yield(e.ID, Member{Element: e, Epoch: uint64(n)}) {
					return
				}
			}
		}
	}
}

// stampMembers stamps a state-sync snapshot's members of epochs 1..through,
// one stampEpoch per epoch, each epoch's elements sorted by id so that the
// result does not depend on the map's order. Members whose id an epoch
// already holds here are left out first, so that a server that kept most
// of its history registers only what it missed. The grouped elements share
// one array, each epoch's part capped at its length.
func (x *ElemIndex) stampMembers(members map[wire.ElementID]Member, through uint64) {
	var below []Member
	for id, m := range members {
		if stamped, _ := x.m.Get(id); m.Epoch <= through && !stamped {
			below = append(below, m)
		}
	}
	slices.SortFunc(below, func(a, b Member) int {
		if c := cmp.Compare(a.Epoch, b.Epoch); c != 0 {
			return c
		}
		return bytes.Compare(a.Element.ID[:], b.Element.ID[:])
	})
	elems := make([]*wire.Element, len(below))
	for i, m := range below {
		elems[i] = m.Element
	}
	for i := 0; i < len(below); {
		j := i + 1
		for j < len(below) && below[j].Epoch == below[i].Epoch {
			j++
		}
		x.stampEpoch(below[i].Epoch, elems[i:j:j])
		i = j
	}
}
