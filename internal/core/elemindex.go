package core

import (
	"bytes"
	"cmp"
	"fmt"
	"iter"
	"math"
	"reflect"
	"slices"

	"repro/internal/wire"
)

// elemLoc is what a server knows about one element id: where the element is,
// not the element itself, so that no page of the index holds a pointer for
// the collector to mark. A stamped element is Elements[pos] of epoch epoch,
// in the slice the index registered for that number; a pending one (epoch
// 0: in the_set, in no epoch yet) is the element with sequence number pos in
// the pending ring.
type elemLoc struct {
	epoch uint32
	pos   uint32
}

// ElemIndex is a server's the_set and its id→epoch membership index in one
// container, keyed by the element's own id: the two questions every
// algorithm asks per element — "is e in the_set?", "is e already in an
// epoch?" — are one probe of one structure. It only grows, and it never
// rebinds or restamps a stamped id; serving a state-sync snapshot long after
// its seal depends on exactly that (ServeSnapshot, DESIGN.md §11). It has one
// owner, the server; a Snapshot hands it out for reading under the rules of
// wire.IDMap.
type ElemIndex struct {
	m wire.IDMap[elemLoc]
	// epochs[n] is the slice epoch n's stamps locate into: the epoch's own
	// Elements when one stampEpoch made it (under Hashchain the batch's array,
	// shared by every server), the index's copy once a later stamp of the same
	// number appended to it. Entries outlive pruning, so an element below the
	// prune horizon is still located.
	epochs [][]*wire.Element
	// pending holds the elements of the_set no epoch holds yet.
	pending pendingRing
}

// pendingRing is a power-of-two ring of the pending elements, indexed by
// sequence number: the element with sequence number seq sits at
// slots[seq&(len(slots)-1)] until a stamp releases it. Sequence numbers are
// uint32 and wrap; [head, next) never spans more than the ring, so the mask
// stays unambiguous. Every slot outside [head, next) is nil, and so is every
// released slot inside it; head is always live unless the ring is empty.
type pendingRing struct {
	slots      []*wire.Element
	head, next uint32
	live       int
}

// at returns the element loc locates.
func (x *ElemIndex) at(loc elemLoc) *wire.Element {
	if loc.epoch == 0 {
		return x.pending.slots[loc.pos&uint32(len(x.pending.slots)-1)]
	}
	return x.epochs[loc.epoch][loc.pos]
}

// Add puts e in the_set unless its id is already there, and reports whether
// it was new. A new element is pending: in the_set, in no epoch.
func (x *ElemIndex) Add(e *wire.Element) bool {
	loc, fresh := x.m.Slot(e.ID)
	if fresh {
		// push may compact, which rewrites the locators of other pending
		// ids; that inserts nothing, so loc stays valid.
		*loc = elemLoc{pos: x.push(e)}
	}
	return fresh
}

// Stamp records that epoch contains e, adding e to the_set if this server
// never saw its add (Get-Global/Consistent-Sets), and reports whether it did:
// the first stamp stands, and an id that already has one is left as it is.
// A pending id keeps the element it was added with.
func (x *ElemIndex) Stamp(e *wire.Element, epoch uint64) bool {
	if loc, ok := x.m.Get(e.ID); ok && loc.epoch == 0 {
		e = x.at(loc)
	}
	return len(x.stampEpoch(epoch, []*wire.Element{e})) == 1
}

// stampEpoch stamps number on those elements of elems that no epoch holds
// yet, in order, adding each to the_set if this server never saw its add,
// and returns them — under filter's aliasing rule, so elems itself when it
// stamps them all. A second occurrence of an id within elems meets the
// first one's stamp and is dropped like any other element already in an
// epoch. The returned slice is what the stamps locate into: a pending id is
// bound from now on to the epoch's element of that id. Epoch numbers wider
// than the locator's 32 bits panic rather than wrap.
func (x *ElemIndex) stampEpoch(number uint64, elems []*wire.Element) []*wire.Element {
	if number == 0 || number > math.MaxUint32 {
		panic(fmt.Sprintf("core: epoch %d does not fit the element index's 32-bit epoch field", number))
	}
	n := int(number)
	if n >= len(x.epochs) {
		x.epochs = append(x.epochs, make([][]*wire.Element, n+1-len(x.epochs))...)
	}
	base := len(x.epochs[n])
	if uint64(base)+uint64(len(elems)) > math.MaxUint32 {
		panic(fmt.Sprintf("core: epoch %d outgrows the element index's 32-bit position field", number))
	}
	pos := uint32(base)
	g := filter(elems, func(e *wire.Element) bool {
		loc, fresh := x.m.Slot(e.ID)
		if !fresh {
			if loc.epoch != 0 {
				return false
			}
			x.release(loc.pos)
		}
		*loc = elemLoc{epoch: uint32(n), pos: pos}
		pos++
		return true
	})
	if base == 0 {
		// Capped, so that a later stamp of this number copies instead of
		// appending into an array some epoch or batch owns.
		x.epochs[n] = slices.Clip(g)
	} else {
		x.epochs[n] = append(x.epochs[n], g...)
	}
	return g
}

// push puts e in the pending ring and returns its sequence number. A full
// ring grows when more than half of it is live and is compacted otherwise,
// so elements that are never stamped cannot make it grow without bound.
func (x *ElemIndex) push(e *wire.Element) uint32 {
	r := &x.pending
	if int(r.next-r.head) == len(r.slots) {
		if 2*r.live > len(r.slots) || len(r.slots) == 0 {
			r.grow()
		} else {
			x.compact()
		}
	}
	seq := r.next
	r.slots[seq&uint32(len(r.slots)-1)] = e
	r.next++
	r.live++
	return seq
}

// grow doubles the ring. Every live element keeps its sequence number, so no
// locator changes.
func (r *pendingRing) grow() {
	slots := make([]*wire.Element, max(16, 2*len(r.slots)))
	oldMask, mask := uint32(len(r.slots)-1), uint32(len(slots)-1)
	for seq := r.head; seq != r.next; seq++ {
		slots[seq&mask] = r.slots[seq&oldMask]
	}
	r.slots = slots
}

// compact slides the live elements of a full ring down over the released
// slots between them, in order, and rewrites the locators of those that
// moved. It runs only when at most half the ring is live, so it frees at
// least half the ring for what it costs.
func (x *ElemIndex) compact() {
	r := &x.pending
	mask := uint32(len(r.slots) - 1)
	to := r.head
	for seq := r.head; seq != r.next; seq++ {
		e := r.slots[seq&mask]
		if e == nil {
			continue
		}
		if seq != to {
			r.slots[to&mask], r.slots[seq&mask] = e, nil
			loc, _ := x.m.Slot(e.ID)
			loc.pos = to
		}
		to++
	}
	r.next = to
}

// release frees the pending slot of sequence number seq, whose element has
// just been stamped, and moves head past every released slot.
func (x *ElemIndex) release(seq uint32) {
	r := &x.pending
	mask := uint32(len(r.slots) - 1)
	r.slots[seq&mask] = nil
	r.live--
	for r.head != r.next && r.slots[r.head&mask] == nil {
		r.head++
	}
}

// Epoch returns the epoch that stamped id, or 0 if none has (whether or not
// id is in the_set).
func (x *ElemIndex) Epoch(id wire.ElementID) uint64 {
	loc, _ := x.m.Get(id)
	return uint64(loc.epoch)
}

// Has reports whether id is in the_set.
func (x *ElemIndex) Has(id wire.ElementID) bool { return x.m.Has(id) }

// Len returns the size of the_set.
func (x *ElemIndex) Len() int { return x.m.Len() }

// Pending returns how many elements of the_set no epoch holds yet: the live
// entries of the pending ring, none on a correct server once a run has
// quiesced.
func (x *ElemIndex) Pending() int { return x.pending.live }

// All iterates over the_set in unspecified order.
func (x *ElemIndex) All() iter.Seq2[wire.ElementID, *wire.Element] {
	return x.Without(&wire.IDMap[uint64]{})
}

// Without iterates over the_set ∖ ids: the entries of the_set whose id is
// not a key of ids, a page at a time (wire.Diff).
func (x *ElemIndex) Without(ids *wire.IDMap[uint64]) iter.Seq2[wire.ElementID, *wire.Element] {
	return func(yield func(wire.ElementID, *wire.Element) bool) {
		for id, loc := range wire.Diff(&x.m, ids) {
			if !yield(id, x.at(loc)) {
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

// members iterates over the stamped entries of epochs 1..through, in
// unspecified order: a state-sync snapshot's Members.
func (x *ElemIndex) members(through uint64) iter.Seq2[wire.ElementID, Member] {
	return func(yield func(wire.ElementID, Member) bool) {
		for id, loc := range x.m.All() {
			if loc.epoch != 0 && uint64(loc.epoch) <= through &&
				!yield(id, Member{Element: x.at(loc), Epoch: uint64(loc.epoch)}) {
				return
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
		if m.Epoch <= through && x.Epoch(id) == 0 {
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

// Equal reports whether x and y hold the same ids, bound to equal elements
// and stamped with the same epochs. Two indexes with equal contents differ
// in their cursors, page arrays and rings, so this, not reflect.DeepEqual on
// the index, is how to compare them.
func (x *ElemIndex) Equal(y *ElemIndex) bool {
	if x.Len() != y.Len() {
		return false
	}
	for id, loc := range x.m.All() {
		other, ok := y.m.Get(id)
		if !ok || other.epoch != loc.epoch || !reflect.DeepEqual(y.at(other), x.at(loc)) {
			return false
		}
	}
	return true
}
