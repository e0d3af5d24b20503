package core

import (
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
	// m's keys are the_set, and an id's mark says that an epoch holds it.
	// Its values are empty: the elements themselves are found through
	// epochs and pending, so no page of m holds a pointer for the collector
	// to mark, nor a value array.
	m wire.IDMap[struct{}]
	// epochs[n] holds the elements epoch n stamped: the epoch's own Elements
	// when one stampEpoch made it (under Hashchain the batch's array, shared
	// by every server), the index's copy once a later stamp of the same
	// number appended to it. Entries outlive pruning, so an element below
	// the prune horizon is still found.
	epochs [][]*wire.Element
	// pending holds, in chunks, the elements of the_set no epoch held when
	// they were added; live of them are still unstamped. pending[0] is the
	// run of single adds (Add), in an array the index owns; each later chunk
	// is one batch's new elements (addBatch), under filter's aliasing rule,
	// in add order. A batch's chunk leaves when stampEpoch stamps exactly its
	// slice; any other stamped element stays, dead, until the run's array
	// fills (push) or the chunks would hold more than room elements
	// (makeRoom). held counts what they hold.
	pending          [][]*wire.Element
	held, room, live int
}

// Add puts e in the_set unless its id is already there, and reports whether
// it was new. A new element is pending: in the_set, in no epoch.
func (x *ElemIndex) Add(e *wire.Element) bool {
	if !x.insert(e) {
		return false
	}
	x.makeRoom(1)
	x.push(e)
	x.held++
	x.live++
	return true
}

// addBatch puts the elements of elems whose id is not in the_set yet into
// it, as Add would one by one, and keeps them pending as one chunk: under
// filter's aliasing rule (filterFrom), so elems itself when every id was
// new. A second occurrence of an id within elems meets the first and is
// left out.
func (x *ElemIndex) addBatch(elems []*wire.Element) {
	g := elems[:len(elems):len(elems)]
	for i, e := range elems {
		if !x.insert(e) {
			g = filterFrom(elems, i, x.insert)
			break
		}
	}
	if len(g) == 0 {
		return
	}
	x.makeRoom(len(g))
	x.pending = append(x.pending, g)
	x.held += len(g)
	x.live += len(g)
}

// insert puts e's id in the_set and reports whether it was not there yet.
func (x *ElemIndex) insert(e *wire.Element) bool {
	_, fresh := x.m.Slot(e.ID)
	return fresh
}

// push appends e to the run of single adds. When the run's array is full it
// first drops the run's stamped elements, and doubles the array only if
// that leaves it more than half full.
func (x *ElemIndex) push(e *wire.Element) {
	if run := x.pending[0]; len(run) == cap(run) {
		x.compactRun()
		if run = x.pending[0]; 2*len(run) >= cap(run) {
			x.pending[0] = append(make([]*wire.Element, 0, max(16, 2*cap(run))), run...)
		}
	}
	x.pending[0] = append(x.pending[0], e)
}

// makeRoom makes the chunks able to take k more elements within room. When
// at most half of room is live it drops the stamped elements first
// (compact); otherwise, or if that is not enough, it doubles room. So room
// never passes four times the most elements ever pending at once (or 16),
// and elements that are never stamped cannot make it grow without bound.
func (x *ElemIndex) makeRoom(k int) {
	if len(x.pending) == 0 {
		x.pending = append(x.pending, nil)
	}
	if x.held+k <= x.room {
		return
	}
	if 2*x.live <= x.room {
		x.compact()
	}
	for x.held+k > x.room {
		x.room = max(16, 2*x.room)
	}
}

// compactRun drops the stamped elements of the run of single adds, keeping
// the live ones in order, and returns how many live elements the batch
// chunks hold. It probes from the newest back and stops once it has found
// every live element, all before it being dead: stamps mostly follow adds,
// so what is still live is mostly the tail.
func (x *ElemIndex) compactRun() int {
	run := x.pending[0]
	left, w := x.live, len(run)
	for r := len(run) - 1; r >= 0 && left > 0; r-- {
		if !x.m.Marked(run[r].ID) {
			left--
			w--
			run[w] = run[r]
		}
	}
	n := copy(run, run[w:])
	clear(run[n:])
	x.pending[0] = run[:n]
	x.held -= len(run) - n
	return left
}

// compact drops every stamped element from the chunks, leaving held = live.
// The batch chunks cost no probe while all their elements are live, which
// the live count tells: a batch's chunk leaves pending when the batch is
// stamped. Otherwise they are probed from the newest back, as the run is,
// and the probing stops once every live element is found. A dead chunk
// goes, and the live elements of one only part of which is live move to the
// run.
func (x *ElemIndex) compact() {
	left := x.compactRun()
	if left == x.held-len(x.pending[0]) {
		return
	}
	w := len(x.pending)
	for r := len(x.pending) - 1; r >= 1; r-- {
		c := x.pending[r]
		x.pending[r] = nil
		live := 0
		for i := 0; i < len(c) && live < left; i++ {
			if !x.m.Marked(c[i].ID) {
				live++
			}
		}
		left -= live
		switch {
		case live == len(c):
			w--
			x.pending[w] = c
		case live > 0:
			for _, e := range c {
				if !x.m.Marked(e.ID) {
					x.push(e)
				}
			}
		}
	}
	n := copy(x.pending[1:], x.pending[w:])
	clear(x.pending[1+n:])
	x.pending = x.pending[:1+n]
	x.held = x.live
}

// stampEpoch stamps number on those elements of elems that no epoch holds
// yet, in order, adding each to the_set if this server never saw its add,
// and returns them — under filter's aliasing rule, so elems itself when it
// stamps them all. A second occurrence of an id within elems meets the
// first one's stamp and is dropped like any other element already in an
// epoch. The returned slice is where the index finds them: a pending id is
// bound from now on to the epoch's element of that id. If elems is a batch
// chunk of pending, every element of that chunk is stamped now, and the
// chunk leaves.
func (x *ElemIndex) stampEpoch(number uint64, elems []*wire.Element) []*wire.Element {
	n := int(number)
	if n >= len(x.epochs) {
		x.epochs = append(x.epochs, make([][]*wire.Element, n+1-len(x.epochs))...)
	}
	g := elems[:len(elems):len(elems)]
	for i, e := range elems {
		fresh, stamped := x.m.Mark(e.ID) // x.stamp(e), without a call
		if stamped {
			g = filterFrom(elems, i, x.stamp)
			break
		}
		if !fresh {
			x.live--
		}
	}
	if len(x.epochs[n]) == 0 {
		// Capped, so that a later stamp of this number copies instead of
		// appending into an array some epoch or batch owns.
		x.epochs[n] = slices.Clip(g)
	} else {
		x.epochs[n] = append(x.epochs[n], g...)
	}
	if len(elems) > 0 {
		for i := 1; i < len(x.pending); i++ {
			if c := x.pending[i]; len(c) == len(elems) && &c[0] == &elems[0] {
				x.held -= len(c)
				x.pending = slices.Delete(x.pending, i, i+1)
				break
			}
		}
	}
	return g
}

// stamp marks e's id as held by an epoch, adding it to the_set if it is
// not there, and reports whether an epoch did not hold it yet.
func (x *ElemIndex) stamp(e *wire.Element) bool {
	fresh, stamped := x.m.Mark(e.ID)
	if stamped {
		return false
	}
	if !fresh {
		x.live--
	}
	return true
}

// Has reports whether id is in the_set.
func (x *ElemIndex) Has(id wire.ElementID) bool { return x.m.Has(id) }

// Pending returns how many elements of the_set no epoch holds yet: none on
// a correct server once a run has quiesced.
func (x *ElemIndex) Pending() int { return x.live }

// entries iterates over the_set, each element once with the epoch that
// stamped it (0: pending): the live pending elements chunk by chunk, then
// the epochs in number order.
func (x *ElemIndex) entries() iter.Seq2[*wire.Element, uint64] {
	return func(yield func(*wire.Element, uint64) bool) {
		for _, c := range x.pending {
			for _, e := range c {
				if !x.m.Marked(e.ID) && !yield(e, 0) {
					return
				}
			}
		}
		for n, elems := range x.epochs {
			for _, e := range elems {
				if !yield(e, uint64(n)) {
					return
				}
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
		for e := range x.entries() {
			if ids.Has(e.ID) {
				continue
			}
			if !yield(e.ID, e) {
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
