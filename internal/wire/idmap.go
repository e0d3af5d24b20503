package wire

import (
	"encoding/binary"
	"iter"
	"math/bits"
)

// Page geometry. A page covers the 64 ids that agree on id[0:8] and on
// id[8:16] >> 6, so one uint64 is its occupancy bitmap and another its mark
// word. A page's first idPageInline values live inside the page itself; the
// next insertion moves them, once, into an array with room for all 64.
const (
	idPageShift  = 6
	idPageSize   = 1 << idPageShift
	idPageInline = 8
)

type idPageKey struct{ hi, lo uint64 }

// idPage holds the values of the ids present in one page, compactly: the
// value of the id at bit b is vals[popcount(bits & (1<<b - 1))], its rank
// among the page's present ids. vals starts as a slice of inline, so a page
// is never copied. marks has the bit of each marked id, a subset of bits.
type idPage[V any] struct {
	bits   uint64
	marks  uint64
	inline [idPageInline]V // before vals: a zero-size last field pads a struct
	vals   []V
}

// IDMap is a map from ElementID to V for the tables on the element path,
// whose keys are overwhelmingly runs of consecutive sequence numbers of a
// few clients. It keeps a small Go map of 64-id pages instead of one entry
// per id, and remembers the last page it touched, so the consecutive ids of
// a batch reach their page without hashing anything. Identity is the full
// 16 bytes: any ElementID is a legal key, and ids that share no page cost a
// page each (DESIGN.md §6 has the measured bytes per entry at every
// occupancy).
//
// Beside its value each id carries one mark bit, set by Mark and read by
// Marked, which costs nothing per id but its bit: an IDMap[struct{}] with
// marks is a set with a flag per member and no value array at all.
//
// There is no delete, only Reset. Like a Go map an IDMap has one owner at a
// time; unlike one, even its read methods write (the last-page cursor), so
// two goroutines may not so much as read it concurrently. Iteration order
// is unspecified. The zero value is an empty map ready to use; an IDMap
// must not be copied after first use.
type IDMap[V any] struct {
	pages map[idPageKey]*idPage[V]

	curKey idPageKey
	cur    *idPage[V]
}

// splitID returns id's page and its bit within the page's bitmap.
func splitID(id ElementID) (idPageKey, uint64) {
	lo := binary.LittleEndian.Uint64(id[8:16])
	return idPageKey{binary.LittleEndian.Uint64(id[0:8]), lo >> idPageShift}, 1 << (lo & (idPageSize - 1))
}

// page returns the page with key k, or nil, and leaves the cursor on it.
func (m *IDMap[V]) page(k idPageKey) *idPage[V] {
	if m.cur != nil && m.curKey == k {
		return m.cur
	}
	p := m.pages[k]
	if p != nil {
		m.curKey, m.cur = k, p
	}
	return p
}

// Has reports whether id is present.
func (m *IDMap[V]) Has(id ElementID) bool {
	k, bit := splitID(id)
	p := m.page(k)
	return p != nil && p.bits&bit != 0
}

// Put sets id's value, inserting id if it is absent.
func (m *IDMap[V]) Put(id ElementID, v V) {
	slot, _ := m.Slot(id)
	*slot = v
}

// Slot returns a pointer to id's value, first inserting id with the zero
// value if it is absent (fresh reports which). It is the one-probe form of
// "look up, then insert or update". The pointer is valid until the next
// insertion into the map.
func (m *IDMap[V]) Slot(id ElementID) (slot *V, fresh bool) {
	p, bit := m.insert(id)
	rank := bits.OnesCount64(p.bits & (bit - 1))
	if p.bits&bit != 0 {
		return &p.vals[rank], false
	}
	return p.add(bit, rank), true
}

// Mark sets id's mark, first inserting id with the zero value if it is
// absent. fresh reports that id was absent, marked that its mark was set
// already.
func (m *IDMap[V]) Mark(id ElementID) (fresh, marked bool) {
	p, bit := m.insert(id)
	if p.bits&bit == 0 {
		p.add(bit, bits.OnesCount64(p.bits&(bit-1)))
		fresh = true
	}
	marked = p.marks&bit != 0
	p.marks |= bit
	return fresh, marked
}

// Marked reports whether id is present with its mark set.
func (m *IDMap[V]) Marked(id ElementID) bool {
	k, bit := splitID(id)
	p := m.page(k)
	return p != nil && p.marks&bit != 0
}

// insert returns id's page, making it if there is none, and id's bit in it.
func (m *IDMap[V]) insert(id ElementID) (*idPage[V], uint64) {
	k, bit := splitID(id)
	p := m.page(k)
	if p == nil {
		p = &idPage[V]{}
		p.vals = p.inline[:0]
		if m.pages == nil {
			m.pages = make(map[idPageKey]*idPage[V])
		}
		m.pages[k] = p
		m.curKey, m.cur = k, p
	}
	return p, bit
}

// add inserts the absent id at bit, of the given rank, with the zero value
// and returns a pointer to that value.
func (p *idPage[V]) add(bit uint64, rank int) *V {
	n := len(p.vals)
	if n == cap(p.vals) {
		grown := make([]V, n, idPageSize)
		copy(grown, p.vals)
		clear(p.vals) // inline no longer holds them; drop its pointers
		p.vals = grown
	}
	p.vals = p.vals[:n+1]
	copy(p.vals[rank+1:], p.vals[rank:n])
	var zero V
	p.vals[rank] = zero
	p.bits |= bit
	return &p.vals[rank]
}

// Diff iterates over the (id, value) pairs of a whose id is absent from b —
// the set difference a ∖ b — a page at a time: one lookup in b and one
// `bits &^ bits` per page of a, however many ids the page holds, instead of
// a probe of b per id. It moves neither map's cursor; neither may be
// inserted into while the iteration runs.
func Diff[V, W any](a *IDMap[V], b *IDMap[W]) iter.Seq2[ElementID, V] {
	return func(yield func(ElementID, V) bool) {
		for k, p := range a.pages {
			d := p.bits
			if q := b.pages[k]; q != nil {
				d &^= q.bits
			}
			var id ElementID
			binary.LittleEndian.PutUint64(id[0:8], k.hi)
			for ; d != 0; d &= d - 1 {
				lo := k.lo<<idPageShift | uint64(bits.TrailingZeros64(d))
				binary.LittleEndian.PutUint64(id[8:16], lo)
				if !yield(id, p.vals[bits.OnesCount64(p.bits&(d&-d-1))]) {
					return
				}
			}
		}
	}
}

// Reset empties the map, marks included, but keeps its pages and their
// arrays, so filling it again with ids from the same pages — the checker's
// next server — allocates nothing.
func (m *IDMap[V]) Reset() {
	for _, p := range m.pages {
		clear(p.vals)
		p.vals = p.vals[:0]
		p.bits, p.marks = 0, 0
	}
}
