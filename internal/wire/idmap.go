package wire

import (
	"encoding/binary"
	"iter"
	"math/bits"
)

// Page geometry. A page covers the 64 ids that agree on id[0:8] and on
// id[8:16] >> 6, so one uint64 is its occupancy bitmap. A page's first
// idPageInline values live inside the page itself; the next insertion moves
// them, once, into an array with room for all 64.
const (
	idPageShift  = 6
	idPageSize   = 1 << idPageShift
	idPageInline = 8
)

type idPageKey struct{ hi, lo uint64 }

// idPage holds the values of the ids present in one page, compactly: the
// value of the id at bit b is vals[popcount(bits & (1<<b - 1))], its rank
// among the page's present ids. vals starts as a slice of inline, so a page
// is never copied.
type idPage[V any] struct {
	bits   uint64
	vals   []V
	inline [idPageInline]V
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
// There is no delete, only Reset. Like a Go map an IDMap has one owner at a
// time; unlike one, even its read methods write (the last-page cursor), so
// two goroutines may not so much as read it concurrently. Iteration order
// is unspecified. The zero value is an empty map ready to use; an IDMap
// must not be copied after first use.
type IDMap[V any] struct {
	pages map[idPageKey]*idPage[V]
	n     int

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

// Len returns the number of ids present.
func (m *IDMap[V]) Len() int { return m.n }

// Has reports whether id is present.
func (m *IDMap[V]) Has(id ElementID) bool {
	k, bit := splitID(id)
	p := m.page(k)
	return p != nil && p.bits&bit != 0
}

// Get returns id's value and whether id is present.
func (m *IDMap[V]) Get(id ElementID) (v V, ok bool) {
	k, bit := splitID(id)
	p := m.page(k)
	if p == nil || p.bits&bit == 0 {
		return v, false
	}
	return p.vals[bits.OnesCount64(p.bits&(bit-1))], true
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
	rank := bits.OnesCount64(p.bits & (bit - 1))
	if p.bits&bit != 0 {
		return &p.vals[rank], false
	}
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
	m.n++
	return &p.vals[rank], true
}

// All iterates over every (id, value) pair. The map must not be inserted
// into while the iteration runs.
func (m *IDMap[V]) All() iter.Seq2[ElementID, V] {
	return Diff(m, &IDMap[struct{}]{})
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

// Reset empties the map but keeps its pages and their arrays, so filling it
// again with ids from the same pages — the checker's next server — allocates
// nothing.
func (m *IDMap[V]) Reset() {
	for _, p := range m.pages {
		clear(p.vals)
		p.vals = p.vals[:0]
		p.bits = 0
	}
	m.n = 0
}
