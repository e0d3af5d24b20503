package wire

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// idModelCoverage counts what runs of the driver reached, so the seeded test
// can refuse to pass on sequences that stopped exercising a path.
type idModelCoverage struct {
	inserts, middle, grown, overwrites, resets, absent int
	// Diff against the second map: ids kept and ids removed, comparisons
	// made while the second map was empty, pages of the first map that the
	// second lacks, and pages with all 64 ids present.
	diffKept, diffRemoved, diffEmptyOther, diffLonePages, fullPages int
}

// runIDMapModel interprets data as a sequence of operations on an IDMap[V],
// applies each to a map[ElementID]V as well, and compares the whole contents
// after every step. val makes the value stored by the k-th write. Ids come
// from the shapes the index meets and the ones that would expose a page
// that confuses two ids:
//
//   - the next sequence numbers of one of four clients (dense, in order);
//   - a descending run, and single sequence numbers drawn anywhere in a
//     client's first 512 (so the compact slice inserts in the middle);
//   - every 8th sequence number of a client — what shard.Route leaves a
//     shard at S = 8;
//   - 16 arbitrary bytes;
//   - the boundary sequence numbers 0, 63, 64, 2⁶⁴−1 and their neighbours;
//   - an id seen before with only its client word changed, and one with
//     only its sequence word changed to the same bit of another page.
//
// A second map, an id set, takes the ids of about one operation in three —
// whatever that operation did with them in the first — and after every step
// Diff in both directions is compared with the difference of the two Go maps.
func runIDMapModel[V comparable](t *testing.T, data []byte, val func(k uint64) V, cov *idModelCoverage) {
	t.Helper()
	var (
		m      IDMap[V]
		oracle = make(map[ElementID]V)
		other  IDMap[struct{}]
		others = make(map[ElementID]struct{})
		seen   []ElementID
		nextOf [4]uint64
		writes uint64
		pos    int
	)
	next := func() uint64 {
		if pos >= len(data) {
			return 0
		}
		pos++
		return uint64(data[pos-1])
	}
	boundary := [...]uint64{0, 1, 62, 63, 64, 65, 127, 128, math.MaxUint64 - 64, math.MaxUint64 - 63, math.MaxUint64 - 1, math.MaxUint64}
	// draw returns the ids one operation works on.
	draw := func() []ElementID {
		var ids []ElementID
		switch c := ClientID(next() % 4); next() % 8 {
		case 0: // dense, ascending
			for n := next()%40 + 1; n > 0; n-- {
				nextOf[c]++
				ids = append(ids, NewElementID(c, nextOf[c]))
			}
		case 1: // dense, descending
			top := next()*2 + 70
			for n, count := uint64(0), next()%70+1; n < count; n++ {
				ids = append(ids, NewElementID(c, top-n))
			}
		case 2: // anywhere in the client's first 512
			ids = append(ids, NewElementID(c, next()<<1|next()&1))
		case 3: // every 8th
			r, from := next()%8, next()
			for n := next()%24 + 1; n > 0; n-- {
				ids = append(ids, NewElementID(c, (from+n)*8+r))
			}
		case 4: // arbitrary bytes
			var id ElementID
			for i := range id {
				id[i] = byte(next())
			}
			ids = append(ids, id)
		case 5: // boundaries, for a small and a huge client word
			seq := boundary[next()%uint64(len(boundary))]
			ids = append(ids, NewElementID(c, seq), NewElementID(ClientID(-1)-c, seq))
		case 6: // a seen id under another client word
			if len(seen) > 0 {
				id := seen[next()%uint64(len(seen))]
				id[next()%8] ^= 1 << (next() % 8)
				ids = append(ids, id)
			}
		default: // a seen id moved to the same bit of another page
			if len(seen) > 0 {
				id := seen[next()%uint64(len(seen))]
				lo := binary.LittleEndian.Uint64(id[8:16]) ^ (next()%255+1)<<idPageShift
				binary.LittleEndian.PutUint64(id[8:16], lo)
				ids = append(ids, id)
			}
		}
		return ids
	}

	for step := 0; pos < len(data); step++ {
		op, ids := next()%8, draw()
		for _, id := range ids {
			want, present := oracle[id]
			switch {
			case op <= 2: // Put
				writes++
				m.Put(id, val(writes))
				oracle[id] = val(writes)
			case op <= 5: // Slot
				slot, fresh := m.Slot(id)
				if fresh == present {
					t.Fatalf("step %d: Slot(%x) fresh = %v, oracle has the id: %v", step, id[:], fresh, present)
				}
				var zero V
				if fresh && *slot != zero {
					t.Fatalf("step %d: Slot(%x) inserted %v, want the zero value", step, id[:], *slot)
				}
				if !fresh && *slot != want {
					t.Fatalf("step %d: Slot(%x) points at %v, oracle %v", step, id[:], *slot, want)
				}
				writes++
				*slot = val(writes)
				oracle[id] = val(writes)
			default: // reads only
				if !present {
					cov.absent++
				}
			}
			if got, ok := m.Get(id); ok != (op <= 5 || present) {
				t.Fatalf("step %d: Get(%x) = %v, %v after op %d on an id the oracle had: %v", step, id[:], got, ok, op, present)
			}
			switch {
			case op > 5:
			case !present:
				cov.inserts++
				if _, bit := splitID(id); m.cur.bits&^(bit<<1-1) != 0 {
					cov.middle++
				}
				if len(m.cur.vals) == idPageInline+1 {
					cov.grown++
				}
			default:
				cov.overwrites++
			}
		}
		switch next() % 64 {
		case 0:
			m.Reset()
			clear(oracle)
			cov.resets++
		case 1:
			other.Reset()
			clear(others)
		default:
			if step%3 == 0 {
				for _, id := range ids {
					other.Put(id, struct{}{})
					others[id] = struct{}{}
				}
			}
		}
		seen = append(seen, ids...)
		if len(seen) > 256 {
			seen = seen[len(seen)-256:]
		}
		compareIDMap(t, step, &m, oracle, seen)
		kept, removed := compareDiff(t, step, &m, &other, oracle, others)
		compareDiff(t, step, &other, &m, others, oracle)
		cov.diffKept += kept
		cov.diffRemoved += removed
		if len(others) == 0 {
			cov.diffEmptyOther++
		}
		for k, p := range m.pages {
			if p.bits != 0 && other.pages[k] == nil {
				cov.diffLonePages++
			}
			if p.bits == math.MaxUint64 {
				cov.fullPages++
			}
		}
	}
}

// compareDiff checks that Diff(a, b) yields exactly the pairs of a whose id
// is not in b, each once, and returns how many it kept and how many b removed.
func compareDiff[V comparable, W any](t *testing.T, step int, a *IDMap[V], b *IDMap[W], inA map[ElementID]V, inB map[ElementID]W) (kept, removed int) {
	t.Helper()
	for id, v := range Diff(a, b) {
		want, ok := inA[id]
		if _, excluded := inB[id]; !ok || excluded || v != want {
			t.Fatalf("step %d: Diff yields %x = %v; first map has it: %v (as %v), second has it: %v", step, id[:], v, ok, want, excluded)
		}
		kept++
	}
	for id := range inA {
		if _, excluded := inB[id]; excluded {
			removed++
		}
	}
	if kept+removed != len(inA) {
		t.Fatalf("step %d: Diff yields %d pairs, want %d (%d ids, %d of them in the second map)", step, kept, len(inA)-removed, len(inA), removed)
	}
	return kept, removed
}

// compareIDMap checks Len, All (every pair once, none missing), and Get and
// Has on every recently used id, present or not.
func compareIDMap[V comparable](t *testing.T, step int, m *IDMap[V], oracle map[ElementID]V, probe []ElementID) {
	t.Helper()
	if m.Len() != len(oracle) {
		t.Fatalf("step %d: Len = %d, oracle %d", step, m.Len(), len(oracle))
	}
	n := 0
	for id, v := range m.All() {
		want, ok := oracle[id]
		if !ok || v != want {
			t.Fatalf("step %d: All yields %x = %v, oracle %v (present %v)", step, id[:], v, want, ok)
		}
		n++
	}
	if n != len(oracle) {
		t.Fatalf("step %d: All yields %d pairs, oracle holds %d", step, n, len(oracle))
	}
	for _, id := range probe {
		want, present := oracle[id]
		if got, ok := m.Get(id); ok != present || got != want {
			t.Fatalf("step %d: Get(%x) = %v, %v, oracle %v, %v", step, id[:], got, ok, want, present)
		}
		if m.Has(id) != present {
			t.Fatalf("step %d: Has(%x) = %v, oracle %v", step, id[:], !present, present)
		}
	}
}

func idModelStream(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// The paged index against a Go map on seeded random sequences, with an
// 8-byte value and with the empty value the id sets use (whose pages are
// their bitmaps and whose slices never allocate).
func TestIDMapModel(t *testing.T) {
	var cov idModelCoverage
	for seed := int64(1); seed <= 8; seed++ {
		runIDMapModel(t, idModelStream(seed, 4000), func(k uint64) uint64 { return k }, &cov)
		runIDMapModel(t, idModelStream(seed, 4000), func(uint64) struct{} { return struct{}{} }, new(idModelCoverage))
	}
	t.Logf("reached: %+v", cov)
	if cov.inserts < 1000 || cov.middle < 100 || cov.grown < 10 || cov.overwrites < 100 || cov.resets < 3 || cov.absent < 100 ||
		cov.diffKept < 1000 || cov.diffRemoved < 1000 || cov.diffEmptyOther < 10 || cov.diffLonePages < 100 || cov.fullPages < 10 {
		t.Errorf("the sequences no longer reach every case the model is for: %+v", cov)
	}
}

func FuzzIDMap(f *testing.F) {
	for seed := int64(100); seed < 104; seed++ {
		f.Add(idModelStream(seed, 300))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runIDMapModel(t, data, func(k uint64) uint64 { return k }, new(idModelCoverage))
	})
}

// The layout the pages rely on: a client's ids are consecutive integers in
// the word the page key shifts, under one value of the word it keeps whole.
// A change of NewElementID that scatters them fails here, not in a benchmark.
func TestConsecutiveIDsShareAPage(t *testing.T) {
	var m IDMap[struct{}]
	for seq := uint64(1); seq <= 300; seq++ {
		m.Put(NewElementID(7, seq), struct{}{})
	}
	if len(m.pages) > 6 {
		t.Fatalf("300 consecutive ids of one client spread over %d pages, want at most 6", len(m.pages))
	}
}

// bytesPerEntry builds an IDMap with a 16-byte value — the size of a
// server's index entry — over the given ids and returns the live heap it
// holds, per id.
func bytesPerEntry(ids []ElementID) float64 {
	type v16 struct{ a, b uint64 }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := new(IDMap[v16])
	for i, id := range ids {
		m.Put(id, v16{uint64(i), 1})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(len(ids))
}

// The memory regimes of DESIGN.md §6, pinned. The two Go maps this index
// replaced cost 93 B per id whatever the ids were; the index must stay below
// that wherever a workload can put it, and its known worst case is written
// down rather than hidden.
func TestIDMapBytesPerEntry(t *testing.T) {
	const n = 100_000
	consecutive := make([]ElementID, n)
	eighth := make([]ElementID, n)
	lonely := make([]ElementID, n)
	for i := range consecutive {
		consecutive[i] = NewElementID(3, uint64(i+1))
		eighth[i] = NewElementID(3, uint64(i)*8+5)
		lonely[i] = NewElementID(3, uint64(i)*idPageSize)
	}
	randomEighth := make([]ElementID, 0, n)
	rng := rand.New(rand.NewSource(20))
	for seq := uint64(1); len(randomEighth) < n; seq++ {
		if rng.Intn(8) == 0 {
			randomEighth = append(randomEighth, NewElementID(3, seq))
		}
	}
	for _, tc := range []struct {
		name string
		ids  []ElementID
		max  float64
	}{
		{"consecutive ids of one client", consecutive, 24},
		// What a shard holds at S = 8: FNV-1a's low bits make power-of-two
		// routing periodic, so every page keeps exactly 8 of its 64 ids.
		{"every 8th id", eighth, 32},
		// What a router without that period would leave: 8 ids a page on
		// average, so four pages in ten outgrow the inline values.
		{"a random eighth", randomEighth, 93},
		// The known worst case, which no workload reaches: every id alone
		// in its page pays for the page, its inline values and a map slot.
		{"one id per page", lonely, 224},
	} {
		got := bytesPerEntry(tc.ids)
		t.Logf("%-30s %6.1f B/entry (limit %v)", tc.name, got, tc.max)
		if got > tc.max {
			t.Errorf("%s: %.1f B/entry, limit %v", tc.name, got, tc.max)
		}
	}
}
