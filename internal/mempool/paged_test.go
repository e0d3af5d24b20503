package mempool

import (
	"fmt"
	"testing"
)

// The paged window step by step: pages added at the back and, below the
// first page, at the front; spans that stop at a page's end; the front
// released a page at a time, cleared onto the free list and taken back for
// the next page; and a free list that keeps at most maxFreePages.
func TestPagedWindow(t *testing.T) {
	var p paged[int32]
	if p.get(0) != 0 || p.get(5*pageSize) != 0 {
		t.Fatal("an empty window reads nonzero")
	}
	*p.slot(pageSize + 5) = 1
	if p.base != pageSize || len(p.dir) != 1 {
		t.Fatalf("base/pages = %d/%d after the first slot, want %d/1", p.base, len(p.dir), pageSize)
	}
	*p.slot(2 * pageSize) = 2 // the first index of the next page
	*p.slot(pageSize - 1) = 3 // the last index below the first page
	if p.base != 0 || len(p.dir) != 3 {
		t.Fatalf("base/pages = %d/%d after widening at both ends, want 0/3", p.base, len(p.dir))
	}
	for i, want := range map[int]int32{pageSize - 2: 0, pageSize - 1: 3, pageSize: 0, pageSize + 5: 1,
		2*pageSize - 1: 0, 2 * pageSize: 2, 3 * pageSize: 0, -1: 0} {
		if got := p.get(i); got != want {
			t.Errorf("get(%d) = %d, want %d", i, got, want)
		}
	}
	if s := p.span(pageSize-3, 3*pageSize); len(s) != 3 || s[2] != 3 {
		t.Fatalf("span to the page's end = %v, want [0 0 3]", s)
	}
	if s := p.span(pageSize, pageSize+6); len(s) != 6 || s[5] != 1 {
		t.Fatalf("span to hi = %v, want five zeros and 1", s)
	}

	released := p.dir[0]
	p.releaseBelow(2*pageSize - 1) // page 0 is wholly below it, page 1 is not
	if p.base != pageSize || len(p.dir) != 2 || len(p.free) != 1 || p.free[0] != released {
		t.Fatalf("base/pages/free = %d/%d/%d after releasing the first page, want %d/2/1", p.base, len(p.dir), len(p.free), pageSize)
	}
	if *released != [pageSize]int32{} {
		t.Fatal("a released page was not cleared")
	}
	if p.get(pageSize-1) != 0 || p.get(pageSize+5) != 1 {
		t.Fatal("the release changed what the pages read")
	}
	*p.slot(3*pageSize + 7) = 4
	if len(p.dir) != 3 || p.dir[2] != released || len(p.free) != 0 {
		t.Fatal("the next page was not the released one")
	}
	for i := 3 * pageSize; i < 4*pageSize; i++ {
		if got := p.get(i); got != 0 && i != 3*pageSize+7 {
			t.Fatalf("get(%d) = %d in the reused page, want 0", i, got)
		}
	}
	p.releaseAll()
	if len(p.dir) != 0 || len(p.free) != 3 || p.get(3*pageSize+7) != 0 {
		t.Fatalf("pages/free = %d/%d after releasing all, want 0/3", len(p.dir), len(p.free))
	}

	*p.slot(0) = 1
	*p.slot((2*maxFreePages + 1) * pageSize) = 1
	p.releaseAll()
	if len(p.free) != maxFreePages {
		t.Fatalf("the free list keeps %d pages, want the bound %d", len(p.free), maxFreePages)
	}
}

// pagedUniverse is the run of indices the model drives: eight pages, so
// the window is often several pages long and often empty.
const pagedUniverse = 8 * pageSize

// pagedIndex decodes an index from two bytes, most of them within two
// slots of a page's edge at either end.
func pagedIndex(a, b byte) int {
	page := int(a) % (pagedUniverse / pageSize)
	switch b % 4 {
	case 0:
		return page*pageSize + int(b/4)%3
	case 1:
		return page*pageSize + pageMask - int(b/4)%3
	default:
		return page*pageSize + int(b)*pageSize/256
	}
}

// runPaged interprets data as operations on a paged window and on a map
// from index to value, three bytes each, and after every operation
// compares every index of the universe, the spans of the covered ones, and
// the structure: base on a page edge, the free list within its bound and
// all zero, no page listed twice. It returns how many pages it saw added at
// the front and reused.
func runPaged(t *testing.T, data []byte) (front, reused int) {
	t.Helper()
	var p paged[int32]
	want := make(map[int]int32)
	released := make(map[*[pageSize]int32]bool)
	for step := 0; step+2 < len(data); step += 3 {
		i := pagedIndex(data[step+1], data[step+2])
		switch data[step] % 4 {
		case 0, 1: // the slot-and-write an owner does when it takes in i
			base, pages := p.base, len(p.dir)
			for _, pg := range p.free {
				released[pg] = true
			}
			*p.slot(i) = int32(step + 1)
			want[i] = int32(step + 1)
			if pages > 0 && p.base < base {
				front++
			}
			for _, pg := range p.dir {
				if released[pg] {
					reused++
					delete(released, pg)
				}
			}
		case 2:
			p.releaseBelow(i)
			for j := range want {
				if j < i&^pageMask {
					delete(want, j)
				}
			}
		case 3:
			if data[step+1]%8 == 0 {
				p.releaseAll()
				clear(want)
			}
		}
		if err := checkPaged(&p, want); err != nil {
			t.Fatalf("step %d (op %d, index %d): %v", step/3, data[step]%4, i, err)
		}
	}
	return front, reused
}

func checkPaged(p *paged[int32], want map[int]int32) error {
	if p.base%pageSize != 0 || p.base < 0 {
		return fmt.Errorf("base %d is not a page edge", p.base)
	}
	if len(p.free) > maxFreePages {
		return fmt.Errorf("%d pages on the free list", len(p.free))
	}
	seen := make(map[*[pageSize]int32]bool)
	for _, pg := range append(p.free[:len(p.free):len(p.free)], p.dir...) {
		if seen[pg] {
			return fmt.Errorf("page %p listed twice", pg)
		}
		seen[pg] = true
	}
	for _, pg := range p.free {
		if *pg != [pageSize]int32{} {
			return fmt.Errorf("a free page is not all zero")
		}
	}
	for i := -1; i <= pagedUniverse; i++ {
		if got := p.get(i); got != want[i] {
			return fmt.Errorf("get(%d) = %d, want %d", i, got, want[i])
		}
	}
	hi := p.base + len(p.dir)<<pageShift
	for i := p.base; i < hi; {
		s := p.span(i, hi)
		if len(s) != pageSize {
			return fmt.Errorf("span(%d, %d) has %d slots, want a page", i, hi, len(s))
		}
		for k, v := range s {
			if v != want[i+k] {
				return fmt.Errorf("span(%d, %d)[%d] = %d, want %d", i, hi, k, v, want[i+k])
			}
		}
		i += len(s)
	}
	return nil
}

// The paged window against a map on seeded random operation streams, which
// must reach front widening and page reuse.
func TestPagedWindowModel(t *testing.T) {
	front, reused := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		f, r := runPaged(t, modelStream(seed, 900))
		front += f
		reused += r
	}
	t.Logf("pages added at the front %d times, released pages reused %d times", front, reused)
	if front == 0 || reused == 0 {
		t.Errorf("the streams no longer widen the front (%d) or reuse a page (%d)", front, reused)
	}
}

func FuzzPagedWindow(f *testing.F) {
	for seed := int64(100); seed < 103; seed++ {
		f.Add(modelStream(seed, 300))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runPaged(t, data) })
}
