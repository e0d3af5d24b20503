package mempool

// The pool's admission ring and states, and the key table's per-ordinal
// transaction and count, are windows over an index that only moves up — a
// sequence number or an ordinal — whose front is released as transactions
// commit and keys are let go. A slice would slide or regrow for that; a
// window of fixed pages releases its front a page at a time and takes its
// next page from the ones it released.
const (
	pageShift = 8
	pageSize  = 1 << pageShift // slots per page
	pageMask  = pageSize - 1
	// maxFreePages bounds a window's free list; a page released to a full
	// one is left to the collector.
	maxFreePages = 8
)

// paged is a window of T over a non-negative index, stored in pages of
// pageSize slots: dir[j] holds the indices from base+j·pageSize on, base a
// multiple of pageSize, so the pages cover one run of indices. An index no
// page covers reads as zero. The owner keeps its own bounds within the
// pages; paged only adds pages at either end and releases them from the
// front, each cleared as it goes to the free list it is taken from again.
type paged[T any] struct {
	dir  []*[pageSize]T
	base int
	free []*[pageSize]T
}

// get returns the value at i, zero where no page covers i.
func (p *paged[T]) get(i int) T {
	if j := uint(i-p.base) >> pageShift; j < uint(len(p.dir)) {
		return p.dir[j][i&pageMask]
	}
	var zero T
	return zero
}

// at returns the slot of i, which a page must cover.
func (p *paged[T]) at(i int) *T {
	return &p.dir[(i-p.base)>>pageShift][i&pageMask]
}

// slot returns the slot of i, first adding the pages between i and the
// pages there are, or i's own page if there are none.
func (p *paged[T]) slot(i int) *T {
	pg := i &^ pageMask
	switch {
	case len(p.dir) == 0:
		p.dir = append(p.dir, p.take())
		p.base = pg
	case pg < p.base:
		n := (p.base - pg) >> pageShift
		p.dir = append(p.dir, make([]*[pageSize]T, n)...)
		copy(p.dir[n:], p.dir)
		for j := range n {
			p.dir[j] = p.take()
		}
		p.base = pg
	}
	for pg >= p.base+len(p.dir)<<pageShift {
		p.dir = append(p.dir, p.take())
	}
	return p.at(i)
}

// span returns the slots from i up to hi or to the end of i's page,
// whichever comes first. A page must cover i.
func (p *paged[T]) span(i, hi int) []T {
	return p.dir[(i-p.base)>>pageShift][i&pageMask : min(i&pageMask+(hi-i), pageSize)]
}

// releaseBelow releases every page wholly below index i.
func (p *paged[T]) releaseBelow(i int) {
	n := min((i-p.base)>>pageShift, len(p.dir))
	if n <= 0 {
		return
	}
	for _, pg := range p.dir[:n] {
		if len(p.free) < maxFreePages {
			clear(pg[:])
			p.free = append(p.free, pg)
		}
	}
	m := copy(p.dir, p.dir[n:])
	clear(p.dir[m:])
	p.dir = p.dir[:m]
	p.base += n << pageShift
}

// releaseAll releases every page.
func (p *paged[T]) releaseAll() { p.releaseBelow(p.base + len(p.dir)<<pageShift) }

// take returns a released page, or a new one.
func (p *paged[T]) take() *[pageSize]T {
	n := len(p.free)
	if n == 0 {
		return new([pageSize]T)
	}
	pg := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return pg
}
