package mempool

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// sharedTxs is the shared-table driver's universe: 19 transactions of all
// four kinds, two proofs with one 64-bit hash and two whose hashes agree
// only in the top 32 bits a slot keeps. 23 keys keep the table at 32 slots,
// so a deletion crosses the end of the slot array every few prunes, and
// sharedTwins[i] is sharedTxs[i]'s key in another *wire.Tx.
var sharedTxs, sharedTwins = func() (txs, twins [23]*wire.Tx) {
	for i := range 19 {
		txs[i] = modelTx(i)
	}
	txs[19], txs[20] = collidingProofs(1000, 3, 0)
	txs[21], txs[22] = collidingProofs(2000, 5, 1)
	for i, tx := range txs {
		twins[i] = twinTx(tx, i%2 == 1)
	}
	return txs, twins
}()

// sharedCoverage counts what runs of the shared driver reached.
type sharedCoverage struct {
	ledgerCommits, wrapped, keptForOthers, twins int
	pages                                        [3]int // see movedPages
}

// runShared interprets data as operations on k ∈ [2, 4] pools (the first
// byte picks k, and whether they start at nearPageEnd) that share one Keys
// table, each pool checked against its
// own oracle after every step: adds and gossip of one transaction to
// several pools, its twin one time in four; blocks committed on one pool
// or on every pool, each listing a transaction twice and one the pool may
// never have seen; and prunes at each pool's own horizon. After every step
// the table must hold exactly the keys some pool holds a state for, with
// each ordinal's count of holders right (Keys.Verify).
func runShared(t *testing.T, data []byte, cov *sharedCoverage) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	s := sim.New(1)
	keys := NewKeys()
	pools := make([]*Mempool, 2+int(data[0])%3)
	oracles := make([]*oracle, len(pools))
	heights := make([]uint64, len(pools))
	for i := range pools {
		pools[i] = New(wire.NodeID(i), s, nil, nil, PaperConfig(), modelCheck, nil)
		pools[i].ShareKeys(keys)
		oracles[i] = &oracle{cfg: pools[i].cfg, state: make(map[wire.TxKey]int8), everPruned: make(map[wire.TxKey]bool)}
	}
	if data[0]/3%2 == 1 {
		startLate(keys, pools...)
	}
	pos := 1
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	pick := func() *wire.Tx {
		c := next()
		if c/len(sharedTxs)%4 == 0 {
			cov.twins++
			return sharedTwins[c%len(sharedTxs)]
		}
		return sharedTxs[c%len(sharedTxs)]
	}
	// block is what pool p would propose, cut short, with one of its
	// transactions twice and one the pool may never have seen.
	block := func(p int) []*wire.Tx {
		pooled := pools[p].Reap(1 << 30)
		b := pooled[:min(next()%8, len(pooled))]
		if len(pooled) > 0 {
			twice := pooled[next()%len(pooled)]
			b = append(b, twice, twice)
		}
		return append(b, pick())
	}
	commit := func(p int, b []*wire.Tx) {
		heights[p]++
		pools[p].RemoveCommitted(heights[p], b)
		oracles[p].remove(heights[p], b, s.Now())
	}

	for step := 0; pos < len(data); step++ {
		pages := make([][3]int, len(pools))
		for q, p := range pools {
			pages[q] = frontPages(p)
		}
		switch p := next() % len(pools); next() % 5 {
		case 0:
			tx := pick()
			if got, want := pools[p].AddTx(tx), oracles[p].addTx(tx, s.Now()); got != want {
				t.Fatalf("step %d: pool %d AddTx = %v, oracle %v", step, p, got, want)
			}
		case 1: // one transaction gossiped to the pools of a bit mask
			tx, mask := pick(), next()
			for q := range pools {
				if mask>>q&1 == 1 {
					pools[q].ReceiveGossip(&GossipMsg{Txs: []*wire.Tx{tx}})
					oracles[q].add(tx)
				}
			}
		case 2:
			commit(p, block(p))
		case 3: // a ledger commit: every pool commits p's block
			b := block(p)
			for q := range pools {
				commit(q, b)
			}
			cov.ledgerCommits++
		case 4:
			h := heights[p] - min(heights[p], uint64(next()%3))
			countPruneDeletions(keys, pools[p], h, cov)
			pools[p].PruneTombstonesBelow(h)
			oracles[p].prune(h)
		}
		union := make(map[wire.TxKey]bool)
		for q, p := range pools {
			movedPages(p, pages[q], &cov.pages)
			compareModel(t, step, p, oracles[q], sharedTxs[:])
			for key := range oracles[q].state {
				union[key] = true
			}
		}
		if keys.Len() != len(union) {
			t.Fatalf("step %d: the table holds %d keys, the pools %d", step, keys.Len(), len(union))
		}
		if err := keys.Verify(pools); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(keys.slots) > 32 {
			t.Fatalf("step %d: %d slots for at most %d keys", step, len(keys.slots), len(sharedTxs))
		}
	}
}

// countPruneDeletions adds to cov what pruning p at height h is about to do
// to the table: keys p alone holds whose deletion starts in a probe run
// that crosses the end of the slot array, and tombstones p drops while
// another pool still holds the key.
func countPruneDeletions(keys *Keys, p *Mempool, h uint64, cov *sharedCoverage) {
	for _, b := range p.tombstones {
		if b.height > h {
			return
		}
		for _, tx := range b.txs {
			key := tx.MapKey()
			ord := keys.find(tx, &key)
			if p.state(ord) >= 0 {
				continue
			}
			if keys.refs.get(int(ord)) > 1 {
				cov.keptForOthers++
			} else if runsPastEnd(keys, tx) {
				cov.wrapped++
			}
		}
	}
}

// Pools sharing one table against one oracle each, on seeded random
// sequences that must reach every case the driver is for.
func TestSharedKeys(t *testing.T) {
	var cov sharedCoverage
	for seed := int64(1); seed <= 8; seed++ {
		runShared(t, modelStream(seed, 3000), &cov)
	}
	t.Logf("reached: %+v", cov)
	if cov.ledgerCommits == 0 || cov.wrapped < 10 || cov.keptForOthers == 0 || cov.twins == 0 || slices.Min(cov.pages[:]) == 0 {
		t.Errorf("the sequences no longer reach every case the driver is for: %+v", cov)
	}
}

// Each seed stream runs twice: its pools started at the first sequence
// number and ordinal, and at nearPageEnd, where 300 bytes take the windows
// across a page boundary.
func FuzzSharedKeys(f *testing.F) {
	for seed := int64(100); seed < 103; seed++ {
		for _, late := range []byte{0, 3} {
			data := modelStream(seed, 300)
			data[0] = data[0]%3 + late
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { runShared(t, data, new(sharedCoverage)) })
}

// A pool that stops pruning, as a crashed node's does, holds the table's
// window of ordinals open from the oldest key it holds. It pins none of the
// transactions the other pools let go meanwhile: the window keeps a nil
// pointer and a zero count for each, 12 bytes per ordinal interned since,
// and the live pool's own window of states starts at its own oldest key.
func TestStalledPoolPinsNoReleasedTx(t *testing.T) {
	keys := NewKeys()
	stalled := New(0, sim.New(1), nil, nil, PaperConfig(), nil, nil)
	live := New(1, sim.New(1), nil, nil, PaperConfig(), nil, nil)
	stalled.ShareKeys(keys)
	live.ShareKeys(keys)
	first := make([]*wire.Tx, 10)
	for i := range first {
		first[i] = elemTx(i, 100)
		stalled.AddTx(first[i])
		live.AddTx(first[i])
	}
	stalled.RemoveCommitted(1, first) // and then it stops
	live.RemoveCommitted(1, first)
	const blocks, perBlock = 100, 100
	for h := 2; h <= blocks+1; h++ {
		b := make([]*wire.Tx, perBlock)
		for i := range b {
			b[i] = elemTx(len(first)+(h-2)*perBlock+i, 100)
			live.AddTx(b[i])
		}
		live.RemoveCommitted(uint64(h), b)
		live.PruneTombstonesBelow(uint64(h - 1))
	}
	pools := []*Mempool{stalled, live}
	if err := keys.Verify(pools); err != nil {
		t.Fatal(err)
	}
	pinned := 0
	for ord := keys.lo; ord < keys.next; ord++ {
		if keys.first.get(ord) != nil {
			pinned++
		}
	}
	interned := len(first) + blocks*perBlock
	if keys.lo != 1 || keys.next != interned+1 || pinned != len(first)+perBlock || keys.Len() != pinned {
		t.Fatalf("window [%d, %d), %d transactions pinned, %d keys: want [1, %d), %d and %d",
			keys.lo, keys.next, pinned, keys.Len(), interned+1, len(first)+perBlock, len(first)+perBlock)
	}
	if n := len(keys.first.dir); n != pagesOf(keys.lo, keys.next) || len(keys.refs.dir) != n {
		t.Fatalf("the table keeps %d and %d pages for the window [%d, %d), want %d",
			n, len(keys.refs.dir), keys.lo, keys.next, pagesOf(keys.lo, keys.next))
	}
	lo := interned - perBlock + 1
	if live.entLo != int32(lo) || live.state(int32(lo+perBlock-1)) == 0 || live.state(int32(lo+perBlock)) != 0 ||
		len(live.entries.dir) != pagesOf(lo, lo+perBlock) {
		t.Fatalf("the live pool's window starts at %d in %d pages, want %d, %d ordinals in %d pages",
			live.entLo, len(live.entries.dir), lo, perBlock, pagesOf(lo, lo+perBlock))
	}
	t.Logf("a stalled pool holding %d keys keeps the table's window at %d ordinals, %d pages, %d bytes",
		stalled.held, keys.next-keys.lo, len(keys.first.dir), len(keys.first.dir)*pageSize*(8+4))

	stalled.PruneTombstonesBelow(1) // back, and checkpointing again
	if err := keys.Verify(pools); err != nil {
		t.Fatal(err)
	}
	if keys.Len() != perBlock || keys.next-keys.lo != perBlock || len(keys.first.dir) != pagesOf(keys.lo, keys.next) ||
		stalled.held != 0 || len(stalled.entries.dir) != 0 {
		t.Fatalf("after the stalled pool prunes: %d keys, window of %d in %d pages, stalled pool holds %d in %d pages: want %d, %d in %d, 0 and 0",
			keys.Len(), keys.next-keys.lo, len(keys.first.dir), stalled.held, len(stalled.entries.dir),
			perBlock, perBlock, pagesOf(keys.lo, keys.next))
	}
}

// pagesOf returns how many pages cover the indices [lo, hi), hi > lo.
func pagesOf(lo, hi int) int { return (hi-1)>>pageShift - lo>>pageShift + 1 }

// A transaction larger than the pool's limit, a block, is refused and
// counted as rejected, and the next one is admitted and reaped: before the
// limit it was pooled, and Reap, which stops at the first transaction that
// does not fit, never returned anything again.
func TestOversizedTxRefused(t *testing.T) {
	p := New(0, sim.New(1), nil, nil, PaperConfig(), nil, nil)
	p.SetMaxTxBytes(1000)
	big, full, small := elemTx(1, 1001), elemTx(2, 1000), elemTx(3, 10)
	if p.AddTx(big) {
		t.Fatal("a transaction larger than a block was admitted")
	}
	p.ReceiveGossip(&GossipMsg{Txs: []*wire.Tx{big, full, small}})
	if _, rejected, _, _ := p.Stats(); rejected != 2 || p.Size() != 2 || p.Has(big.MapKey()) || p.keys.Len() != 2 {
		t.Fatalf("rejected %d, size %d, has the big one %v, %d keys: want 2, 2, false, 2",
			rejected, p.Size(), p.Has(big.MapKey()), p.keys.Len())
	}
	if got := p.Reap(1000); len(got) != 1 || got[0] != full {
		t.Fatalf("Reap(1000) = %d txs, want the one of exactly 1000 bytes", len(got))
	}
	p.RemoveCommitted(1, []*wire.Tx{full})
	if got := p.Reap(1000); len(got) != 1 || got[0] != small {
		t.Fatalf("Reap(1000) after the commit = %d txs, want the small one", len(got))
	}
}

// Keys.Verify reports each way a shared table can disagree with its pools.
// Every case builds the same two pools over one table, ordinals 1-4 held
// by pool 0 and 1-2 by pool 1 too, breaks one thing, and expects the
// verdict that names it.
func TestKeysVerifyReportsEachCorruption(t *testing.T) {
	build := func() (*Keys, []*Mempool, []*wire.Tx) {
		keys := NewKeys()
		pools := []*Mempool{New(0, sim.New(1), nil, nil, PaperConfig(), nil, nil), New(1, sim.New(1), nil, nil, PaperConfig(), nil, nil)}
		txs := make([]*wire.Tx, 4)
		for i := range txs {
			txs[i] = elemTx(i, 100)
		}
		for i, p := range pools {
			p.ShareKeys(keys)
			for _, tx := range txs[:4-2*i] {
				p.AddTx(tx)
			}
		}
		return keys, pools, txs
	}
	if keys, pools, _ := build(); keys.Verify(pools) != nil {
		t.Fatalf("the intact table is reported: %v", keys.Verify(pools))
	}
	for _, tc := range []struct {
		name    string
		corrupt func(keys *Keys, pools []*Mempool, txs []*wire.Tx)
		want    string
	}{
		{"counts' pages start off the window", func(keys *Keys, pools []*Mempool, _ []*wire.Tx) {
			keys.refs.base += pageSize
		}, "the table's counts: 1 pages from 256 for a window from 1"},
		{"transactions' pages start off the window", func(keys *Keys, pools []*Mempool, _ []*wire.Tx) {
			keys.first.base += pageSize
		}, "the table's transactions: 1 pages from 256 for a window from 1"},
		{"a pool with a table of its own", func(_ *Keys, pools []*Mempool, _ []*wire.Tx) {
			pools[1].keys = NewKeys()
		}, "pool 1 does not share the table"},
		{"a pool that holds no key keeps a page", func(_ *Keys, pools []*Mempool, _ []*wire.Tx) {
			pools[1].held = 0
		}, "pool 1 holds no key and keeps 1 pages of states"},
		{"states' pages start off the window", func(_ *Keys, pools []*Mempool, _ []*wire.Tx) {
			pools[0].entries.base += pageSize
		}, "pool 0's states: 1 pages from 256 for a window from 1"},
		{"a state below the pool's window", func(_ *Keys, pools []*Mempool, _ []*wire.Tx) {
			pools[0].entLo = 2
		}, "pool 0 holds ordinal 1 below its window's start 2"},
		{"a state past the table's window", func(_ *Keys, pools []*Mempool, _ []*wire.Tx) {
			*pools[0].entries.slot(5) = 99
		}, "pool 0 holds ordinal 5 outside the table's window [1, 5)"},
		{"a count off by one", func(keys *Keys, pools []*Mempool, _ []*wire.Tx) {
			*keys.refs.at(3) = 2
		}, "ordinal 3 counts 2 holders, 1 pools hold it"},
		{"a released key keeps its transaction", func(keys *Keys, pools []*Mempool, _ []*wire.Tx) {
			*pools[0].entries.at(3), *keys.refs.at(3) = 0, 0
		}, "ordinal 3 is held by no pool and still keeps its transaction"},
		{"a held key lost its transaction", func(keys *Keys, pools []*Mempool, _ []*wire.Tx) {
			*keys.first.at(3) = nil
		}, "ordinal 3 is held by 1 pools and keeps no transaction"},
		{"a transaction under another key's ordinal", func(keys *Keys, pools []*Mempool, txs []*wire.Tx) {
			*keys.first.at(3) = txs[3]
		}, "ordinal 3: its key finds ordinal 4"},
		{"a key count off by one", func(keys *Keys, pools []*Mempool, _ []*wire.Tx) {
			keys.n++
		}, "the table holds 5 keys, the pools hold 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys, pools, txs := build()
			tc.corrupt(keys, pools, txs)
			err := keys.Verify(pools)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("got %v, want %q", err, tc.want)
			}
		})
	}
}
