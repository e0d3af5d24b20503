package mempool

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/wire"
)

func elemTx(i int, size int) *wire.Tx {
	e := &wire.Element{Size: int32(size)}
	e.ID[0] = byte(i)
	e.ID[1] = byte(i >> 8)
	e.ID[2] = byte(i >> 16)
	return &wire.Tx{Kind: wire.TxElement, Element: e}
}

// capped is a pool holding at most maxTxs transactions, admission off.
func capped(maxTxs int) Config {
	return Config{Admission: spec.AdmissionSpec{MaxTxs: maxTxs}}
}

func newTestPools(t *testing.T, n int, cfg Config) (*sim.Simulator, []*Mempool) {
	t.Helper()
	s := sim.New(1)
	net := netsim.New(s, netsim.Config{BaseLatency: time.Millisecond})
	pools := make([]*Mempool, n)
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		var peers []wire.NodeID
		for _, p := range ids {
			if p != id {
				peers = append(peers, p)
			}
		}
		pools[i] = New(id, s, net, peers, cfg, nil, nil)
	}
	for i := 0; i < n; i++ {
		i := i
		net.AddNode(wire.NodeID(i), func(from wire.NodeID, payload any, size int) {
			if msg, ok := payload.(*GossipMsg); ok {
				pools[i].ReceiveGossip(msg)
			}
		})
	}
	return s, pools
}

func TestAddAndReap(t *testing.T) {
	s, pools := newTestPools(t, 1, PaperConfig())
	p := pools[0]
	s.After(0, func() {
		for i := 0; i < 10; i++ {
			if !p.AddTx(elemTx(i, 100)) {
				t.Errorf("tx %d rejected", i)
			}
		}
	})
	s.Run()
	if p.Size() != 10 || p.bytes != 1000 {
		t.Fatalf("size=%d bytes=%d, want 10/1000", p.Size(), p.bytes)
	}
	got := p.Reap(450)
	if len(got) != 4 {
		t.Fatalf("reaped %d txs within 450 bytes, want 4", len(got))
	}
	// Reap is FIFO.
	for i, tx := range got {
		if tx.Element.ID[0] != byte(i) {
			t.Fatalf("reap not FIFO at %d", i)
		}
	}
	// Reap does not remove.
	if p.Size() != 10 {
		t.Fatal("reap removed transactions")
	}
}

func TestDuplicateRejected(t *testing.T) {
	s, pools := newTestPools(t, 1, PaperConfig())
	p := pools[0]
	s.After(0, func() {
		tx := elemTx(1, 100)
		if !p.AddTx(tx) {
			t.Error("first add rejected")
		}
		if p.AddTx(tx) {
			t.Error("duplicate admitted")
		}
	})
	s.Run()
	_, _, _, dup := p.Stats()
	if dup != 1 {
		t.Fatalf("duplicate count = %d, want 1", dup)
	}
}

func TestCheckTxRejection(t *testing.T) {
	s := sim.New(1)
	net := netsim.New(s, netsim.Config{})
	net.AddNode(0, nil)
	p := New(0, s, net, nil, PaperConfig(), func(tx *wire.Tx) bool {
		return tx.Element.Size < 500 // "validity" rule
	}, nil)
	s.After(0, func() {
		if !p.AddTx(elemTx(1, 100)) {
			t.Error("valid tx rejected")
		}
		if p.AddTx(elemTx(2, 1000)) {
			t.Error("invalid tx admitted")
		}
	})
	s.Run()
	_, rejected, _, _ := p.Stats()
	if rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
}

// A transaction that names a kind and carries no payload of that kind (or
// names no known kind) is refused before CheckTx is asked: CheckTx reads the
// payload, and so did the key builder — at the parent commit the first line
// of add was a nil dereference. It is counted rejected, by submission and by
// gossip alike, and a block that lists one leaves no tombstone.
func TestMalformedTxRefused(t *testing.T) {
	for _, kind := range []wire.TxKind{wire.TxElement, wire.TxProof, wire.TxCompressedBatch, wire.TxHashBatch, 0, 99} {
		checked := 0
		p := New(0, sim.New(1), nil, nil, PaperConfig(), func(*wire.Tx) bool { checked++; return true }, nil)
		tx := &wire.Tx{Kind: kind}
		if p.AddTx(tx) {
			t.Errorf("kind %v without payload admitted", kind)
		}
		p.ReceiveGossip(&GossipMsg{Txs: []*wire.Tx{tx, tx}})
		p.RemoveCommitted(1, []*wire.Tx{tx})
		p.PruneTombstonesBelow(1)
		_, rejected, _, duplicate := p.Stats()
		if rejected != 3 || duplicate != 0 || checked != 0 || p.Size() != 0 || p.TombstonedKeys() != 0 {
			t.Errorf("kind %v: rejected/duplicate/CheckTx calls = %d/%d/%d, size/tombstones = %d/%d, want 3/0/0 and 0/0",
				kind, rejected, duplicate, checked, p.Size(), p.TombstonedKeys())
		}
	}
}

func TestCapacityLimits(t *testing.T) {
	s, pools := newTestPools(t, 1, capped(3))
	p := pools[0]
	s.After(0, func() {
		for i := 0; i < 5; i++ {
			p.AddTx(elemTx(i, 10))
		}
	})
	s.Run()
	if p.Size() != 3 {
		t.Fatalf("size = %d, want capped at 3", p.Size())
	}
	_, _, dropped, _ := p.Stats()
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
}

func TestByteCapacity(t *testing.T) {
	s, pools := newTestPools(t, 1, Config{Admission: spec.AdmissionSpec{MaxTxs: 100, MaxBytes: 250}})
	p := pools[0]
	s.After(0, func() {
		for i := 0; i < 5; i++ {
			p.AddTx(elemTx(i, 100))
		}
	})
	s.Run()
	if p.Size() != 2 {
		t.Fatalf("size = %d, want 2 within 250 bytes", p.Size())
	}
}

func TestGossipReplication(t *testing.T) {
	s, pools := newTestPools(t, 4, PaperConfig())
	s.After(0, func() {
		for i := 0; i < 20; i++ {
			pools[0].AddTx(elemTx(i, 100))
		}
	})
	s.Run()
	for i, p := range pools {
		if p.Size() != 20 {
			t.Fatalf("pool %d has %d txs, want 20 after gossip", i, p.Size())
		}
	}
}

func TestGossipDoesNotLoopForever(t *testing.T) {
	s, pools := newTestPools(t, 3, PaperConfig())
	s.After(0, func() { pools[0].AddTx(elemTx(1, 50)) })
	s.Run() // termination itself is the assertion: re-gossip of known txs stops
	for i, p := range pools {
		if p.Size() != 1 {
			t.Fatalf("pool %d size = %d, want 1", i, p.Size())
		}
	}
}

func TestRemoveCommittedBlocksReentry(t *testing.T) {
	s, pools := newTestPools(t, 2, PaperConfig())
	tx := elemTx(7, 100)
	s.After(0, func() { pools[0].AddTx(tx) })
	s.RunUntil(time.Second)
	if pools[1].Size() != 1 {
		t.Fatal("gossip did not replicate")
	}
	pools[0].RemoveCommitted(1, []*wire.Tx{tx})
	pools[1].RemoveCommitted(1, []*wire.Tx{tx})
	if pools[0].Size() != 0 || pools[1].Size() != 0 {
		t.Fatal("committed tx not removed")
	}
	// Late (re)gossip of the committed tx must not re-enter.
	s.After(0, func() { pools[1].ReceiveGossip(&GossipMsg{Txs: []*wire.Tx{tx}}) })
	s.Run()
	if pools[1].Size() != 0 {
		t.Fatal("committed tx re-entered pool")
	}
}

func TestRemoveCommittedNeverSeen(t *testing.T) {
	s, pools := newTestPools(t, 1, PaperConfig())
	p := pools[0]
	tx := elemTx(9, 100)
	p.RemoveCommitted(1, []*wire.Tx{tx}) // seen-marking path
	if p.Size() != 0 || p.bytes != 0 || p.TombstonedKeys() != 1 {
		t.Fatalf("size/bytes/tombstones = %d/%d/%d after committing a never-seen tx, want 0/0/1",
			p.Size(), p.bytes, p.TombstonedKeys())
	}
	s.After(0, func() {
		if p.AddTx(tx) {
			t.Error("committed-elsewhere tx admitted")
		}
		p.ReceiveGossip(&GossipMsg{Txs: []*wire.Tx{tx}})
	})
	s.Run()
	if _, _, _, dup := p.Stats(); dup != 2 || p.Size() != 0 || len(p.Reap(1<<20)) != 0 {
		t.Fatalf("late submission and late gossip: duplicates = %d, size = %d, want 2 and 0", dup, p.Size())
	}
}

// A Byzantine proposer can list one transaction twice in a block. The
// second listing finds the tombstone the first one left: live and bytes go
// down once, and the slot that is freed is the transaction's own.
func TestRemoveCommittedSameTxTwice(t *testing.T) {
	s, pools := newTestPools(t, 1, PaperConfig())
	p := pools[0]
	var txs []*wire.Tx
	s.After(0, func() {
		for i := 0; i < 4; i++ {
			txs = append(txs, elemTx(i, 100+i))
			p.AddTx(txs[i])
		}
	})
	s.Run()
	p.RemoveCommitted(1, []*wire.Tx{txs[1], txs[1]})
	if p.Size() != 3 || p.bytes != 100+102+103 || p.TombstonedKeys() != 1 {
		t.Fatalf("size/bytes/tombstones = %d/%d/%d, want 3/305/1", p.Size(), p.bytes, p.TombstonedKeys())
	}
	got := p.Reap(1 << 20)
	if len(got) != 3 || got[0] != txs[0] || got[1] != txs[2] || got[2] != txs[3] {
		t.Fatalf("reap after the double listing = %v, want txs 0, 2, 3", got)
	}
	p.PruneTombstonesBelow(1)
	if p.TombstonedKeys() != 0 {
		t.Fatalf("tombstones = %d after pruning, want 0", p.TombstonedKeys())
	}
}

func TestReapRespectsRemoval(t *testing.T) {
	s, pools := newTestPools(t, 1, PaperConfig())
	p := pools[0]
	var txs []*wire.Tx
	s.After(0, func() {
		for i := 0; i < 10; i++ {
			tx := elemTx(i, 100)
			txs = append(txs, tx)
			p.AddTx(tx)
		}
	})
	s.Run()
	p.RemoveCommitted(1, txs[:5])
	got := p.Reap(1 << 20)
	if len(got) != 5 {
		t.Fatalf("reaped %d, want 5 after removal", len(got))
	}
	if got[0].Element.ID[0] != 5 {
		t.Fatal("reap did not skip removed txs")
	}
}

// The ring releases a page once head has passed all of it: commits at the
// front move head past the freed slots, a hole in the middle waits for head
// to reach it, a released page goes to the free list cleared and comes back
// for the next admissions, and every sequence number still finds its slot.
func TestCompactKeepsOrder(t *testing.T) {
	p, txs := benchPool(3*pageSize - 1) // sequence numbers 1 to 3·pageSize−1: three pages
	if p.head != 1 || p.next != 3*pageSize || p.order.base != 0 || len(p.order.dir) != 3 {
		t.Fatalf("head/next/base/pages = %d/%d/%d/%d after the admissions, want 1/%d/0/3",
			p.head, p.next, p.order.base, len(p.order.dir), 3*pageSize)
	}
	p.RemoveCommitted(1, txs[:pageSize-2]) // head stops one short of the page's end: nothing released
	if p.head != pageSize-1 || p.order.base != 0 || len(p.order.dir) != 3 {
		t.Fatalf("head/base/pages = %d/%d/%d before the page boundary, want %d/0/3",
			p.head, p.order.base, len(p.order.dir), pageSize-1)
	}
	// A hole in the middle does not move head and releases nothing.
	p.RemoveCommitted(2, txs[pageSize+100:pageSize+200])
	if p.head != pageSize-1 || len(p.order.dir) != 3 {
		t.Fatalf("head/pages = %d/%d after a mid-ring commit, want %d/3", p.head, len(p.order.dir), pageSize-1)
	}
	p.RemoveCommitted(3, txs[pageSize-2:pageSize+100]) // head crosses the boundary and the hole
	if p.head != pageSize+201 || p.order.base != pageSize || len(p.order.dir) != 2 || len(p.order.free) != 1 {
		t.Fatalf("head/base/pages/free = %d/%d/%d/%d past the boundary, want %d/%d/2/1",
			p.head, p.order.base, len(p.order.dir), len(p.order.free), pageSize+201, pageSize)
	}
	for _, tx := range p.order.free[0] {
		if tx != nil {
			t.Fatal("a released page still points at a transaction")
		}
	}
	want := txs[pageSize+200:]
	if got := p.Reap(1 << 30); !slices.Equal(got, want) {
		t.Fatalf("reaped %d txs after the release, want the %d survivors in admission order", len(got), len(want))
	}
	// Sequence numbers issued before the release still address their
	// slots, and the ones after it continue the numbering in the released
	// page, taken back from the free list.
	released := p.order.free[0]
	late := elemTx(1<<20, 10)
	p.AddTx(late)
	if p.next != 3*pageSize+1 || len(p.order.dir) != 3 || p.order.dir[2] != released || len(p.order.free) != 0 {
		t.Fatal("the admission past the last page did not take the released one")
	}
	p.RemoveCommitted(4, []*wire.Tx{txs[len(txs)-1], txs[pageSize+200]})
	want = append(slices.Clone(want[1:len(want)-1]), late)
	bytes := 0
	for _, tx := range want {
		bytes += tx.WireSize()
	}
	if got := p.Reap(1 << 30); !slices.Equal(got, want) || p.Size() != len(want) || p.bytes != bytes {
		t.Fatalf("after the release: reaped %d txs, size %d, bytes %d; want %d/%d/%d",
			len(got), p.Size(), p.bytes, len(want), len(want), bytes)
	}
}

func TestHas(t *testing.T) {
	s, pools := newTestPools(t, 1, PaperConfig())
	p := pools[0]
	tx := elemTx(1, 10)
	s.After(0, func() { p.AddTx(tx) })
	s.Run()
	if !p.Has(tx.MapKey()) {
		t.Fatal("Has = false for pooled tx")
	}
	if p.Has(wire.TxKey{}) {
		t.Fatal("Has = true for unknown key")
	}
}

func TestGossipBatchesManyTxsIntoFewMessages(t *testing.T) {
	s := sim.New(1)
	net := netsim.New(s, netsim.Config{BaseLatency: time.Millisecond})
	var delivered int
	net.AddNode(0, nil)
	net.AddNode(1, func(from wire.NodeID, payload any, size int) { delivered++ })
	p := New(0, s, net, []wire.NodeID{1}, PaperConfig(), nil, nil)
	s.After(0, func() {
		for i := 0; i < 100; i++ {
			p.AddTx(elemTx(i, 10))
		}
	})
	s.Run()
	if delivered != 1 {
		t.Fatalf("gossip messages = %d, want 1 (batched)", delivered)
	}
}

func TestEnterHookFires(t *testing.T) {
	s := sim.New(1)
	net := netsim.New(s, netsim.Config{})
	net.AddNode(0, nil)
	var entered []string
	p := New(0, s, net, nil, PaperConfig(), nil, func(node wire.NodeID, tx *wire.Tx) {
		entered = append(entered, fmt.Sprintf("%d:%x", node, tx.AppendKey(nil)))
	})
	s.After(0, func() { p.AddTx(elemTx(1, 10)) })
	s.Run()
	if len(entered) != 1 {
		t.Fatalf("enter hook fired %d times, want 1", len(entered))
	}
}

func BenchmarkAddReapRemove(b *testing.B) {
	s := sim.New(1)
	net := netsim.New(s, netsim.Config{})
	net.AddNode(0, nil)
	p := New(0, s, net, nil, PaperConfig(), nil, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := elemTx(i, 438)
		p.AddTx(tx)
		if i%1000 == 999 {
			batch := p.Reap(1 << 20)
			p.RemoveCommitted(1, batch)
		}
	}
}

// benchPool returns one peerless pool holding n element transactions.
func benchPool(n int) (*Mempool, []*wire.Tx) {
	p := New(0, sim.New(1), nil, nil, PaperConfig(), nil, nil)
	txs := make([]*wire.Tx, n)
	for i := range txs {
		txs[i] = elemTx(i, 438)
		p.AddTx(txs[i])
	}
	return p, txs
}

// Nine arrivals in ten are gossip duplicates on vanilla_backlog: one probe
// of the index by a key the pool already holds.
func BenchmarkAddDuplicate(b *testing.B) {
	p, txs := benchPool(60_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddTx(txs[i%len(txs)])
	}
}

// A re-offer of a committed transaction: the same probe as a pooled
// duplicate's, and the same confirmation against the key's first
// transaction; only the state it reads differs.
func BenchmarkAddDuplicateTombstoned(b *testing.B) {
	p, txs := benchPool(60_000)
	for h := 0; h < len(txs)/1000; h++ {
		p.RemoveCommitted(uint64(h+1), txs[h*1000:][:1000])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddTx(txs[i%len(txs)])
	}
}

// Late gossip against tombstones spread over 300 committed batches, a
// sixth of them pruned, so the window of states starts past the first
// ordinal the table handed out.
func BenchmarkAddTombstonedAcrossBatches(b *testing.B) {
	p, txs := benchPool(60_000)
	const batch = 200
	for h := 0; h < len(txs)/batch; h++ {
		p.RemoveCommitted(uint64(h+1), txs[h*batch:][:batch])
	}
	p.PruneTombstonesBelow(50)
	late := txs[50*batch:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.AddTx(late[i%len(late)]) {
			b.Fatal("a tombstoned transaction was admitted")
		}
	}
}

// One block's worth of Reap from the head of a 60,000-transaction backlog
// whose first third and a band in the middle have committed.
func BenchmarkReapUnderBacklog(b *testing.B) {
	p, txs := benchPool(60_000)
	p.RemoveCommitted(1, txs[:20_000])
	p.RemoveCommitted(2, txs[25_000:35_000])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.Reap(1 << 20); len(got) == 0 {
			b.Fatal("empty reap")
		}
	}
}

// Two separately built *wire.Tx with one key are one entry: the second is
// a duplicate while the first is pooled, commits it, and is a duplicate of
// the tombstone after. The shortcut that matches a slot by the arriving
// *wire.Tx's address only ever answers "same"; a different address falls
// back to the key.
func TestDistinctTxSameKey(t *testing.T) {
	p := New(0, sim.New(1), nil, nil, PaperConfig(), nil, nil)
	first := elemTx(5, 100)
	second := wire.NewElementTx(first.Element)
	if first == second || first.MapKey() != second.MapKey() {
		t.Fatal("want two transactions with one key")
	}
	if !p.AddTx(first) || p.AddTx(second) {
		t.Fatal("want the first admitted and the second refused")
	}
	p.ReceiveGossip(&GossipMsg{Txs: []*wire.Tx{second}})
	if _, _, _, dup := p.Stats(); dup != 2 || p.Size() != 1 || p.bytes != 100 {
		t.Fatalf("duplicates/size/bytes = %d/%d/%d before commit, want 2/1/100", dup, p.Size(), p.bytes)
	}
	p.RemoveCommitted(1, []*wire.Tx{second})
	if p.Size() != 0 || p.bytes != 0 || p.TombstonedKeys() != 1 || len(p.Reap(1<<20)) != 0 {
		t.Fatalf("size/bytes/tombstones = %d/%d/%d after committing the second, want 0/0/1", p.Size(), p.bytes, p.TombstonedKeys())
	}
	if p.AddTx(first) || p.AddTx(second) {
		t.Fatal("a committed key was admitted")
	}
	if _, _, _, dup := p.Stats(); dup != 4 || p.Has(first.MapKey()) {
		t.Fatalf("duplicates = %d after commit, want 4, and the key not pooled", dup)
	}
}

// The duplicate path is a key read (or built on the stack) and one probe of
// the index; committing a block logs the block's own slice, so it costs at
// most the log's append however many transactions the block lists (it was
// one 32-byte key copied per transaction per pool).
func TestDuplicateAddAllocFree(t *testing.T) {
	p, txs := benchPool(1000)
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		if p.AddTx(txs[i%len(txs)]) {
			t.Fatal("duplicate admitted")
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("duplicate AddTx allocates %.2f/op, want 0", avg)
	}

	for _, blockLen := range []int{1, 10, 500} {
		p, txs := benchPool(20 * blockLen)
		height := uint64(0)
		avg := testing.AllocsPerRun(19, func() { // 1 warm-up + 19 runs: every block is a fresh one
			p.RemoveCommitted(height+1, txs[int(height)*blockLen:][:blockLen])
			height++
		})
		if avg > 1 || p.Size() != 0 || p.TombstonedKeys() != 20*blockLen {
			t.Fatalf("RemoveCommitted of %d txs allocates %.2f/block, want at most 1 (size %d, tombstones %d)",
				blockLen, avg, p.Size(), p.TombstonedKeys())
		}
	}
}

// The tombstone log is the committed block's own slice: the caller keeps
// using it (consensus keeps the block in its chain) and does not modify it,
// and pruning still finds every key through it.
func TestTombstoneLogAliasesBlock(t *testing.T) {
	p, txs := benchPool(12)
	block := txs[2:9]
	kept := slices.Clone(block)
	p.RemoveCommitted(4, block)
	if got := p.tombstones[0].txs; len(got) != len(block) || &got[0] != &block[0] {
		t.Fatal("the log holds a copy of the block's transactions, not the block's slice")
	}
	p.RemoveCommitted(5, txs[9:])
	if !slices.Equal(block, kept) {
		t.Fatal("the pool modified the caller's slice")
	}
	if p.Size() != 2 || p.TombstonedKeys() != 10 {
		t.Fatalf("size/tombstones = %d/%d, want 2/10", p.Size(), p.TombstonedKeys())
	}
	p.PruneTombstonesBelow(4)
	if p.TombstonedKeys() != 3 || len(p.tombstones) != 1 {
		t.Fatalf("tombstones/log = %d/%d after pruning the block's height, want 3/1",
			p.TombstonedKeys(), len(p.tombstones))
	}
	for _, tx := range block {
		if !p.AddTx(tx) {
			t.Fatalf("%x: pruned key not re-admitted", tx.AppendKey(nil))
		}
	}
	if p.AddTx(txs[9]) {
		t.Fatal("a tombstone above the horizon was pruned")
	}
}

// A tombstone is the pool's state at its key's ordinal, whichever batch
// logged it: an empty block logs nothing, a block listing a transaction
// twice tombstones it once, and pruning the front batches lets go of their
// keys in the table and of nothing else. Late gossip of the first, a middle
// and the last transaction of every batch left must find its tombstone, by
// its own *Tx and by a twin.
func TestTombstoneOrdinalsAcrossBatches(t *testing.T) {
	p, txs := benchPool(40)
	blocks := [][]*wire.Tx{
		txs[0:5],
		txs[5:8],
		nil,
		{txs[8], txs[9], txs[10], txs[10], txs[11], txs[12], txs[13], txs[14]},
		txs[15:16],
		txs[16:25],
		txs[25:40],
	}
	for h, block := range blocks {
		p.RemoveCommitted(uint64(h+1), block)
	}
	if p.Size() != 0 || p.TombstonedKeys() != 40 || len(p.tombstones) != 6 || p.keys.Len() != 40 {
		t.Fatalf("size/tombstones/batches/keys = %d/%d/%d/%d, want 0/40/6/40",
			p.Size(), p.TombstonedKeys(), len(p.tombstones), p.keys.Len())
	}
	p.PruneTombstonesBelow(2)
	if p.TombstonedKeys() != 32 || len(p.tombstones) != 4 || p.keys.Len() != 32 || p.entLo != 9 || len(p.entries.dir) != 1 {
		t.Fatalf("tombstones/batches/keys/window/pages = %d/%d/%d/%d/%d after pruning heights 1-2, want 32/4/32/9/1",
			p.TombstonedKeys(), len(p.tombstones), p.keys.Len(), p.entLo, len(p.entries.dir))
	}
	if err := p.keys.Verify([]*Mempool{p}); err != nil {
		t.Fatal(err)
	}
	offered := 0
	for _, block := range blocks[3:] {
		for _, tx := range []*wire.Tx{block[0], block[len(block)/2], block[len(block)-1]} {
			p.ReceiveGossip(&GossipMsg{Txs: []*wire.Tx{tx, twinTx(tx, offered%2 == 0)}})
			offered += 2
		}
	}
	if admitted, _, _, dup := p.Stats(); dup != uint64(offered) || admitted != 40 || p.Size() != 0 {
		t.Fatalf("late gossip: %d duplicates of %d offers, %d admitted, size %d: a tombstone was missed",
			dup, offered, admitted, p.Size())
	}
	for _, tx := range txs[:8] {
		if !p.AddTx(tx) {
			t.Fatalf("%x: pruned key not re-admitted", tx.AppendKey(nil))
		}
	}
	if p.Size() != 8 || p.TombstonedKeys() != 32 {
		t.Fatalf("size/tombstones = %d/%d after re-admitting the pruned keys, want 8/32", p.Size(), p.TombstonedKeys())
	}
}

// Tombstones below the checkpoint horizon are dropped, tombstones above
// it retained, and the retained ones keep blocking re-entry. A pruned
// key CAN re-enter — the documented worst case, which the application
// layers neutralize because everything it carried is settled below the
// checkpoint.
func TestPruneTombstonesBelow(t *testing.T) {
	s, pools := newTestPools(t, 1, PaperConfig())
	p := pools[0]
	var batches [][]*wire.Tx
	s.After(0, func() {
		for h := 0; h < 3; h++ {
			var txs []*wire.Tx
			for i := 0; i < 4; i++ {
				tx := elemTx(h*4+i, 100)
				txs = append(txs, tx)
				p.AddTx(tx)
			}
			batches = append(batches, txs)
		}
	})
	s.Run()
	for h, txs := range batches {
		p.RemoveCommitted(uint64(h+1), txs)
	}
	if got := p.TombstonedKeys(); got != 12 {
		t.Fatalf("tombstones = %d, want 12", got)
	}

	p.PruneTombstonesBelow(2) // drops heights 1 and 2
	if got := p.TombstonedKeys(); got != 4 {
		t.Fatalf("tombstones after prune = %d, want 4 (height 3 only)", got)
	}
	// Height-3 tombstones still block re-entry; pruned keys re-admit.
	s.After(0, func() {
		if p.AddTx(batches[2][0]) {
			t.Error("retained tombstone failed to block re-entry")
		}
		if !p.AddTx(batches[0][0]) {
			t.Error("pruned key blocked — tombstone survived pruning")
		}
	})
	s.Run()

	// Pruning is idempotent and monotone: a lower horizon is a no-op.
	p.PruneTombstonesBelow(2)
	if got := p.TombstonedKeys(); got != 4 || p.Size() != 1 {
		t.Fatalf("re-prune: tombstones/size = %d/%d, want 4/1", got, p.Size())
	}
}

// A tombstone log entry can outlive its tombstone: a key committed at two
// heights is pruned with the first, re-admitted by late gossip, and is
// live when the horizon passes the second. Pruning must leave it pooled.
func TestPruneKeepsReadmittedKey(t *testing.T) {
	s, pools := newTestPools(t, 1, PaperConfig())
	p := pools[0]
	tx := elemTx(3, 100)
	s.After(0, func() { p.AddTx(tx) })
	s.Run()
	p.RemoveCommitted(1, []*wire.Tx{tx})
	p.RemoveCommitted(5, []*wire.Tx{tx}) // re-proposed: logged again at height 5
	p.PruneTombstonesBelow(3)
	if p.TombstonedKeys() != 0 {
		t.Fatalf("tombstones = %d after the first prune, want 0", p.TombstonedKeys())
	}
	s.After(0, func() {
		if !p.AddTx(tx) {
			t.Error("pruned key not re-admitted")
		}
	})
	s.Run()
	p.PruneTombstonesBelow(5)
	if !p.Has(tx.MapKey()) || p.Size() != 1 || p.bytes != 100 || p.TombstonedKeys() != 0 {
		t.Fatalf("prune touched a live key: has=%v size=%d bytes=%d tombstones=%d, want true/1/100/0",
			p.Has(tx.MapKey()), p.Size(), p.bytes, p.TombstonedKeys())
	}
	if got := p.Reap(1 << 20); len(got) != 1 || got[0] != tx {
		t.Fatalf("re-admitted tx not reaped: %v", got)
	}
}

// A pool that admits, gossips, reaps, commits and prunes at a steady
// backlog takes every page of its ring, its states and its table from the
// pages it released, and reuses its gossip buffer and tombstone log: after
// warm-up a cycle allocates the gossip message and its slice, and Reap's
// block, and nothing else.
func TestSteadyBacklogAllocatesOnlyMessages(t *testing.T) {
	const perCycle, backlog, lag = 1000, 10 * pageSize, 2
	s := sim.New(1)
	p := New(0, s, nil, nil, PaperConfig(), nil, nil)
	flushes := 0
	p.SetBroadcaster(func(any, int) { flushes++ })
	txs := make([]*wire.Tx, backlog+40*perCycle)
	for i := range txs {
		txs[i] = elemTx(i, 100)
	}
	for _, tx := range txs[:backlog] {
		p.AddTx(tx)
	}
	next, height := backlog, uint64(0)
	blockBytes := perCycle * txs[0].WireSize()
	cycle := func() {
		for _, tx := range txs[next : next+perCycle] {
			p.AddTx(tx)
		}
		next += perCycle
		s.Run()
		height++
		p.RemoveCommitted(height, p.Reap(blockBytes))
		p.PruneTombstonesBelow(height - min(height, lag))
	}
	for range 10 {
		cycle()
	}
	reap := testing.AllocsPerRun(10, func() { p.Reap(blockBytes) })
	avg := testing.AllocsPerRun(20, cycle)
	if p.Size() != backlog || p.TombstonedKeys() != lag*perCycle || flushes != 31 {
		t.Fatalf("size/tombstones/flushes = %d/%d/%d, want %d/%d/31: the cycle is not steady",
			p.Size(), p.TombstonedKeys(), flushes, backlog, lag*perCycle)
	}
	if avg != reap+2 {
		t.Fatalf("a cycle allocates %.1f times, want %.0f: the gossip message, its slice and Reap's block", avg, reap+2)
	}
}

// Ten pools on one key table build a 40,000-transaction backlog by gossip
// and drain it by commits, pruning as they go: vanilla_backlog's mempool
// work without the network. Every iteration re-admits the same
// transactions, whose keys the last one pruned, under new sequence numbers
// and ordinals.
func BenchmarkMempoolBacklog(b *testing.B) {
	const pools, backlog, gossipBatch = 10, 40_000, 100
	keys := NewKeys()
	ps := make([]*Mempool, pools)
	for i := range ps {
		ps[i] = New(wire.NodeID(i), sim.New(1), nil, nil, PaperConfig(), nil, nil)
		ps[i].ShareKeys(keys)
	}
	txs := make([]*wire.Tx, backlog)
	for i := range txs {
		txs[i] = elemTx(i, 438)
	}
	blockBytes := 1 << 20
	height := uint64(0)
	msg := &GossipMsg{}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i := 0; i < backlog; i += gossipBatch {
			msg.Txs = txs[i : i+gossipBatch]
			for _, tx := range msg.Txs {
				ps[0].AddTx(tx)
			}
			for _, p := range ps[1:] {
				p.ReceiveGossip(msg)
			}
		}
		for ps[0].Size() > 0 {
			block := ps[0].Reap(blockBytes)
			height++
			for _, p := range ps {
				p.RemoveCommitted(height, block)
				p.PruneTombstonesBelow(height - 1)
			}
		}
		for _, p := range ps {
			p.PruneTombstonesBelow(height)
		}
	}
	if keys.Len() != 0 {
		b.Fatalf("%d keys left after the drain", keys.Len())
	}
}
