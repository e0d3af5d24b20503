package mempool

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

func elemTx(i int, size int) *wire.Tx {
	e := &wire.Element{Size: size}
	e.ID[0] = byte(i)
	e.ID[1] = byte(i >> 8)
	e.ID[2] = byte(i >> 16)
	return &wire.Tx{Kind: wire.TxElement, Element: e}
}

// capped is PaperConfig holding at most maxTxs transactions.
func capped(maxTxs int) Config {
	c := PaperConfig()
	c.MaxTxs = maxTxs
	return c
}

// gossiping is PaperConfig flushing gossip every interval.
func gossiping(interval time.Duration) Config {
	c := PaperConfig()
	c.GossipInterval = interval
	return c
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
	if p.Size() != 10 || p.Bytes() != 1000 {
		t.Fatalf("size=%d bytes=%d, want 10/1000", p.Size(), p.Bytes())
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
		if rejected != 3 || duplicate != 0 || checked != 0 || p.Size() != 0 || p.TombstonedKeys() != 0 || p.TombstonesPruned() != 0 {
			t.Errorf("kind %v: rejected/duplicate/CheckTx calls = %d/%d/%d, size/tombstones/pruned = %d/%d/%d, want 3/0/0 and 0/0/0",
				kind, rejected, duplicate, checked, p.Size(), p.TombstonedKeys(), p.TombstonesPruned())
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
	s, pools := newTestPools(t, 1, Config{MaxTxs: 100, MaxBytes: 250, GossipInterval: 10 * time.Millisecond})
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
	s, pools := newTestPools(t, 4, gossiping(5*time.Millisecond))
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
	s, pools := newTestPools(t, 3, gossiping(time.Millisecond))
	s.After(0, func() { pools[0].AddTx(elemTx(1, 50)) })
	s.Run() // termination itself is the assertion: re-gossip of known txs stops
	for i, p := range pools {
		if p.Size() != 1 {
			t.Fatalf("pool %d size = %d, want 1", i, p.Size())
		}
	}
}

func TestRemoveCommittedBlocksReentry(t *testing.T) {
	s, pools := newTestPools(t, 2, gossiping(time.Millisecond))
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
	if p.Size() != 0 || p.Bytes() != 0 || p.TombstonedKeys() != 1 {
		t.Fatalf("size/bytes/tombstones = %d/%d/%d after committing a never-seen tx, want 0/0/1",
			p.Size(), p.Bytes(), p.TombstonedKeys())
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
	if p.Size() != 3 || p.Bytes() != 100+102+103 || p.TombstonedKeys() != 1 {
		t.Fatalf("size/bytes/tombstones = %d/%d/%d, want 3/305/1", p.Size(), p.Bytes(), p.TombstonedKeys())
	}
	got := p.Reap(1 << 20)
	if len(got) != 3 || got[0] != txs[0] || got[1] != txs[2] || got[2] != txs[3] {
		t.Fatalf("reap after the double listing = %v, want txs 0, 2, 3", got)
	}
	p.PruneTombstonesBelow(1)
	if p.TombstonesPruned() != 1 || p.TombstonedKeys() != 0 {
		t.Fatalf("pruned/tombstones = %d/%d, want 1/0", p.TombstonesPruned(), p.TombstonedKeys())
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

// The ring slides once the freed front is at least 64 slots and more than
// half of it: the survivors move to index 0, base moves by as much, and
// every sequence number in the index still finds its own slot.
func TestCompactKeepsOrder(t *testing.T) {
	s, pools := newTestPools(t, 1, PaperConfig())
	p := pools[0]
	var txs []*wire.Tx
	s.After(0, func() {
		for i := 0; i < 200; i++ {
			tx := elemTx(i, 10)
			txs = append(txs, tx)
			p.AddTx(tx)
		}
	})
	s.Run()
	p.RemoveCommitted(1, txs[:100]) // head reaches the midpoint: no slide yet
	if p.head != 100 || p.base != 1 || len(p.order) != 200 {
		t.Fatalf("head/base/len = %d/%d/%d at the midpoint, want 100/1/200", p.head, p.base, len(p.order))
	}
	// A hole in the middle does not move head and is not compacted away.
	p.RemoveCommitted(2, txs[170:180])
	if p.head != 100 || len(p.order) != 200 {
		t.Fatalf("head/len = %d/%d after a mid-ring commit, want 100/200", p.head, len(p.order))
	}
	p.RemoveCommitted(3, txs[100:150]) // head passes the midpoint: slide
	if p.head != 0 || p.base != 151 || len(p.order) != 50 {
		t.Fatalf("head/base/len = %d/%d/%d after the slide, want 0/151/50", p.head, p.base, len(p.order))
	}
	for _, tx := range p.order[len(p.order):200] {
		if tx != nil {
			t.Fatal("slide left a transaction pointer in the stale tail")
		}
	}
	want := slices.Concat(txs[150:170], txs[180:])
	if got := p.Reap(1 << 20); !slices.Equal(got, want) {
		t.Fatalf("reaped %d txs after the slide, want the 40 survivors in admission order", len(got))
	}
	// Sequence numbers issued before the slide still address their slots,
	// and ones issued after it continue the same numbering.
	late := elemTx(500, 10)
	s.After(0, func() { p.AddTx(late) })
	s.Run()
	p.RemoveCommitted(4, []*wire.Tx{txs[199], txs[150]})
	want = append(slices.Clone(want[1:39]), late)
	if got := p.Reap(1 << 20); !slices.Equal(got, want) || p.Size() != 39 || p.Bytes() != 390 {
		t.Fatalf("after the slide: reaped %d txs, size %d, bytes %d; want 39/39/390", len(got), p.Size(), p.Bytes())
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
		entered = append(entered, fmt.Sprintf("%d:%s", node, tx.Key()))
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
	if p.TombstonedKeys() != 3 || p.TombstonesPruned() != 7 || len(p.tombstones) != 1 {
		t.Fatalf("tombstones/pruned/log = %d/%d/%d after pruning the block's height, want 3/7/1",
			p.TombstonedKeys(), p.TombstonesPruned(), len(p.tombstones))
	}
	for _, tx := range block {
		if !p.AddTx(tx) {
			t.Fatalf("%s: pruned key not re-admitted", tx.Key())
		}
	}
	if p.AddTx(txs[9]) {
		t.Fatal("a tombstone above the horizon was pruned")
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
	if got := p.TombstonesPruned(); got != 8 {
		t.Fatalf("pruned counter = %d, want 8", got)
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
	if got := p.TombstonesPruned(); got != 8 {
		t.Fatalf("re-prune moved the counter: %d, want 8", got)
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
	if p.TombstonedKeys() != 0 || p.TombstonesPruned() != 1 {
		t.Fatalf("tombstones/pruned = %d/%d after the first prune, want 0/1", p.TombstonedKeys(), p.TombstonesPruned())
	}
	s.After(0, func() {
		if !p.AddTx(tx) {
			t.Error("pruned key not re-admitted")
		}
	})
	s.Run()
	p.PruneTombstonesBelow(5)
	if !p.Has(tx.MapKey()) || p.Size() != 1 || p.Bytes() != 100 || p.TombstonesPruned() != 1 {
		t.Fatalf("prune touched a live key: has=%v size=%d bytes=%d pruned=%d, want true/1/100/1",
			p.Has(tx.MapKey()), p.Size(), p.Bytes(), p.TombstonesPruned())
	}
	if got := p.Reap(1 << 20); len(got) != 1 || got[0] != tx {
		t.Fatalf("re-admitted tx not reaped: %v", got)
	}
}
