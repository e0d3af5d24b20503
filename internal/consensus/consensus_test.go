package consensus_test

import (
	"repro/internal/consensus"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Consensus is exercised through the ledger cluster assembly, which wires
// network, mempools and validators exactly as production code does.

func newCluster(t *testing.T, n int, seed int64) (*sim.Simulator, *ledger.Cluster) {
	t.Helper()
	s := sim.New(seed)
	cfg := ledger.PaperConfig()
	cfg.N = n
	return s, ledger.NewCluster(s, cfg)
}

func elemTx(i int, size int) *wire.Tx {
	e := &wire.Element{Size: size}
	e.ID[0] = byte(i)
	e.ID[1] = byte(i >> 8)
	e.ID[2] = byte(i >> 16)
	return &wire.Tx{Kind: wire.TxElement, Element: e}
}

func TestSingleTxCommitsEverywhere(t *testing.T) {
	s, c := newCluster(t, 4, 1)
	c.Start()
	tx := elemTx(1, 200)
	s.After(100*time.Millisecond, func() { c.Nodes[0].Append(tx) })
	s.RunUntil(10 * time.Second)
	c.Stop()
	for i, n := range c.Nodes {
		found := false
		for _, b := range n.Cons.Chain() {
			for _, btx := range b.Txs {
				if btx.Key() == tx.Key() {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("node %d never committed the tx", i)
		}
	}
	if err := c.VerifyConsistentChains(); err != nil {
		t.Fatal(err)
	}
}

func TestBlockPacingMatchesPaperRate(t *testing.T) {
	s, c := newCluster(t, 4, 2)
	c.Start()
	s.RunUntil(60 * time.Second)
	c.Stop()
	blocks := len(c.Nodes[0].Cons.Chain())
	// Paper: ~0.8 blocks/s -> 48 blocks in 60 s. Allow one block of slack
	// for startup.
	if blocks < 45 || blocks > 49 {
		t.Fatalf("blocks in 60s = %d, want ~48 (0.8 blocks/s)", blocks)
	}
}

func TestChainsConsistentUnderLoad(t *testing.T) {
	s, c := newCluster(t, 7, 3)
	c.Start()
	// Inject txs at different nodes at staggered times.
	for i := 0; i < 300; i++ {
		i := i
		s.After(time.Duration(i)*20*time.Millisecond, func() {
			c.Nodes[i%7].Append(elemTx(i, 300))
		})
	}
	s.RunUntil(30 * time.Second)
	c.Stop()
	if err := c.VerifyConsistentChains(); err != nil {
		t.Fatal(err)
	}
	// Every tx committed exactly once (Properties 9+10).
	seen := make(map[string]int)
	for _, b := range c.Nodes[0].Cons.Chain() {
		for _, tx := range b.Txs {
			seen[tx.Key()]++
		}
	}
	if len(seen) != 300 {
		t.Fatalf("committed %d distinct txs, want 300", len(seen))
	}
	for k, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("tx %q committed %d times", k, cnt)
		}
	}
}

func TestBlockSizeLimitRespected(t *testing.T) {
	s := sim.New(4)
	cfg := ledger.PaperConfig()
	cfg.N = 4
	cfg.Consensus.MaxBlockBytes = 2000
	c := ledger.NewCluster(s, cfg)
	c.Start()
	s.After(0, func() {
		for i := 0; i < 50; i++ {
			c.Nodes[0].Append(elemTx(i, 300))
		}
	})
	s.RunUntil(60 * time.Second)
	c.Stop()
	total := 0
	for _, b := range c.Nodes[0].Cons.Chain() {
		if b.Bytes > 2000 {
			t.Fatalf("block of %d bytes exceeds 2000 limit", b.Bytes)
		}
		total += len(b.Txs)
	}
	if total != 50 {
		t.Fatalf("committed %d txs, want all 50 across multiple blocks", total)
	}
}

func TestToleratesSilentByzantineMinority(t *testing.T) {
	s, c := newCluster(t, 4, 5)
	c.Start()
	c.Net.SetDown(3, true) // f=1 silent validator
	tx := elemTx(1, 100)
	s.After(100*time.Millisecond, func() { c.Nodes[0].Append(tx) })
	s.RunUntil(40 * time.Second)
	c.Stop()
	for i := 0; i < 3; i++ {
		found := false
		for _, b := range c.Nodes[i].Cons.Chain() {
			for _, btx := range b.Txs {
				if btx.Key() == tx.Key() {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("correct node %d missing tx with one silent validator", i)
		}
	}
	if err := c.VerifyConsistentChains(); err != nil {
		t.Fatal(err)
	}
	// Rounds were consumed skipping the dead proposer.
	if c.Nodes[0].Cons.RoundsUsed() == 0 {
		t.Fatal("expected round changes while skipping silent proposer")
	}
}

func TestHaltsWithoutQuorum(t *testing.T) {
	s, c := newCluster(t, 4, 6)
	c.Start()
	c.Net.SetDown(2, true)
	c.Net.SetDown(3, true) // 2 of 4 down: no 2f+1 quorum possible
	s.After(0, func() { c.Nodes[0].Append(elemTx(1, 100)) })
	s.RunUntil(30 * time.Second)
	c.Stop()
	for i := 0; i < 2; i++ {
		for _, b := range c.Nodes[i].Cons.Chain() {
			if len(b.Txs) > 0 {
				t.Fatal("committed a tx without quorum (safety violation)")
			}
		}
	}
}

func TestRecoversAfterPartitionHeals(t *testing.T) {
	s, c := newCluster(t, 4, 7)
	c.Start()
	c.Net.SetDown(3, true)
	s.After(5*time.Second, func() { c.Nodes[0].Append(elemTx(1, 100)) })
	s.After(20*time.Second, func() { c.Net.SetDown(3, false) })
	s.RunUntil(90 * time.Second)
	c.Stop()
	if err := c.VerifyConsistentChains(); err != nil {
		t.Fatal(err)
	}
	// The healed node may lag but its committed prefix must be consistent
	// and consensus must have continued committing.
	if len(c.Nodes[0].Cons.Chain()) < 10 {
		t.Fatalf("chain stalled: only %d blocks", len(c.Nodes[0].Cons.Chain()))
	}
}

func TestByzantineProposerInjectsTxs(t *testing.T) {
	// A Byzantine proposer injecting structurally-valid but app-invalid txs
	// still commits (consensus is app-agnostic, as the paper requires:
	// Setchain must filter invalid elements at FinalizeBlock).
	s, c := newCluster(t, 4, 8)
	junk := elemTx(999, 100)
	c.Nodes[2].Cons.SetProposalMutator(func(txs []*wire.Tx) []*wire.Tx {
		return append(txs, junk)
	})
	c.Start()
	s.RunUntil(20 * time.Second)
	c.Stop()
	if err := c.VerifyConsistentChains(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range c.Nodes[0].Cons.Chain() {
		for _, tx := range b.Txs {
			if tx.Key() == junk.Key() {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("Byzantine-injected tx never reached the ledger")
	}
}

func TestCommitListenerObservesBlocksInOrder(t *testing.T) {
	s, c := newCluster(t, 4, 9)
	var heights []uint64
	c.Nodes[0].Cons.SetCommitListener(func(node wire.NodeID, b *wire.Block) {
		heights = append(heights, b.Height)
	})
	c.Start()
	s.RunUntil(10 * time.Second)
	c.Stop()
	if len(heights) == 0 {
		t.Fatal("no blocks observed")
	}
	for i, h := range heights {
		if h != uint64(i+1) {
			t.Fatalf("heights out of order: %v", heights)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (int, uint64) {
		s, c := newCluster(t, 4, 42)
		c.Start()
		for i := 0; i < 50; i++ {
			i := i
			s.After(time.Duration(i)*100*time.Millisecond, func() {
				c.Nodes[i%4].Append(elemTx(i, 250))
			})
		}
		s.RunUntil(30 * time.Second)
		c.Stop()
		return len(c.Nodes[0].Cons.Chain()), s.Executed()
	}
	b1, e1 := run()
	b2, e2 := run()
	if b1 != b2 || e1 != e2 {
		t.Fatalf("nondeterministic: blocks %d/%d events %d/%d", b1, b2, e1, e2)
	}
}

func TestQuorumThresholds(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {4, 3}, {7, 5}, {10, 7},
	} {
		_, c := newCluster(t, tc.n, 1)
		if got := c.Nodes[0].Cons.Quorum(); got != tc.want {
			t.Fatalf("n=%d quorum=%d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestCatchupAfterOutage(t *testing.T) {
	// A node that sleeps through several heights recovers the missed
	// blocks via catch-up requests once it hears newer precommits.
	s, c := newCluster(t, 4, 11)
	c.Start()
	for i := 0; i < 20; i++ {
		i := i
		s.After(time.Duration(i)*500*time.Millisecond, func() {
			c.Nodes[i%4].Append(elemTx(i, 200))
		})
	}
	s.After(2*time.Second, func() { c.Net.SetDown(3, true) })
	s.After(12*time.Second, func() { c.Net.SetDown(3, false) })
	s.RunUntil(60 * time.Second)
	c.Stop()
	if err := c.VerifyConsistentChains(); err != nil {
		t.Fatal(err)
	}
	// The healed node must have made progress past the outage window.
	healed := len(c.Nodes[3].Cons.Chain())
	if healed < 10 {
		t.Fatalf("healed node chain = %d blocks, want >= 10", healed)
	}
}

func TestStatsAccessors(t *testing.T) {
	s, c := newCluster(t, 4, 12)
	c.Start()
	s.After(time.Second, func() { c.Nodes[0].Append(elemTx(1, 100)) })
	s.RunUntil(10 * time.Second)
	c.Stop()
	n := c.Nodes[0].Cons
	if n.TotalTxBytes() == 0 {
		t.Fatal("no tx bytes accounted")
	}
	if n.EmptyBlocks() == 0 {
		t.Fatal("expected some empty blocks in a mostly idle run")
	}
	if n.InvalidMessages() != 0 {
		t.Fatalf("invalid messages = %d in a fault-free run", n.InvalidMessages())
	}
	_ = n.CatchupRequests() // exercised by TestCatchupAfterOutage
}

func TestEquivocationDetectedAndDiscarded(t *testing.T) {
	s, c := newCluster(t, 4, 13)
	c.Start()
	// Node 3 equivocates: two conflicting prevotes for a future height,
	// delivered directly to the other validators (buffered and replayed
	// when that height starts).
	s.After(50*time.Millisecond, func() {
		for _, id := range []string{"fake-block-A", "fake-block-B"} {
			v := &consensus.Vote{Height: 3, Round: 0, Type: consensus.VotePrevote,
				BlockID: id, Voter: 3}
			v.Sig = consensus.SignVote(c.Suite, c.Keys[3], v)
			for to := 0; to < 3; to++ {
				c.Net.Send(3, wire.NodeID(to), v, 120)
			}
		}
	})
	s.After(time.Second, func() { c.Nodes[0].Append(elemTx(1, 100)) })
	s.RunUntil(20 * time.Second)
	c.Stop()
	// The double vote was flagged somewhere and consensus stayed safe.
	var evidence uint64
	for i := 0; i < 3; i++ {
		evidence += c.Nodes[i].Cons.Equivocations()
	}
	if evidence == 0 {
		t.Fatal("equivocation went undetected")
	}
	if err := c.VerifyConsistentChains(); err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes[0].Cons.Chain()) < 5 {
		t.Fatal("equivocation stalled the chain")
	}
}

// Regression for the lock-split deadlock the fault-injection engine
// exposed: with a few percent of messages dropped, round-0 prevote quorums
// can be seen by only part of the cluster, leaving some validators locked
// and the rest not. Before the proof-of-lock re-proposal rule, every later
// round proposed a fresh (round-bound) block that locked validators would
// not prevote, and the height stalled forever. The cluster must keep
// committing — more slowly, but indefinitely — under sustained loss.
func TestLivenessUnderMessageLoss(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		s, c := newCluster(t, 4, seed)
		f := c.Net.Faults()
		for _, u := range c.Net.NodeIDs() {
			for _, v := range c.Net.NodeIDs() {
				if u != v {
					f.SetLink(u, v, netsim.LinkFault{Drop: 0.05})
				}
			}
		}
		c.Start()
		for i := 0; i < 40; i++ {
			i := i
			s.After(time.Duration(i)*500*time.Millisecond, func() {
				c.Nodes[i%4].Append(elemTx(i, 150))
			})
		}
		s.RunUntil(120 * time.Second)
		c.Stop()
		if err := c.VerifyConsistentChains(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var committed int
		for _, b := range c.Nodes[0].Cons.Chain() {
			committed += len(b.Txs)
		}
		if committed == 0 {
			t.Fatalf("seed %d: nothing committed under 5%% loss (lock-split deadlock?)", seed)
		}
		if len(c.Nodes[0].Cons.Chain()) < 5 {
			t.Fatalf("seed %d: chain nearly stalled: %d blocks", seed, len(c.Nodes[0].Cons.Chain()))
		}
	}
}
