package ledger_test

import (
	"testing"
	"time"

	"repro/internal/abci"
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/wire"
)

func elemTx(i, size int) *wire.Tx {
	e := &wire.Element{Size: int32(size)}
	e.ID[0] = byte(i)
	e.ID[1] = byte(i >> 8)
	return &wire.Tx{Kind: wire.TxElement, Element: e}
}

// recordingApp counts CheckTx calls and collects finalized blocks.
type recordingApp struct {
	checked int
	blocks  []*wire.Block
	reject  bool
}

func (a *recordingApp) CheckTx(tx *wire.Tx) bool {
	a.checked++
	return !a.reject
}

func (a *recordingApp) FinalizeBlock(b *wire.Block) { a.blocks = append(a.blocks, b) }

func TestAppendEventualNotify(t *testing.T) {
	// Property 9: an appended valid tx is eventually delivered to every
	// correct server via FinalizeBlock, at the same position.
	s := sim.New(1)
	c := paperCluster(s, 4)
	apps := make([]*recordingApp, 4)
	for i := range apps {
		apps[i] = &recordingApp{}
		c.SetApp(wire.NodeID(i), apps[i])
	}
	c.Start()
	tx := elemTx(1, 100)
	s.After(time.Second, func() {
		if !c.Nodes[2].Append(tx) {
			t.Error("append rejected")
		}
	})
	s.RunUntil(15 * time.Second)
	c.Stop()
	var positions []int
	for i, a := range apps {
		pos := -1
		for _, b := range a.blocks {
			for k, btx := range b.Txs {
				if btx.MapKey() == tx.MapKey() {
					pos = int(b.Height)*1_000_000 + k
				}
			}
		}
		if pos < 0 {
			t.Fatalf("app %d never saw the tx", i)
		}
		positions = append(positions, pos)
	}
	for _, p := range positions[1:] {
		if p != positions[0] {
			t.Fatalf("tx at different positions: %v", positions)
		}
	}
}

func TestConsistentNotificationOrder(t *testing.T) {
	// Property 10: same blocks, same order, everywhere.
	s := sim.New(2)
	c := paperCluster(s, 4)
	apps := make([]*recordingApp, 4)
	for i := range apps {
		apps[i] = &recordingApp{}
		c.SetApp(wire.NodeID(i), apps[i])
	}
	c.Start()
	for i := 0; i < 60; i++ {
		i := i
		s.After(time.Duration(i)*100*time.Millisecond, func() {
			c.Nodes[i%4].Append(elemTx(i, 200))
		})
	}
	s.RunUntil(30 * time.Second)
	c.Stop()
	ref := apps[0].blocks
	for i := 1; i < 4; i++ {
		other := apps[i].blocks
		m := len(ref)
		if len(other) < m {
			m = len(other)
		}
		for h := 0; h < m; h++ {
			if ref[h].Height != other[h].Height || len(ref[h].Txs) != len(other[h].Txs) {
				t.Fatalf("app %d block %d differs", i, h)
			}
			for k := range ref[h].Txs {
				if ref[h].Txs[k].MapKey() != other[h].Txs[k].MapKey() {
					t.Fatalf("app %d block %d tx %d differs", i, h, k)
				}
			}
		}
	}
}

// Every node commits the one proposed block: at each height all chains hold
// the same *wire.Block, never a per-node copy.
func TestNodesCommitTheSameBlock(t *testing.T) {
	s := sim.New(7)
	c := paperCluster(s, 4)
	c.Start()
	for i := 0; i < 20; i++ {
		i := i
		s.After(time.Duration(i)*100*time.Millisecond, func() { c.Nodes[i%4].Append(elemTx(i, 200)) })
	}
	s.RunUntil(10 * time.Second)
	c.Stop()
	ref := c.Nodes[0].Cons.Chain()
	if len(ref) == 0 {
		t.Fatal("nothing committed")
	}
	for i, n := range c.Nodes[1:] {
		chain := n.Cons.Chain()
		for h := 0; h < min(len(ref), len(chain)); h++ {
			if chain[h] != ref[h] {
				t.Fatalf("node %d committed its own copy of height %d", i+1, h+1)
			}
		}
	}
}

// SetApp installs the application on the node's consensus engine in place:
// the node keeps its engine, and the app sees every block it commits.
func TestSetAppKeepsTheConsensusNode(t *testing.T) {
	s := sim.New(8)
	c := paperCluster(s, 4)
	cons := c.Nodes[0].Cons
	app := &recordingApp{}
	c.SetApp(0, app)
	if c.Nodes[0].Cons != cons {
		t.Fatal("SetApp replaced the consensus node")
	}
	c.Start()
	s.After(0, func() { c.Nodes[0].Append(elemTx(1, 100)) })
	s.RunUntil(5 * time.Second)
	c.Stop()
	if commits := len(cons.Chain()); commits == 0 || commits != len(app.blocks) {
		t.Fatalf("node committed %d blocks, app saw %d", commits, len(app.blocks))
	}
}

func TestCheckTxGatesAdmission(t *testing.T) {
	s := sim.New(3)
	c := paperCluster(s, 4)
	app := &recordingApp{reject: true}
	c.SetApp(0, app)
	c.Start()
	s.After(0, func() {
		if c.Nodes[0].Append(elemTx(1, 100)) {
			t.Error("append admitted a tx the app rejects")
		}
	})
	s.RunUntil(time.Second)
	c.Stop()
	if app.checked == 0 {
		t.Fatal("CheckTx never invoked")
	}
}

func TestAppMsgRouting(t *testing.T) {
	s := sim.New(4)
	c := paperCluster(s, 2)
	type ping struct{ v int }
	var got []int
	c.Nodes[1].SetAppMsgHandler(func(from wire.NodeID, payload any, size int) {
		if p, ok := payload.(*ping); ok {
			got = append(got, p.v)
			if from != 0 || size != 77 {
				t.Errorf("from=%d size=%d, want 0/77", from, size)
			}
		}
	})
	s.After(0, func() { c.Nodes[0].Send(1, &ping{v: 42}, 77) })
	s.RunUntil(time.Second)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("app messages = %v, want [42]", got)
	}
}

func TestVerifyConsistentChainsDetectsDivergence(t *testing.T) {
	s := sim.New(5)
	c := paperCluster(s, 2)
	c.Start()
	s.After(0, func() { c.Nodes[0].Append(elemTx(1, 100)) })
	s.RunUntil(5 * time.Second)
	c.Stop()
	if err := c.VerifyConsistentChains(); err != nil {
		t.Fatalf("consistent chains flagged: %v", err)
	}
}

func TestDefaultAppIsNop(t *testing.T) {
	s := sim.New(6)
	c := paperCluster(s, 1)
	c.Start()
	s.After(0, func() { c.Nodes[0].Append(elemTx(1, 50)) })
	s.RunUntil(5 * time.Second)
	c.Stop()
	if len(c.Nodes[0].Cons.Chain()) == 0 {
		t.Fatal("single-node chain made no progress")
	}
	var nop abci.NopApplication
	if !nop.CheckTx(nil) {
		t.Fatal("NopApplication rejects")
	}
	nop.FinalizeBlock(nil)
}

func TestBadClusterConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for N=0")
		}
	}()
	ledger.NewCluster(sim.New(1), ledger.Config{N: 0})
}

// paperCluster builds an n-validator cluster of the evaluation's ledger.
func paperCluster(s *sim.Simulator, n int) *ledger.Cluster {
	cfg := ledger.PaperConfig()
	cfg.N = n
	return ledger.NewCluster(s, cfg)
}
