package shard

import (
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// epoch builds a test epoch with the given number and element ids.
func epoch(number uint64, ids ...byte) *core.Epoch {
	ep := &core.Epoch{Number: number, Hash: []byte{byte(number), 0xaa}}
	for _, id := range ids {
		ep.Elements = append(ep.Elements, &wire.Element{ID: wire.ElementID{id}})
	}
	return ep
}

func TestMergeSuperepochs(t *testing.T) {
	// Shard 0 has 3 epochs, shard 1 has 1, shard 2 has 2: superepochs 2
	// and 3 must carry only the shards that got that far, shard-ascending.
	histories := [][]*core.Epoch{
		{epoch(1, 1), epoch(2, 2), epoch(3, 3)},
		{epoch(1, 4)},
		{epoch(1, 5), epoch(2, 6)},
	}
	supers := MergeFrom(histories, nil)
	if len(supers) != 3 {
		t.Fatalf("got %d superepochs, want 3", len(supers))
	}
	wantParts := [][]int{{0, 1, 2}, {0, 2}, {0}}
	for i, se := range supers {
		if se.Number != uint64(i+1) {
			t.Errorf("superepoch %d numbered %d", i, se.Number)
		}
		if len(se.Parts) != len(wantParts[i]) {
			t.Fatalf("superepoch %d has %d parts, want %d", se.Number, len(se.Parts), len(wantParts[i]))
		}
		for j, p := range se.Parts {
			if p.Shard != wantParts[i][j] {
				t.Errorf("superepoch %d part %d from shard %d, want %d", se.Number, j, p.Shard, wantParts[i][j])
			}
			if p.Epoch.Number != se.Number {
				t.Errorf("superepoch %d carries epoch %d of shard %d", se.Number, p.Epoch.Number, p.Shard)
			}
		}
		if se.Digest == 0 {
			t.Errorf("superepoch %d has zero digest", se.Number)
		}
	}
	if supers[0].Elements() != 3 || supers[1].Elements() != 2 || supers[2].Elements() != 1 {
		t.Errorf("element counts wrong: %d %d %d",
			supers[0].Elements(), supers[1].Elements(), supers[2].Elements())
	}

	// The digest must be sensitive to content: change one epoch hash and
	// superepoch 2's digest (and only it) must move.
	histories[2][1].Hash[1] ^= 0x01
	again := MergeFrom(histories, nil)
	if again[1].Digest == supers[1].Digest {
		t.Error("digest unchanged after corrupting a contributing epoch hash")
	}
	if again[0].Digest != supers[0].Digest || again[2].Digest != supers[2].Digest {
		t.Error("unrelated superepoch digests moved")
	}
}

// testDeploy builds (without running) a deployment of 4-server shards.
func testDeploy(s *sim.Simulator, shards int) *Deployment {
	return Deploy(s, shards, 4, ledger.Config{
		Net:       netsim.DefaultLANConfig(),
		Consensus: consensus.PaperParams(),
		Mempool:   mempool.PaperConfig(),
	}, core.Options{
		Algorithm:      core.Hashchain,
		CollectorLimit: 100,
		Costs:          core.PaperCostModel(),
		F:              1,
	}, metrics.LevelThroughput)
}

// One shard is the classic instance, id for id: nodes 0..n-1 observed by
// node 0, clients 0..n-1 (the base core.Deploy uses on its own — element
// ids embed the client id, so any other base would move every epoch hash),
// one recorder (that the router has nowhere to send but shard 0 is
// FuzzShardRouter's Route(id, 1) == 0). Several shards lift client ids
// above the whole S·n server id space and keep them pairwise disjoint.
func TestDeployIDSpaces(t *testing.T) {
	const n = 4
	one := testDeploy(sim.New(7), 1)
	if one.Count() != 1 || len(one.Recorders) != 1 {
		t.Fatalf("one shard deploys %d shards, %d recorders", one.Count(), len(one.Recorders))
	}
	if one.Observer(0) != 0 {
		t.Errorf("observer of the single shard is node %d, want 0", one.Observer(0))
	}
	for i := 0; i < n; i++ {
		if id := one.Shards[0].Servers[i].ID(); id != wire.NodeID(i) {
			t.Errorf("S=1 server %d carries node id %d", i, id)
		}
		if id := one.Shards[0].Clients[i].ID(); id != wire.ClientID(i) {
			t.Errorf("S=1 client %d carries client id %d, want the classic %d", i, id, i)
		}
	}

	three := testDeploy(sim.New(7), 3)
	seen := map[wire.ClientID]int{}
	for k, sd := range three.Shards {
		for _, cl := range sd.Clients {
			if int(cl.ID()) < 3*n {
				t.Errorf("S=3 shard %d client id %d collides with the server id space [0,%d)", k, cl.ID(), 3*n)
			}
			if prev, dup := seen[cl.ID()]; dup {
				t.Errorf("S=3 client id %d used by shards %d and %d", cl.ID(), prev, k)
			}
			seen[cl.ID()] = k
		}
	}
	if len(seen) != 3*n {
		t.Errorf("S=3 has %d distinct client ids, want %d", len(seen), 3*n)
	}
}

// deployTestWorld runs a small 2-shard deployment end to end and returns
// the deployment and its generator.
func deployTestWorld(t *testing.T, shards int, rate float64) (*Deployment, *Generator) {
	t.Helper()
	s := sim.New(7)
	d := testDeploy(s, shards)
	gen := NewGenerator(d, WorkloadConfig{Rate: rate, Duration: 6 * time.Second})
	d.Start()
	gen.Start()
	s.RunUntil(30 * time.Second)
	d.Stop()
	return d, gen
}

// TestDeploymentRoutesAndCommits drives a real 2-shard world: the world
// must commit, every committed element must sit on the shard the router
// owns it to, per-shard injection must sum to the total, and the view's
// superepoch sequence must be the merge of the observer histories.
func TestDeploymentRoutesAndCommits(t *testing.T) {
	d, gen := deployTestWorld(t, 2, 800)
	if gen.Injected() == 0 {
		t.Fatal("nothing injected")
	}
	var perShard uint64
	for _, n := range gen.PerShardInjected() {
		perShard += n
	}
	if perShard != gen.Injected() {
		t.Fatalf("per-shard injections sum to %d, total is %d", perShard, gen.Injected())
	}
	for k := range gen.PerShardInjected() {
		if gen.PerShardInjected()[k] == 0 {
			t.Fatalf("shard %d received no elements: router starved it", k)
		}
	}
	view := d.View()
	committed := 0
	for k, hist := range view.Histories {
		if len(hist) == 0 {
			t.Fatalf("shard %d committed no epochs", k)
		}
		for _, ep := range hist {
			for _, e := range ep.Elements {
				committed++
				if Route(e.ID, d.Count()) != k {
					t.Fatalf("element %v committed on shard %d, router owns shard %d",
						e.ID, k, Route(e.ID, d.Count()))
				}
			}
		}
	}
	if committed == 0 {
		t.Fatal("no elements committed")
	}
	if len(view.Supers) == 0 {
		t.Fatal("no superepochs")
	}
	recomputed := MergeFrom(view.Histories, view.Bases)
	if len(recomputed) != len(view.Supers) {
		t.Fatalf("view has %d superepochs, merge yields %d", len(view.Supers), len(recomputed))
	}
	for i := range recomputed {
		if recomputed[i].Digest != view.Supers[i].Digest {
			t.Fatalf("superepoch %d digest drifts from the merge", i+1)
		}
	}
	// Observer ids and node id partitioning.
	for k, sd := range d.Shards {
		if got := d.Observer(k); got != wire.NodeID(k*4) {
			t.Fatalf("observer of shard %d is %d", k, got)
		}
		for i, srv := range sd.Servers {
			if srv.ID() != wire.NodeID(k*4+i) {
				t.Fatalf("shard %d server %d carries id %d", k, i, srv.ID())
			}
		}
	}
}

// MergeFrom with all-zero or short bases must reproduce the nil-bases
// merge bit for bit (Deployment.View always passes a bases slice), and
// with real bases — per-shard pruned prefixes — the merged suffix must
// carry the same numbers and digests as merging the full unpruned
// histories would. That equivalence is what lets the cross-shard checker
// keep verifying superepoch digests after checkpoint pruning dropped the
// prefix.
func TestMergeFromBasesAlignPrunedHistories(t *testing.T) {
	full := [][]*core.Epoch{
		{epoch(1, 1), epoch(2, 2), epoch(3, 3), epoch(4, 4)},
		{epoch(1, 5), epoch(2, 6), epoch(3, 7), epoch(4, 8)},
	}
	want := MergeFrom(full, nil)

	same := func(name string, got []*Superepoch, wantTail []*Superepoch) {
		t.Helper()
		if len(got) != len(wantTail) {
			t.Fatalf("%s: %d superepochs, want %d", name, len(got), len(wantTail))
		}
		for i := range got {
			if got[i].Number != wantTail[i].Number || got[i].Digest != wantTail[i].Digest {
				t.Fatalf("%s: superepoch %d = (num %d, digest %x), want (num %d, digest %x)",
					name, i, got[i].Number, got[i].Digest, wantTail[i].Number, wantTail[i].Digest)
			}
			if len(got[i].Parts) != len(wantTail[i].Parts) {
				t.Fatalf("%s: superepoch %d has %d parts, want %d",
					name, got[i].Number, len(got[i].Parts), len(wantTail[i].Parts))
			}
		}
	}
	same("zero bases", MergeFrom(full, []uint64{0, 0}), want)
	// Short base slice: missing entries default to zero.
	same("short bases", MergeFrom(full, []uint64{0}), want)

	// Prune shard 0 below epoch 2 and shard 1 below epoch 3: the merge
	// must resume at superepoch 4 (the first number every shard can still
	// contribute to in full) and agree digest-for-digest with the
	// unpruned merge there.
	pruned := [][]*core.Epoch{full[0][2:], full[1][3:]}
	same("pruned suffix", MergeFrom(pruned, []uint64{2, 3}), want[3:])
}
