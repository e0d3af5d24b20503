package main

import (
	"crypto/sha256"
	"encoding/binary"
	"runtime"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ledger"
	"repro/internal/mempool"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Layer cells: each drives one package's public API alone at a fixed
// operation count (well under a second), and reports wall time per
// operation and exact heap allocations per operation. They say what a
// layer costs in isolation; the workloads say what that is worth end to end.

// cellReps is how many times the set of cells runs; each metric reports its
// median over the sets (the allocation counts repeat exactly).
const cellReps = 3

var cells = []func(out map[string]float64){
	simCells, netsimCells, gossipCell, mempoolCells, consensusCells, coreCell,
}

// layerCells runs every cell and returns the cell metrics by name.
func layerCells() map[string]float64 {
	samples := map[string][]float64{}
	for i := 0; i < cellReps; i++ {
		set := map[string]float64{}
		for _, cell := range cells {
			cell(set)
		}
		for name, v := range set {
			samples[name] = append(samples[name], v)
		}
	}
	return medians(samples)
}

// timed returns fn's wall time and heap allocation count, after a
// collection so the previous cell's garbage is not charged to this one.
func timed(fn func()) (time.Duration, uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return wall, m1.Mallocs - m0.Mallocs
}

func perOp(d time.Duration, ops uint64) float64 { return ratio(float64(d), float64(ops)) }

// simCells: the event kernel alone. 1,000 self-rescheduling timers keep a
// 1,000-deep queue busy for a million events, the shape consensus timeouts
// and network deliveries give it.
func simCells(out map[string]float64) {
	const timers, events = 1000, 1_000_000
	s := sim.New(1)
	wall, mallocs := timed(func() {
		for i := 0; i < timers; i++ {
			period := time.Duration(1+i%97) * time.Millisecond
			var fire func()
			fire = func() { s.After(period, fire) }
			s.At(time.Duration(i)*time.Microsecond, fire)
		}
		for s.Executed() < events {
			s.RunUntil(s.Now() + time.Second)
		}
	})
	out["sim.event_ns"] = perOp(wall, s.Executed())
	out["sim.event_allocs"] = ratio(float64(mallocs), float64(s.Executed()))

	const cancels = 200_000
	s = sim.New(1)
	evs := make([]sim.Event, cancels)
	wall, _ = timed(func() {
		for i := range evs {
			evs[i] = s.At(time.Duration(i%5000)*time.Millisecond, func() {})
		}
		for _, ev := range evs {
			ev.Cancel()
		}
	})
	out["sim.cancel_ns"] = perOp(wall, cancels) // one schedule and one cancel

	const jobs = 500_000
	s = sim.New(1)
	cpu := s.NewResource("cpu")
	wall, _ = timed(func() {
		for i := 0; i < jobs; i++ {
			cpu.Submit(time.Microsecond, nil)
			if s.Pending() > 4096 {
				s.Run()
			}
		}
		s.Run()
	})
	out["sim.resource_job_ns"] = perOp(wall, jobs)
}

func lan(s *sim.Simulator, n int) *netsim.Network {
	net := netsim.New(s, netsim.DefaultLANConfig())
	for id := wire.NodeID(0); id < wire.NodeID(n); id++ {
		net.AddNode(id, func(wire.NodeID, any, int) {})
	}
	return net
}

// netsimCells: point-to-point sends and direct broadcasts at n=10 and n=50,
// each message paying egress queueing, propagation and delivery.
func netsimCells(out map[string]float64) {
	const sends = 300_000
	s := sim.New(1)
	net := lan(s, 10)
	wall, _ := timed(func() {
		for i := 0; i < sends; i++ {
			net.Send(wire.NodeID(i%10), wire.NodeID((i+1)%10), i, 438)
			if s.Pending() > 8192 {
				s.Run()
			}
		}
		s.Run()
	})
	out["netsim.send_ns"] = perOp(wall, sends)

	bcast := func(n, rounds int) (time.Duration, uint64, uint64) {
		s := sim.New(1)
		net := lan(s, n)
		wall, mallocs := timed(func() {
			for i := 0; i < rounds; i++ {
				net.Broadcast(wire.NodeID(i%n), i, 438)
				if s.Pending() > 8192 {
					s.Run()
				}
			}
			s.Run()
		})
		return wall, mallocs, net.Messages()
	}
	wall, mallocs, msgs := bcast(10, 40_000)
	out["netsim.bcast_ns_per_msg"] = perOp(wall, msgs)
	out["netsim.msg_allocs"] = ratio(float64(mallocs), float64(msgs))
	wall, _, msgs = bcast(50, 8_000)
	out["netsim.bcast50_ns_per_msg"] = perOp(wall, msgs)
}

// gossipCell: the fanout-8 overlay at n=50 flooding payloads from rotating
// origins, one publish per virtual millisecond so flush batching engages.
func gossipCell(out map[string]float64) {
	const n, fanout, publishes = 50, 8, 4000
	s := sim.New(1)
	net := netsim.New(s, netsim.DefaultLANConfig())
	ids := make([]wire.NodeID, n)
	var mesh *netsim.Mesh
	for i := range ids {
		id := wire.NodeID(i)
		ids[i] = id
		net.AddNode(id, func(from wire.NodeID, payload any, _ int) {
			mesh.Receive(id, from, payload.(*netsim.Envelope))
		})
	}
	mesh = netsim.NewMesh(net, ids, fanout)
	for _, id := range ids {
		mesh.SetDeliver(id, func(wire.NodeID, any, int) {})
	}
	wall, _ := timed(func() {
		for i := 0; i < publishes; i++ {
			s.At(time.Duration(i)*time.Millisecond, func() { mesh.Gossip(wire.NodeID(i%n), i, 200) })
		}
		s.Run()
	})
	st := mesh.Stats()
	out["gossip.mesh_ns_per_delivery"] = perOp(wall, st.Delivered)
	out["gossip.delivered_share"] = ratio(float64(st.Delivered), float64(st.Delivered+st.DedupDrops))
}

func elementTx(i int) *wire.Tx {
	e := &wire.Element{Client: 1, Seq: uint64(i), Size: 438}
	binary.LittleEndian.PutUint64(e.ID[0:8], 1)
	binary.LittleEndian.PutUint64(e.ID[8:16], uint64(i))
	return &wire.Tx{Kind: wire.TxElement, Element: e}
}

// mempoolCells: one pool without peers. Add everything, then reap a block's
// worth and remove it until the pool is empty: Vanilla's per-element path.
func mempoolCells(out map[string]float64) {
	const txs = 60_000 // what vanilla_backlog injects
	const blockBytes = 500 * 438
	all := make([]*wire.Tx, txs)
	for i := range all {
		all[i] = elementTx(i)
	}
	p := mempool.New(0, sim.New(1), nil, nil, mempool.PaperConfig(), nil, nil)
	wall, mallocs := timed(func() {
		for _, tx := range all {
			p.AddTx(tx)
		}
	})
	out["mempool.add_ns"] = perOp(wall, txs)
	out["mempool.add_allocs"] = ratio(float64(mallocs), txs)

	var reapWall, removeWall time.Duration
	for height := uint64(1); p.Size() > 0; height++ {
		t0 := time.Now()
		block := p.Reap(blockBytes)
		t1 := time.Now()
		p.RemoveCommitted(height, block)
		reapWall += t1.Sub(t0)
		removeWall += time.Since(t1)
	}
	out["mempool.reap_ns_per_tx"] = perOp(reapWall, txs)
	out["mempool.remove_ns_per_tx"] = perOp(removeWall, txs)
}

// consensusCells: a ledger cluster with the no-op application and an empty
// mempool, so every event and message is the round state machine's own.
func consensusCells(out map[string]float64) {
	cluster := func(n int, virt time.Duration) (wall time.Duration, blocks, events, msgs uint64) {
		s := sim.New(1)
		c := ledger.NewCluster(s, ledger.Config{
			N: n, Net: netsim.DefaultLANConfig(),
			Consensus: consensus.PaperParams(), Mempool: mempool.PaperConfig(),
		})
		wall, _ = timed(func() {
			c.Start()
			s.RunUntil(virt)
			c.Stop()
		})
		return wall, c.Nodes[0].Cons.HeightCommitted(), s.Executed(), c.Net.Messages()
	}
	wall, blocks, events, msgs := cluster(10, 1000*time.Second)
	out["consensus.block_wall_us_n10"] = perOp(wall, blocks) / 1e3
	out["consensus.events_per_block_n10"] = ratio(float64(events), float64(blocks))
	out["consensus.msgs_per_block_n10"] = ratio(float64(msgs), float64(blocks))
	wall, blocks, _, _ = cluster(50, 60*time.Second)
	out["consensus.block_wall_us_n50"] = perOp(wall, blocks) / 1e3
}

// coreCell: Server.Add of modeled elements on a Hashchain c=100, n=4
// deployment whose simulator never runs: validation, the_set insert, CPU
// charge and the collector, per element.
func coreCell(out map[string]float64) {
	const adds = 200_000
	d := core.Deploy(sim.New(1), 4, ledger.Config{
		Net: netsim.DefaultLANConfig(), Consensus: consensus.PaperParams(), Mempool: mempool.PaperConfig(),
	}, core.Options{Algorithm: core.Hashchain, CollectorLimit: 100, Costs: core.PaperCostModel(), F: 1}, nil)
	elems := make([]*wire.Element, adds)
	for i := range elems {
		elems[i] = d.Clients[0].NewModeledElement(438)
	}
	wall, mallocs := timed(func() {
		for _, e := range elems {
			if err := d.Servers[0].Add(e); err != nil {
				panic("bench: core cell: " + err.Error())
			}
		}
	})
	out["core.add_ns"] = perOp(wall, adds)
	out["core.add_allocs"] = ratio(float64(mallocs), adds)
}

// differentials are the two figures that compare a run against a variant
// of itself.
//
// ckptOverhead is wall(sc) ÷ wall(sc with checkpointing and pruning off);
// 1 by definition for a scenario that does not checkpoint.
func ckptOverhead(sc harness.Scenario, withCkpt time.Duration) float64 {
	if sc.CheckpointInterval == 0 {
		return 1
	}
	sc.CheckpointInterval, sc.Prune = 0, false
	return ratio(float64(withCkpt), float64(runOnce(sc).wall))
}

// pdesSpec is the registry's scale_tput S=8 cell, pinned here as a file.
const pdesSpec = "diffspecs/pdes_s8.json"

// pdes runs the 8-shard scale_tput cell on one worker and on one per CPU:
// the wall-time ratio, and whether the two fingerprints are equal.
func pdes(seed int64, scale float64) (speedup float64, identical bool, err error) {
	sc, err := loadScenario(pdesSpec, seed, scale)
	if err != nil {
		return 0, false, err
	}
	seq := runOnce(sc)
	sc.IntraWorkers = runtime.NumCPU()
	par := runOnce(sc)
	return ratio(float64(seq.wall), float64(par.wall)), seq.digest == par.digest && seq.digest != [sha256.Size]byte{}, nil
}
