package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/invariant"
	"repro/internal/ledger"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The traced pass drives a workload the way harness.Run does, but from
// here, through each layer's public functions, with a span around every
// call. It must reproduce harness.Run's Events, Committed and NetMsgs
// exactly; measure.go's untraced outcome is the reference.

// runWindow is how much virtual time one sim.run child span covers.
const runWindow = 10 * time.Second

// world is the deployment under the traced driver, single-instance or
// sharded, reduced to what the driver and the count harvest need.
type world struct {
	sim    *sim.Simulator
	net    *netsim.Network
	shards []*core.Deployment  // one entry when unsharded
	recs   []*metrics.Recorder // recs[k] observes shards[k]'s first server
	start  func()              // launch consensus and the generator
	stop   func()
	check  func() error
}

// tracedRun is what the traced pass of one workload produced.
type tracedRun struct {
	tr                         *tracer
	root                       int
	events, committed, netMsgs uint64
	tput                       float64 // Table 2's average throughput, virtual el/s
	sendEvents, drainEvents    uint64
	sendWall, drainWall        time.Duration
	counts                     map[string]float64 // per-layer count metrics by name
	invariant                  error
}

// deployConfig mirrors harness.deployConfig for the scenario fields the
// benchmark's workloads use; anything else is refused rather than silently
// run with a different configuration.
func deployConfig(sc harness.Scenario) (core.Options, ledger.Config, error) {
	if sc.Mode != core.Modeled || sc.IntraWorkers > 1 || sc.Level != metrics.LevelThroughput ||
		sc.Byzantine.Faulty > 0 || sc.Admission.Policy != "" || sc.Open.Enabled() || sc.Spec.Light {
		return core.Options{}, ledger.Config{}, fmt.Errorf("the traced driver covers modeled, sequential, closed-system scenarios only")
	}
	netCfg := netsim.DefaultLANConfig()
	netCfg.ExtraDelay = sc.NetworkDelay
	if sc.Bandwidth > 0 {
		netCfg.Bandwidth = sc.Bandwidth
	}
	opts := core.Options{
		Algorithm:          sc.Spec.Alg,
		CollectorLimit:     sc.Spec.Collector,
		Costs:              core.PaperCostModel(),
		F:                  (sc.Servers - 1) / 2,
		CheckpointInterval: sc.CheckpointInterval,
		Prune:              sc.Prune,
	}
	lcfg := ledger.Config{
		Net:       netCfg,
		Consensus: consensus.PaperParams(),
		Mempool:   mempool.PaperConfig(),
		Transport: sc.Transport,
		Fanout:    sc.Fanout,
	}
	if sc.SyncChunkBytes > 0 {
		lcfg.Consensus.SyncChunkBytes = sc.SyncChunkBytes
	}
	return opts, lcfg, nil
}

func serverIDs(first wire.NodeID, n int) []wire.NodeID {
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = first + wire.NodeID(i)
	}
	return ids
}

// deploy builds the world for a scenario whose Rate and SendFor already
// carry the scale.
func deploy(sc harness.Scenario, opts core.Options, lcfg ledger.Config) *world {
	s := sim.New(sc.Seed)
	n := sc.Servers
	if sc.Shards > 1 {
		d := shard.Deploy(s, sc.Shards, n, lcfg, opts, sc.Level)
		sc.Faults.Scaled(sc.Scale).Install(s, d.Net)
		gen := shard.NewGenerator(d, shard.WorkloadConfig{
			Rate: sc.Rate, Duration: sc.SendFor, Sizes: sc.Sizes, Tick: sc.Tick, Seed: sc.Seed,
		})
		return &world{
			sim: s, net: d.Net, shards: d.Shards, recs: d.Recorders,
			start: func() { d.Start(); gen.Start() },
			stop:  d.Stop,
			check: func() error {
				var errs []error
				for k, sd := range d.Shards {
					rec := d.Recorders[k]
					errs = append(errs, invariant.Check(sd, invariant.Config{
						Correct:         serverIDs(d.Observer(k), n),
						Injected:        gen.InjectedIDs(),
						Rejected:        gen.RejectedIDs(),
						CommittedEpochs: rec.CommittedEpochSizes(),
						Observer:        d.Observer(k),
						FoldedEpochs:    rec.FoldedEpochs(),
						FoldedCommitted: rec.FoldedCommitted(),
					}))
				}
				errs = append(errs, invariant.CheckCross(d.View(), invariant.CrossConfig{
					Shards: sc.Shards, Injected: gen.InjectedIDs(),
				}))
				return errors.Join(errs...)
			},
		}
	}
	rec := metrics.New(s, sc.Level, n, opts.F, 0)
	d := core.Deploy(s, n, lcfg, opts, rec)
	sc.Faults.Scaled(sc.Scale).Install(s, d.Ledger.Net)
	gen := workload.New(d, rec, workload.Config{
		Rate: sc.Rate, Duration: sc.SendFor, Sizes: sc.Sizes, Tick: sc.Tick,
		TrackIDs: true, Seed: sc.Seed,
	})
	return &world{
		sim: s, net: d.Ledger.Net, shards: []*core.Deployment{d},
		recs:  []*metrics.Recorder{rec},
		start: func() { d.Start(); gen.Start() },
		stop:  d.Stop,
		check: func() error {
			return invariant.Check(d, invariant.Config{
				Correct:         serverIDs(0, n),
				Injected:        gen.InjectedIDs(),
				Rejected:        gen.RejectedIDs(),
				CommittedEpochs: rec.CommittedEpochSizes(),
				FoldedEpochs:    rec.FoldedEpochs(),
				FoldedCommitted: rec.FoldedCommitted(),
			})
		},
	}
}

// tracePass runs one workload under the traced driver.
func tracePass(w workloadDef, seed int64, scale float64) (*tracedRun, error) {
	tr := newTracer()
	t := &tracedRun{tr: tr}
	var err error
	t.root = tr.do("workload "+w.Name, func() {
		var sc harness.Scenario
		tr.do("spec.load+harness.FromSpec", func() { sc, err = loadScenario(workloadPath(w.Name), seed, scale) })
		if err != nil {
			return
		}
		// What Scenario.withDefaults does to a converted spec.
		sc.Rate *= sc.Scale
		sc.SendFor = time.Duration(float64(sc.SendFor) * sc.Scale)
		opts, lcfg, cfgErr := deployConfig(sc)
		if err = cfgErr; err != nil {
			return
		}
		var wd *world
		tr.do("deploy", func() { wd = deploy(sc, opts, lcfg) })
		tr.do("start", wd.start)
		tr.do("sim.run", func() { t.runWindows(wd.sim, sc.SendFor, sc.Horizon) })
		tr.do("stop", wd.stop)
		tr.do("metrics.harvest", func() { t.harvest(wd, sc) })
		tr.do("invariant.Check", func() { t.invariant = wd.check() })
	})
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", w.Name, err)
	}
	return t, nil
}

// runWindows advances the simulator to the horizon in runWindow steps, with
// an extra cut at the end of sending, one child span per step. Stepping
// RunUntil executes exactly the events one call to the horizon would.
func (t *tracedRun) runWindows(s *sim.Simulator, sendFor, horizon time.Duration) {
	for from := time.Duration(0); from < horizon; {
		to := from + runWindow
		if from < sendFor && to > sendFor {
			to = sendFor
		}
		if to > horizon {
			to = horizon
		}
		before := s.Executed()
		id := t.tr.do(fmt.Sprintf("sim.run %v-%v", from, to), func() { s.RunUntil(to) })
		n := s.Executed() - before
		t.tr.setArg(id, "events", n)
		if to <= sendFor {
			t.sendEvents += n
			t.sendWall += t.tr.dur(id)
		} else {
			t.drainEvents += n
			t.drainWall += t.tr.dur(id)
		}
		from = to
	}
}

// harvest reads what harness.Run reads off a stopped deployment, and the
// per-layer work counts besides.
func (t *tracedRun) harvest(wd *world, sc harness.Scenario) {
	var injected uint64
	for _, rec := range wd.recs {
		injected += rec.TotalInjected()
		t.committed += rec.TotalCommitted()
		// The queries harness.Run makes for its Result; the values are the
		// untraced pass's business, the time is this span's.
		for _, at := range []time.Duration{sc.SendFor, sc.SendFor * 3 / 2, sc.SendFor * 2} {
			rec.Efficiency(at)
		}
		t.tput += rec.AvgThroughputUpTo(sc.SendFor)
		rec.ThroughputSeries(9 * time.Second)
		for _, frac := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
			rec.CommitTimeAtFraction(frac)
		}
	}
	t.events = wd.sim.Executed()
	t.netMsgs = wd.net.Messages()

	var blocks, empty, extraRounds, heights, catchup float64
	var admitted, refused, dropped, duplicate float64
	var epochs, seals, installs, hashReqs, fetchFails float64
	var maxBacklog time.Duration
	var gossip netsim.MeshStats
	for k, sd := range wd.shards {
		observer := sd.Ledger.Nodes[0].Cons
		blocks += float64(observer.HeightCommitted())
		empty += float64(observer.EmptyBlocks())
		_, _, _, made := sd.Servers[0].Stats()
		epochs += float64(made)
		seals += float64(wd.recs[k].CheckpointSeals())
		for _, node := range sd.Ledger.Nodes {
			extraRounds += float64(node.Cons.RoundsUsed())
			heights += float64(node.Cons.HeightCommitted())
			catchup += float64(node.Cons.CatchupRequests())
			a, r, dr, du := node.Pool.Stats()
			admitted += float64(a)
			refused += float64(r)
			dropped += float64(dr)
			duplicate += float64(du)
		}
		for _, srv := range sd.Servers {
			installs += float64(srv.SyncInstalls())
			hs := srv.HashchainStats()
			hashReqs += float64(hs.RequestsSent)
			fetchFails += float64(hs.FetchFailures)
			if b := srv.CPU().MaxBacklog(); b > maxBacklog {
				maxBacklog = b
			}
		}
		if sd.Ledger.Mesh != nil {
			gossip.Add(sd.Ledger.Mesh.Stats())
		}
	}
	ev := float64(t.events)
	t.counts = map[string]float64{
		"harness.avg_tput_el_s":       t.tput,
		"sim.events":                  ev,
		"sim.events_per_element":      ratio(ev, float64(injected)),
		"netsim.msgs":                 float64(t.netMsgs),
		"netsim.bytes_mb":             float64(wd.net.BytesSent()) / 1e6,
		"netsim.msgs_per_commit":      ratio(float64(t.netMsgs), float64(t.committed)),
		"consensus.blocks":            blocks,
		"consensus.events_per_block":  ratio(ev, blocks),
		"consensus.rounds_per_block":  1 + ratio(extraRounds, heights),
		"consensus.empty_block_share": ratio(empty, blocks),
		"consensus.catchup_requests":  catchup,
		"mempool.admitted":            admitted,
		"mempool.duplicate_share":     ratio(duplicate, admitted+refused+dropped+duplicate),
		"mempool.dropped":             dropped,
		"gossip.relayed":              float64(gossip.Relayed),
		"gossip.dedup_drop_share":     ratio(float64(gossip.DedupDrops), float64(gossip.Delivered+gossip.DedupDrops)),
		"gossip.queue_drops":          float64(gossip.QueueDrops),
		"core.epochs":                 epochs,
		"core.checkpoint_seals":       seals,
		"core.sync_installs":          installs,
		"core.hash_requests":          hashReqs,
		"core.fetch_failures":         fetchFails,
		"core.cpu_util_observer":      wd.shards[0].Servers[0].CPU().Utilization(),
		"core.cpu_max_backlog_ms":     float64(maxBacklog) / 1e6,
	}
}

// drift reports how the traced driver's run differs from the untraced
// harness.Run of the same scenario; nil when it reproduced it.
func (t *tracedRun) drift(ref outcome) error {
	if t.invariant != nil {
		return fmt.Errorf("traced run violated an invariant: %w", t.invariant)
	}
	if t.events != ref.events || t.committed != ref.committed || t.netMsgs != ref.netMsgs || t.tput != ref.tput {
		return fmt.Errorf("traced driver drifted from harness: events %d vs %d, committed %d vs %d, net msgs %d vs %d, avg tput %g vs %g",
			t.events, ref.events, t.committed, ref.committed, t.netMsgs, ref.netMsgs, t.tput, ref.tput)
	}
	return nil
}

// timings turns the spans into the traced-pass metrics.
func (t *tracedRun) timings() map[string]float64 {
	ms := func(name string) float64 { return float64(t.tr.dur(t.tr.find(name))) / 1e6 }
	total := t.tr.dur(t.root)
	return map[string]float64{
		"core.deploy_ms":               ms("deploy"),
		"invariant.check_ms":           ms("invariant.Check"),
		"invariant.check_share":        ratio(ms("invariant.Check"), float64(total)/1e6),
		"metrics.harvest_ms":           ms("metrics.harvest"),
		"sim.run_ms":                   ms("sim.run"),
		"sim.send_phase_ns_per_event":  ratio(float64(t.sendWall), float64(t.sendEvents)),
		"sim.drain_phase_ns_per_event": ratio(float64(t.drainWall), float64(t.drainEvents)),
	}
}
