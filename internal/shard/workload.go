package shard

import (
	"time"

	"repro/internal/spec"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The routed workload generator — the one the harness drives every
// scenario with — IS internal/workload's injection shape: it schedules
// through workload.OpenTicks and builds elements through
// workload.BuildElement, so timing and element construction cannot fork
// from workload.Generator, with one difference:
// after a client creates an element, the ROUTER decides which shard
// commits it. The client then adds it to its local-index server on the
// owning shard (client i of any shard talks to server i of the target
// shard), and the owning shard's recorder books the injection. With one
// shard the router always answers 0 and this is workload.Generator draw
// for draw. Ids are always tracked: the checkers need the exact injected
// set. All accounting — accepted, rejected, offered, fairness — goes
// through workload.Account.

// WorkloadConfig drives a sharded generation run: workload.Config's
// fields without TrackIDs (ids are always tracked), plus the full payloads
// and open-system dynamics that only the routed generator runs.
type WorkloadConfig struct {
	// Rate is the aggregate sending rate in elements/second across ALL
	// shards; each of the S·n clients injects at Rate/(S·n).
	Rate float64
	// Duration is how long clients keep adding.
	Duration time.Duration
	// Sizes describes element sizes; zero value uses ArbitrumSizes.
	Sizes workload.SizeModel
	// Tick batches injection bookkeeping; zero value uses 10 ms.
	Tick time.Duration
	// FullPayloads creates real signed payloads (Full mode deployments).
	FullPayloads bool
	// Open adds open-system dynamics (workload.OpenTicks), its time axes
	// already scaled; the zero value is the closed system.
	Open spec.OpenSpec
	// Seed keys the open extension's ChildSeed streams.
	Seed int64
}

// Generator injects a routed workload into a sharded deployment.
type Generator struct {
	cfg WorkloadConfig
	d   *Deployment

	// Account books every attempt; its accessors are promoted.
	*workload.Account
}

// NewGenerator creates a generator for the sharded deployment.
func NewGenerator(d *Deployment, cfg WorkloadConfig) *Generator {
	cfg.Sizes, cfg.Tick = workload.Shape(cfg.Sizes, cfg.Tick)
	return &Generator{
		cfg:     cfg,
		d:       d,
		Account: workload.NewAccount(d.Count()*d.Servers, true),
	}
}

// Start schedules the injection: every client of every shard adds from
// virtual time 0 until cfg.Duration, then the generator drains every
// shard's collectors. Flat client index c maps to shard c/n, local
// client c%n, so the schedule's random draws happen in shard-major
// order.
func (g *Generator) Start() {
	s := g.d.Sim
	clients := g.d.Count() * g.d.Servers
	inject := func(c int) { g.injectOne(c/g.d.Servers, c%g.d.Servers) }
	workload.OpenTicks(s, g.cfg.Seed, clients, g.cfg.Rate, g.cfg.Duration, g.cfg.Tick, g.cfg.Open, inject)
	s.At(g.cfg.Duration, g.d.Drain)
}

// injectOne creates one element on client i of shard k and adds it.
func (g *Generator) injectOne(k, i int) {
	cl := g.d.Shards[k].Clients[i]
	g.Add(workload.BuildElement(g.d.Sim, cl, g.cfg.Sizes, g.cfg.FullPayloads), k, i)
}

// Add submits an element client i of shard k created to server i of the
// shard the router assigns, booking the attempt in the Account and an
// accepted element in that shard's recorder. The tick loop and the public
// API's Client.Add both add through here, so the checkers see every add.
func (g *Generator) Add(e *wire.Element, k, i int) error {
	target := Route(e.ID, g.d.Count())
	if err := g.d.Shards[target].Servers[i].Add(e); err != nil {
		g.Account.Reject(e, k*g.d.Servers+i)
		return err
	}
	g.Account.Accept(e, k*g.d.Servers+i)
	g.d.Recorders[target].Injected(e)
	return nil
}

// Config returns the configuration the generator runs with.
func (g *Generator) Config() WorkloadConfig { return g.cfg }
