// Package shard scales Setchain horizontally: it partitions the element
// space across S independent Setchain instances — each a complete
// deployment (ledger cluster + servers + clients) forming its own
// consensus group — living inside one shared simulated network, and
// aggregates their per-shard epoch streams into a single cross-shard
// "superepoch" sequence.
//
// The three load-bearing pieces:
//
//   - the router (router.go): a pure digest-based function from element
//     id to shard index. Every injected element lands on exactly one
//     shard, and anyone can recompute the assignment after the fact;
//   - the deployment (this file): S shard deployments on one simulator
//     and ONE netsim.Network, with node ids partitioned k·n..k·n+n-1 and
//     client ids kept globally unique. Sharing the fabric is what lets
//     scheduled faults (internal/faults) crash, partition and degrade
//     links across shard boundaries exactly as they do within one;
//   - the view (view.go): the merged cross-shard history. Superepoch i
//     collects epoch i of every shard (shard-ascending) with a digest
//     chaining the parts, so "same seed ⇒ same superepoch sequence" is a
//     byte-comparable statement and invariant.CheckCross can recompute
//     the merge independently.
//
// Shards never talk to each other: there is no cross-shard consensus and
// no cross-shard transaction, only deterministic routing at injection and
// deterministic merging at observation — the standard scale-out shape of
// multi-chain systems (one consensus group per shard, a global view
// derived above them). One shard is the paper's single Setchain instance,
// id for id, and it is how the harness runs it: there is no other
// deployment path. See DESIGN.md §10.
package shard

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Deployment is S independent Setchain instances on one simulator and one
// shared network.
type Deployment struct {
	Sim *sim.Simulator
	// Net is the single fabric all shards' nodes are registered on; fault
	// plans install here and may span shard boundaries.
	Net *netsim.Network
	// Shards are the per-shard deployments, shard k's nodes carrying
	// global ids k·Servers..k·Servers+Servers-1.
	Shards []*core.Deployment
	// Recorders are the per-shard metrics recorders; recorder k's observer
	// is shard k's first node (Observer(k)).
	Recorders []*metrics.Recorder
	// Servers is the per-shard server count n.
	Servers int

	faulty []bool // by global node id: ever made faulty (SetFaulty)
}

// Deploy builds a sharded world: a shared network from lcfg.Net, then one
// complete Setchain deployment per shard with disjoint node and client id
// ranges, each with its own recorder at the given metrics level. opts
// applies to every server of every shard, and the recorders count f+1
// proofs with its F. In Full crypto mode every
// client's key is registered in every shard's PKI, because the router may
// send any client's element to any shard.
func Deploy(s *sim.Simulator, shards, servers int, lcfg ledger.Config, opts core.Options, level metrics.Level) *Deployment {
	if shards < 1 {
		panic(fmt.Sprintf("shard: need at least one shard, got %d", shards))
	}
	if servers < 1 {
		panic(fmt.Sprintf("shard: need at least one server per shard, got %d", servers))
	}
	d := &Deployment{
		Sim:     s,
		Net:     netsim.New(s, lcfg.Net),
		Servers: servers,
		faulty:  make([]bool, shards*servers),
	}
	for k := 0; k < shards; k++ {
		rec := metrics.New(s, level, servers, opts.F, d.Observer(k))
		cfg := lcfg
		cfg.Network = d.Net
		cfg.FirstID = d.Observer(k)
		// With several shards, client ids start above the whole server id
		// space and are disjoint per shard, so element ids (which embed the
		// client id) are globally unique and the PKI slots of clients and
		// servers never collide. One shard is the classic instance and keeps
		// the classic base 0: element ids, epoch hashes and every figure
		// derived from them are those of core.Deploy called directly.
		if shards > 1 {
			cfg.ClientIDBase = shards*servers + k*servers
		}
		d.Shards = append(d.Shards, core.Deploy(s, servers, cfg, opts, rec))
		d.Recorders = append(d.Recorders, rec)
	}
	// Cross-register client keys: server j of shard b must be able to
	// verify an element signed by any client of any shard a != b.
	for a, from := range d.Shards {
		for b, to := range d.Shards {
			if a == b {
				continue
			}
			for _, cl := range from.Clients {
				core.RegisterClientKey(to.Ledger.Registry, servers, cl.ID(), cl.PublicKey())
			}
		}
	}
	return d
}

// Observer returns shard k's observer node id — its first (lowest-id)
// server, the per-shard counterpart of the classic "server 0 observes".
func (d *Deployment) Observer(k int) wire.NodeID {
	return wire.NodeID(k * d.Servers)
}

// Count returns the number of shards S.
func (d *Deployment) Count() int { return len(d.Shards) }

// SetFaulty records that server id (a global node id) was made faulty, by
// whoever installed the behaviour. The record is never cleared: a server
// that once misbehaved may hold arbitrary state.
func (d *Deployment) SetFaulty(id wire.NodeID) { d.faulty[id] = true }

// Correct lists shard k's servers never made faulty, ascending: those the
// safety checker holds to the Setchain properties. A crash does not remove
// one — a crashed-but-honest server's history must stay a consistent prefix.
func (d *Deployment) Correct(k int) []wire.NodeID {
	var ids []wire.NodeID
	for id := d.Observer(k); id < d.Observer(k+1); id++ {
		if !d.faulty[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// Start launches every shard's ledger.
func (d *Deployment) Start() {
	for _, sh := range d.Shards {
		sh.Start()
	}
}

// Stop freezes every shard.
func (d *Deployment) Stop() {
	for _, sh := range d.Shards {
		sh.Stop()
	}
}

// Drain flushes every server's collector on every shard.
func (d *Deployment) Drain() {
	for _, sh := range d.Shards {
		sh.Drain()
	}
}

// Stats is one shard's end-of-run summary, for per-shard columns next to
// the aggregated numbers.
type Stats struct {
	// Shard is the shard index.
	Shard int
	// Injected and Committed are the shard recorder's element totals.
	Injected  uint64
	Committed uint64
	// AvgTput is the shard's committed/second up to the send-end.
	AvgTput float64
	// Epochs is the shard observer's total epoch count (pruned + retained);
	// Blocks its ledger height (likewise including any pruned prefix).
	Epochs int
	Blocks int
}

// View snapshots every shard observer's history and merges it into the
// cross-shard superepoch sequence. Call after Stop; the histories are
// zero-copy views of live server state. Observers that pruned under a
// checkpoint horizon contribute their base and checkpoint chain, so the
// merge starts above the highest pruned prefix and the cross-shard
// checker can account for what was dropped; all-zero bases merge from
// epoch 1.
func (d *Deployment) View() *View {
	hists := make([][]*core.Epoch, len(d.Shards))
	bases := make([]uint64, len(d.Shards))
	cks := make([][]checkpoint.Checkpoint, len(d.Shards))
	for k, sh := range d.Shards {
		snap := sh.Server(d.Observer(k)).Get()
		hists[k] = snap.History
		bases[k] = snap.PrunedEpochs
		cks[k] = snap.Checkpoints
	}
	return NewPrunedView(hists, bases, cks)
}
