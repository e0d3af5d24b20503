package harness

// Intra-run parallel execution (Scenario.IntraWorkers > 1): the scenario's
// event population is split across per-partition event queues — one
// partition per server node for a one-instance run, one per shard for a
// sharded run — advanced concurrently in lookahead-bounded rounds by a
// sim.World (DESIGN.md §12). Results are byte-identical to IntraWorkers=1:
// same metrics fingerprints, superepoch digests, checkpoint seals, and
// event counts, which the equivalence sweep in pdes_test.go enforces over
// the whole registry.

import (
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/wire"
)

// runner abstracts the two execution engines: a lone Simulator (the
// sequential path, exactly as it always ran) or a World of partitions.
type runner interface {
	RunUntil(deadline time.Duration)
	Executed() uint64
}

// effectiveIntraWorkers resolves the worker count a scenario actually runs
// with. Anything that would break the byte-identity contract degrades to
// the sequential path rather than erroring:
//
//   - LevelStages metrics mutate recorder state from every node, so the
//     recorder is only partition-confined at LevelThroughput;
//   - Hashchain Light shares one batch store across all servers
//     (core.Options.SharedStore) — cross-partition mutable state;
//   - a single-server, single-shard run has one partition and nothing to
//     overlap.
func effectiveIntraWorkers(sc Scenario, opts core.Options) int {
	iw := sc.IntraWorkers
	if iw <= 1 {
		return 1
	}
	if sc.Level >= metrics.LevelStages {
		return 1
	}
	if opts.Algorithm == core.Hashchain && opts.Light {
		return 1
	}
	if sc.Shards <= 1 && sc.Servers < 2 {
		return 1
	}
	return iw
}

// newIntraWorld builds the World for a partitioned run: partitions
// partition queues plus the home queue (workload ticks, fault plans, the
// end-of-send drain), and a resolver mapping each server node id to its
// partition via idx. The test-only sabotage switches below are applied
// here so the mutation tests exercise the real executor path end to end.
func newIntraWorld(seed int64, partitions, workers int, idx func(wire.NodeID) int) (*sim.World, func(wire.NodeID) *sim.Simulator) {
	w := sim.NewWorld(seed, partitions, workers)
	if breakMergeOrder {
		w.BreakMergeOrderForTest()
	}
	if breakHomeFence {
		w.BreakHomeFenceForTest()
	}
	simFor := func(id wire.NodeID) *sim.Simulator {
		if k := idx(id); k >= 0 && k < partitions {
			return w.Part(k)
		}
		return nil
	}
	return w, simFor
}

// Test-only sabotage switches (set by pdes_test.go under its own cleanup):
// deliberately break the inbox merge order / the home-event round fence so
// the equivalence sweep's fingerprint comparison is proven non-vacuous.
var (
	breakMergeOrder bool
	breakHomeFence  bool
)
