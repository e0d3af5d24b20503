package main

// metricDef declares one metric: the name it is printed under, its unit,
// which direction is better, and (end-to-end metrics only) the share of the
// parent commit's median by which it may worsen before a change counts as a
// regression. BENCHMARK.json repeats these tables; a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndDefs are reported per workload by the untraced pass. Each bound
// is at least three times the widest spread (interquartile range ÷ median
// over ten seeds) the metric showed on any workload on the builder's host,
// capped at the contract's 25 %; README.md has the spreads. alloc_mb and
// mallocs_k repeat to 1e-5 on one seed; their bounds are this wide only
// because mesh50's topology, and with it its work, changes with the seed.
var endToEndDefs = []metricDef{
	{"wall_s", "s", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
	{"live_heap_mb", "MiB", lower, 0.08},
	{"alloc_mb", "MB", lower, 0.12},
	{"mallocs_k", "k", lower, 0.21},
	{"sim_commit_half_s", "virt_s", lower, 0.10},
}

// perLayerDefs are reported per workload by the traced pass. They carry no
// bound: they explain a move in an end-to-end metric, they do not gate.
var perLayerDefs = []metricDef{
	// Spans of the traced driver.
	{Name: "core.deploy_ms", Unit: "ms", Better: lower},
	{Name: "invariant.check_ms", Unit: "ms", Better: lower},
	{Name: "invariant.check_share", Unit: "ratio", Better: lower},
	{Name: "metrics.harvest_ms", Unit: "ms", Better: lower},
	{Name: "sim.run_ms", Unit: "ms", Better: lower},
	{Name: "sim.send_phase_ns_per_event", Unit: "ns", Better: lower},
	{Name: "sim.drain_phase_ns_per_event", Unit: "ns", Better: lower},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: lower},
	// Work counts of the traced run, exact for a fixed seed.
	{Name: "harness.avg_tput_el_s", Unit: "el/s", Better: higher},
	{Name: "sim.events", Unit: "count", Better: lower},
	{Name: "sim.events_per_element", Unit: "ratio", Better: lower},
	{Name: "netsim.msgs", Unit: "count", Better: lower},
	{Name: "netsim.bytes_mb", Unit: "MB", Better: lower},
	{Name: "netsim.msgs_per_commit", Unit: "ratio", Better: lower},
	{Name: "consensus.blocks", Unit: "count", Better: higher},
	{Name: "consensus.events_per_block", Unit: "ratio", Better: lower},
	{Name: "consensus.rounds_per_block", Unit: "ratio", Better: lower},
	{Name: "consensus.empty_block_share", Unit: "ratio", Better: lower},
	{Name: "consensus.catchup_requests", Unit: "count", Better: lower},
	{Name: "mempool.admitted", Unit: "count", Better: lower},
	{Name: "mempool.duplicate_share", Unit: "ratio", Better: lower},
	{Name: "mempool.dropped", Unit: "count", Better: lower},
	{Name: "gossip.relayed", Unit: "count", Better: lower},
	{Name: "gossip.dedup_drop_share", Unit: "ratio", Better: lower},
	{Name: "gossip.queue_drops", Unit: "count", Better: lower},
	{Name: "core.epochs", Unit: "count", Better: lower},
	{Name: "core.checkpoint_seals", Unit: "count", Better: lower},
	{Name: "core.sync_installs", Unit: "count", Better: lower},
	{Name: "core.hash_requests", Unit: "count", Better: lower},
	{Name: "core.fetch_failures", Unit: "count", Better: lower},
	{Name: "core.cpu_util_observer", Unit: "ratio", Better: lower},
	{Name: "core.cpu_max_backlog_ms", Unit: "virt_ms", Better: lower},
	// The Go runtime as the shared resource, from the untraced repeats.
	{Name: "runtime.ns_per_event", Unit: "ns", Better: lower},
	{Name: "runtime.allocs_per_event", Unit: "ratio", Better: lower},
	{Name: "runtime.bytes_per_event", Unit: "B", Better: lower},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: lower},
	{Name: "runtime.heap_sys_mb", Unit: "MiB", Better: lower},
	{Name: "bench.host_slowdown_x", Unit: "ratio", Better: lower},
	// Layer cells: one package's public API alone.
	{Name: "sim.event_ns", Unit: "ns", Better: lower},
	{Name: "sim.event_allocs", Unit: "ratio", Better: lower},
	{Name: "sim.cancel_ns", Unit: "ns", Better: lower},
	{Name: "sim.resource_job_ns", Unit: "ns", Better: lower},
	{Name: "netsim.send_ns", Unit: "ns", Better: lower},
	{Name: "netsim.bcast_ns_per_msg", Unit: "ns", Better: lower},
	{Name: "netsim.bcast50_ns_per_msg", Unit: "ns", Better: lower},
	{Name: "netsim.msg_allocs", Unit: "ratio", Better: lower},
	{Name: "gossip.mesh_ns_per_delivery", Unit: "ns", Better: lower},
	{Name: "gossip.delivered_share", Unit: "ratio", Better: higher},
	{Name: "mempool.add_ns", Unit: "ns", Better: lower},
	{Name: "mempool.add_allocs", Unit: "ratio", Better: lower},
	{Name: "mempool.reap_ns_per_tx", Unit: "ns", Better: lower},
	{Name: "mempool.remove_ns_per_tx", Unit: "ns", Better: lower},
	{Name: "consensus.block_wall_us_n10", Unit: "us", Better: lower},
	{Name: "consensus.events_per_block_n10", Unit: "ratio", Better: lower},
	{Name: "consensus.msgs_per_block_n10", Unit: "ratio", Better: lower},
	{Name: "consensus.block_wall_us_n50", Unit: "us", Better: lower},
	{Name: "core.add_ns", Unit: "ns", Better: lower},
	{Name: "core.add_allocs", Unit: "ratio", Better: lower},
	// Differential figures.
	{Name: "core.ckpt_overhead_x", Unit: "ratio", Better: lower},
	{Name: "sim.pdes_speedup", Unit: "ratio", Better: higher},
	{Name: "sim.pdes_identical", Unit: "bool", Better: higher},
}
