package spec

import (
	"fmt"
	"slices"
	"time"
)

// This file declares the paper's experiment catalog. Cell order inside an
// entry is execution order, and the order cmd/setchain-bench's renderers
// and the generated EXPERIMENTS.md and RESULTS.md list the cells in.

// Variant constructors for the evaluation's standard legend entries.

func vanilla() ScenarioSpec { return ScenarioSpec{Algorithm: AlgVanilla} }

func compress(c int) ScenarioSpec {
	return ScenarioSpec{Algorithm: AlgCompresschain, Collector: c}
}

func hash(c int) ScenarioSpec {
	return ScenarioSpec{Algorithm: AlgHashchain, Collector: c}
}

func light(s ScenarioSpec) ScenarioSpec { s.Light = true; return s }

// ParameterGrid is the evaluation's parameter space (paper Table 1).
type ParameterGrid struct {
	SendingRates  []float64
	Collectors    []int
	ServerCounts  []int
	NetworkDelays []time.Duration
}

// PaperGrid returns Table 1's values in the paper's order: the one copy
// the table1 entry renders and the Fig. 3/5 grids sweep.
func PaperGrid() ParameterGrid {
	return ParameterGrid{
		SendingRates:  []float64{10000, 5000, 1000, 500},
		Collectors:    []int{100, 500},
		ServerCounts:  []int{4, 7, 10},
		NetworkDelays: []time.Duration{0, 30 * time.Millisecond, 100 * time.Millisecond},
	}
}

// effVariants is the variant set of Fig. 3/5's legends: Vanilla, then
// Compresschain and Hashchain at each collector size.
func effVariants() []ScenarioSpec {
	vs := []ScenarioSpec{vanilla()}
	for _, alg := range []func(int) ScenarioSpec{compress, hash} {
		for _, c := range PaperGrid().Collectors {
			vs = append(vs, alg(c))
		}
	}
	return vs
}

// grid crosses parameter points with the Fig. 3 variant set: for every
// point (outer) each variant (inner) gets one cell, grouped and customized
// by the point.
func grid(points []string, customize func(ScenarioSpec, int) ScenarioSpec) []ScenarioSpec {
	var cells []ScenarioSpec
	for i, label := range points {
		for _, v := range effVariants() {
			c := customize(v, i)
			c.Group = label
			cells = append(cells, c)
		}
	}
	return cells
}

func fig1Cells() []ScenarioSpec {
	panel := func(group string, rate float64, horizon time.Duration, variants ...ScenarioSpec) []ScenarioSpec {
		var cells []ScenarioSpec
		for _, v := range variants {
			v.Group = group
			v.Rate = rate
			v.Horizon = Duration(horizon)
			cells = append(cells, v)
		}
		return cells
	}
	var cells []ScenarioSpec
	cells = append(cells, panel("left", 5000, 350*time.Second, vanilla(), compress(100), hash(100))...)
	cells = append(cells, panel("center", 10000, 350*time.Second, compress(100), hash(100))...)
	cells = append(cells, panel("right", 10000, 250*time.Second, compress(500), hash(500))...)
	return cells
}

func fig3aCells() []ScenarioSpec {
	rates := slices.Sorted(slices.Values(PaperGrid().SendingRates))
	points := make([]string, len(rates))
	for i, r := range rates {
		points[i] = fmt.Sprintf("%.0f el/s", r)
	}
	return grid(points, func(v ScenarioSpec, i int) ScenarioSpec {
		v.Rate = rates[i]
		return v
	})
}

func fig3bCells() []ScenarioSpec {
	servers := PaperGrid().ServerCounts
	points := make([]string, len(servers))
	for i, n := range servers {
		points[i] = fmt.Sprintf("%d servers", n)
	}
	return grid(points, func(v ScenarioSpec, i int) ScenarioSpec {
		v.Rate = 10000
		v.Servers = servers[i]
		return v
	})
}

func fig3cCells() []ScenarioSpec {
	delays := PaperGrid().NetworkDelays
	points := make([]string, len(delays))
	for i, d := range delays {
		points[i] = d.String()
	}
	return grid(points, func(v ScenarioSpec, i int) ScenarioSpec {
		v.Rate = 10000
		v.NetworkDelay = Duration(delays[i])
		return v
	})
}

func fig4Cells() []ScenarioSpec {
	var cells []ScenarioSpec
	for _, v := range []ScenarioSpec{vanilla(), compress(100), hash(100)} {
		v.Rate = 1250
		v.Metrics = MetricsStages
		cells = append(cells, v)
	}
	return cells
}

func named(name string, s ScenarioSpec) ScenarioSpec { s.Name = name; return s }

func withRate(rate float64, s ScenarioSpec) ScenarioSpec { s.Rate = rate; return s }

func withHorizon(h time.Duration, s ScenarioSpec) ScenarioSpec {
	s.Horizon = Duration(h)
	return s
}

func fig2LeftCells() []ScenarioSpec {
	cells := []ScenarioSpec{
		named("Hashchain c=500 (hash-reversal on)", withRate(25000, hash(500))),
		named("Hashchain Light c=500 (no hash-reversal)", withRate(150000, light(hash(500)))),
		named("Compresschain c=500", withRate(25000, compress(500))),
		named("Compresschain Light c=500", withRate(25000, light(compress(500)))),
		named("Vanilla", withRate(5000, vanilla())),
	}
	for i := range cells {
		cells[i] = withHorizon(90*time.Second, cells[i])
	}
	return cells
}

// Reference-value constructors. Source policy (DESIGN.md §9): SourcePaper
// only for numbers the paper prints; SourceModel for Appendix D-derived
// expectations where the paper is silent; SourceRepo for regression
// anchors pinned from this repo's own paper-scale artifact (entries
// beyond the paper).

func paperRef(cell int, metric string, value, tol float64, note string) Reference {
	return Reference{Cell: cell, Metric: metric, Value: value, Tolerance: tol, Note: note}
}

func modelRef(cell int, metric string, value, tol float64, note string) Reference {
	return Reference{Cell: cell, Metric: metric, Value: value, Tolerance: tol,
		Source: SourceModel, Note: note}
}

func repoRef(cell int, metric string, value, tol float64, note string) Reference {
	return Reference{Cell: cell, Metric: metric, Value: value, Tolerance: tol,
		Source: SourceRepo, Note: note}
}

// fig1Refs holds Table 2's printed averages for Fig. 1's seven cells —
// the paper's headline measured-throughput numbers. Six of seven land
// inside ±30%; the standing WARN is the center-panel Hashchain, where
// the paper's deployment bottlenecks near 2.5k el/s while the simulator
// (charging the model's validation costs) sustains the offered 10k.
func fig1Refs() []Reference {
	return []Reference{
		paperRef(0, MetricAvgTput, 171, 0.3,
			"overload: 5k el/s against a ~955 el/s ledger ceiling clogs the commit queue"),
		paperRef(1, MetricAvgTput, 996, 0.3, ""),
		paperRef(2, MetricAvgTput, 4183, 0.3, ""),
		paperRef(3, MetricAvgTput, 571, 0.3, ""),
		paperRef(4, MetricAvgTput, 2540, 0.3,
			"paper's implementation bottlenecks here; the simulator sustains the offered rate"),
		paperRef(5, MetricAvgTput, 743, 0.3, ""),
		paperRef(6, MetricAvgTput, 7369, 0.3, ""),
	}
}

func init() {
	Register(Entry{
		Name:   "table1",
		Title:  "Evaluation parameter grid",
		Figure: "Table 1",
		Description: "Prints the evaluation's parameter space: sending rates " +
			"500/1,000/5,000/10,000 el/s, collector sizes 100/500, server counts " +
			"4/7/10 and artificial network delays 0/30/100 ms. Analytic — no " +
			"simulation runs.",
	})
	Register(Entry{
		Name:   "table2",
		Title:  "Average throughput to end of sending for Fig. 1's panels",
		Figure: "Table 2",
		Description: "Reruns Fig. 1's three panels and reports each variant's " +
			"average committed throughput up to the end of the 50 s send window, " +
			"next to the Appendix D analytical value. Paper: left V=171 C=996 " +
			"H=4,183; center C=571 H=2,540; right C=743 H=7,369 el/s.",
		Cells: fig1Cells(),
		Refs:  fig1Refs(),
	})
	Register(Entry{
		Name:   "fig1",
		Title:  "Throughput over time, three panels",
		Figure: "Fig. 1",
		Description: "Committed-rate curves (9 s rolling average) on 10 servers: " +
			"(left) 5,000 el/s with c=100 and all three algorithms; (center) " +
			"10,000 el/s with c=100, Compresschain vs Hashchain; (right) " +
			"10,000 el/s with c=500. Dotted reference lines mark " +
			"min(sending rate, analytical throughput).",
		Cells: fig1Cells(),
		Refs:  fig1Refs(),
	})
	Register(Entry{
		Name:   "fig2left",
		Title:  "Highest sustained throughput and the Light ablations",
		Figure: "Fig. 2 (left)",
		Description: "Pushes each variant to its implementation limit at c=500 on " +
			"10 servers: 25,000 el/s at Hashchain with hash-reversal on " +
			"(bottlenecked near 20k el/s by per-element validation), 150,000 el/s " +
			"at Hashchain Light (paper average 133,882 el/s), and Compresschain " +
			"with and without decompression+validation plus Vanilla.",
		Cells: fig2LeftCells(),
		Refs: []Reference{
			paperRef(0, MetricAvgTput, 20061, 0.3,
				"hash-reversal validation bottleneck"),
			paperRef(1, MetricAvgTput, 133882, 0.3, "paper average over the run"),
			repoRef(2, MetricAvgTput, 300, 0.3,
				"7.5x beyond Tc[500] the pipeline collapses instead of saturating cleanly"),
			repoRef(3, MetricAvgTput, 300, 0.3,
				"Light skips decompression, but ledger bandwidth is the binding ceiling"),
			repoRef(4, MetricAvgTput, 157, 0.3,
				"overload collapse at 5x the Vanilla ceiling, matching Fig. 1's left panel"),
		},
	})
	Register(Entry{
		Name:   "fig2right",
		Title:  "Analytical throughput vs block size",
		Figure: "Fig. 2 (right)",
		Description: "Sweeps the Appendix D closed-form model over doubling ledger " +
			"block sizes at c=500 for all three algorithms. Analytic — no " +
			"simulation runs.",
	})
	Register(Entry{
		Name:   "fig3a",
		Title:  "Efficiency vs sending rate",
		Figure: "Fig. 3a",
		Description: "Committed/added efficiency at the send-end, 1.5x and 2.0x " +
			"checkpoints for sending rates 500/1,000/5,000/10,000 el/s " +
			"(10 servers, no delay), across Vanilla, Compresschain and Hashchain " +
			"at c=100 and c=500.",
		Cells: fig3aCells(),
		// Cell order: rates 500/1,000/5,000/10,000 (outer) x the five
		// variants Vanilla/C100/C500/H100/H500 (inner).
		Refs: []Reference{
			modelRef(3, MetricEff2x, 1.0, 0.05,
				"H100 at 500 el/s: far under every ceiling, everything commits"),
			modelRef(18, MetricEff2x, 1.0, 0.05,
				"H100 at 10,000 el/s: still under Th[100]≈27k"),
			repoRef(16, MetricEff2x, 0.117, 0.3,
				"C100 at 4x its ceiling collapses well below the clean-saturation 0.5"),
			repoRef(15, MetricEff2x, 0.016, 0.5,
				"Vanilla at 10x its ceiling: near-total collapse, as in the paper's figure"),
		},
	})
	Register(Entry{
		Name:   "fig3b",
		Title:  "Efficiency vs number of servers",
		Figure: "Fig. 3b",
		Description: "The same efficiency checkpoints for 4/7/10 servers at " +
			"10,000 el/s with no artificial delay.",
		Cells: fig3bCells(),
		// Cell order: 4/7/10 servers (outer) x the five variants (inner).
		Refs: []Reference{
			modelRef(3, MetricEff2x, 1.0, 0.05, "H100 on 4 servers"),
			modelRef(13, MetricEff2x, 1.0, 0.05, "H100 on 10 servers"),
			repoRef(10, MetricEff2x, 0.016, 0.5,
				"Vanilla at 10x its ceiling: near-total collapse, as in the paper's figure"),
		},
	})
	Register(Entry{
		Name:   "fig3c",
		Title:  "Efficiency vs network delay",
		Figure: "Fig. 3c",
		Description: "The same efficiency checkpoints for artificial network " +
			"delays 0/30/100 ms (10 servers, 10,000 el/s).",
		Cells: fig3cCells(),
		// Cell order: delays 0/30/100 ms (outer) x the five variants (inner).
		Refs: []Reference{
			modelRef(13, MetricEff2x, 1.0, 0.05,
				"H100 at 100 ms: delay shifts latency, not steady-state rate"),
			repoRef(10, MetricEff2x, 0.009, 0.5,
				"Vanilla collapse deepens with delay: slower blocks shrink the ceiling itself"),
		},
	})
	Register(Entry{
		Name:   "fig4",
		Title:  "Latency CDFs to five pipeline stages",
		Figure: "Fig. 4",
		Description: "Per-element latency CDFs to first mempool, f+1 mempools, " +
			"all mempools, ledger and f+1 epoch-proofs for the three algorithms " +
			"at c=100, 10 servers, 1,250 el/s. Paper: finality below 4 s with " +
			"probability ~1.",
		Cells: fig4Cells(),
		Refs: []Reference{
			{Cell: 1, Metric: MetricP99CommitS, Value: 4.0, Tolerance: 0.1,
				Compare: CompareMax, Note: "finality below 4 s with probability ~1"},
			{Cell: 2, Metric: MetricP99CommitS, Value: 4.0, Tolerance: 0.1,
				Compare: CompareMax, Note: "finality below 4 s with probability ~1"},
			modelRef(0, MetricEffSend, 0.7, 0.5,
				"Vanilla: 1,250 el/s exceeds Tv≈955, so the send-end backlog grows"),
		},
	})
	Register(Entry{
		Name:   "fig5a",
		Title:  "Commit times vs sending rate",
		Figure: "Fig. 5a (Appendix F)",
		Description: "Commit times of the first element and the 10..50% fractions " +
			"over Fig. 3a's sending-rate grid.",
		Cells: fig3aCells(),
		Refs: []Reference{
			modelRef(3, MetricCommit50pS, 26, 0.25,
				"unsaturated: half the elements exist at half the 50 s send window"),
			modelRef(18, MetricCommit50pS, 26, 0.25, "H100 at 10,000 el/s"),
		},
	})
	Register(Entry{
		Name:   "fig5b",
		Title:  "Commit times vs number of servers",
		Figure: "Fig. 5b (Appendix F)",
		Description: "Commit times of the first element and the 10..50% fractions " +
			"over Fig. 3b's server-count grid.",
		Cells: fig3bCells(),
		Refs: []Reference{
			modelRef(13, MetricCommit50pS, 26, 0.25, "H100 on 10 servers"),
		},
	})
	Register(Entry{
		Name:   "fig5c",
		Title:  "Commit times vs network delay",
		Figure: "Fig. 5c (Appendix F)",
		Description: "Commit times of the first element and the 10..50% fractions " +
			"over Fig. 3c's network-delay grid.",
		Cells: fig3cCells(),
		Refs: []Reference{
			modelRef(13, MetricCommit50pS, 27, 0.25,
				"100 ms links add little to a 26 s half-window commit point"),
		},
	})
	Register(Entry{
		Name:   "d1",
		Title:  "Analytical throughput table",
		Figure: "Appendix D.1",
		Description: "Evaluates the closed-form throughput model at the paper's " +
			"parameters (n=10, C=0.5 MiB, R=0.8 blocks/s, le=438, lp=lh=139). " +
			"Paper: Tv≈955, Tc[100]≈2,497, Tc[500]≈3,330, Th[100]≈27,157, " +
			"Th[500]≈147,857 el/s. Analytic — no simulation runs.",
	})
	registerChaos()
	registerScale()
	registerSoak()
	registerMesh()
	registerOpen()
	registerSync()
}

// openRampCell is one point on the open_ramp offered-load sweep: an
// admission-gated Compresschain instance pushed at `rate` el/s against a
// 400-tx mempool cap. Below the commit ceiling the pool stays shallow and
// everything is admitted; above it the batch backlog crosses the
// watermark in seconds and the rejection rate — not a latency collapse —
// absorbs the overload.
func openRampCell(rate float64) ScenarioSpec {
	s := compress(100)
	s.Name = "open-ramp"
	s.Group = fmt.Sprintf("%.0f el/s", rate)
	s.Servers = 4
	s.Rate = rate
	s.SendFor = Duration(30 * time.Second)
	s.Admission = &AdmissionSpec{Policy: AdmissionReject, MaxTxs: 400}
	return s
}

// registerOpen declares the open-system workload family (DESIGN.md §14;
// beyond the paper): the paper's workload is closed — every client is
// always up and sends at a fixed rate — so these entries add the three
// open-system realism axes (client churn, Zipf hot-key skew, piecewise
// rate envelopes) plus mempool admission control, and measure the
// goodput/rejection/fairness surface the paper never touches.
func registerOpen() {
	Register(Entry{
		Name:   "open_ramp",
		Title:  "Goodput vs offered load under admission control",
		Figure: "— (beyond the paper)",
		Description: "Compresschain c=100 on 4 servers with a reject-policy " +
			"admission gate (watermark 0.9 of a 400-tx mempool cap), offered " +
			"1,000/2,000/4,000/8,000 el/s for 30 s. Below the ~2.5k el/s " +
			"Tc[100] ceiling the pool never saturates and rejection is zero; " +
			"above it the batch backlog crosses the watermark and the " +
			"rejection rate climbs while goodput plateaus — the collapse " +
			"knee that closed-system overload (fig2left) hides inside " +
			"commit-queue latency.",
		Cells: []ScenarioSpec{
			openRampCell(1000), openRampCell(2000),
			openRampCell(4000), openRampCell(8000),
		},
		Refs: []Reference{
			repoRef(0, MetricAvgTput, 1000, 0.1,
				"below the knee: rate-limited, everything admitted and committed"),
			repoRef(1, MetricAvgTput, 2000, 0.1,
				"still under Tc[100]≈2,497; the pool stays below the watermark"),
			repoRef(2, MetricRejectionRate, 0.139, 0.15,
				"past the knee: the gate sheds the overload the ledger cannot commit"),
			repoRef(3, MetricRejectionRate, 0.571, 0.1,
				"3.2x the ceiling: most offered elements are refused at the gate"),
			repoRef(3, MetricFairness, 1.0, 0.05,
				"uniform clients hit the same saturated gate: Jain index stays at 1"),
		},
	})
	Register(Entry{
		Name:   "open_skew",
		Title:  "Zipf hot-key skew across a sharded deployment",
		Figure: "— (beyond the paper)",
		Description: "Compresschain c=100 on 4 shards of 4 servers at an " +
			"aggregate 6,000 el/s with Zipf(1.1) source skew: a handful of " +
			"hot clients emit most of the load. The FNV digest router keys " +
			"on element IDs (client, seq), so even a hot client's elements " +
			"spread across shards and no shard melts down — per-shard " +
			"balance survives hot-key skew that would collapse a " +
			"client-keyed router.",
		Cells: []ScenarioSpec{func() ScenarioSpec {
			s := compress(100)
			s.Name = "open-skew"
			s.Servers = 4
			s.Shards = 4
			s.Rate = 6000
			s.SendFor = Duration(30 * time.Second)
			s.Open = &OpenSpec{Zipf: 1.1}
			return s
		}()},
		Refs: []Reference{
			repoRef(0, MetricEff2x, 1.0, 0.05,
				"skew moves load between sources, not past any ceiling: everything commits"),
			repoRef(0, MetricAvgTput, 5719, 0.1,
				"aggregate goodput near the offered 6,000 el/s minus pipeline latency"),
		},
	})
	Register(Entry{
		Name:   "open_churn",
		Title:  "Client churn and a bursty rate envelope under delay-policy admission",
		Figure: "— (beyond the paper)",
		Description: "Hashchain c=100 on 4 servers at a 1,500 el/s base rate " +
			"with open-system dynamics: clients churn (exp(10 s) up, " +
			"exp(5 s) down), and a piecewise envelope halves the rate for " +
			"the first 10 s, doubles it for the next 10 s and returns to " +
			"1x — while a delay-policy admission gate (50-tx cap) defers " +
			"local txs into a bounded queue during the burst instead of " +
			"refusing them. Deferred txs drain as commits free the pool; " +
			"the safety checker passes with churn thinning the workload.",
		Cells: []ScenarioSpec{func() ScenarioSpec {
			s := hash(100)
			s.Name = "open-churn"
			s.Servers = 4
			s.Rate = 1500
			s.SendFor = Duration(30 * time.Second)
			s.Open = &OpenSpec{
				ChurnOn:  Duration(10 * time.Second),
				ChurnOff: Duration(5 * time.Second),
				Envelope: []RatePhaseSpec{
					{From: 0, Mult: 0.5},
					{From: Duration(10 * time.Second), Mult: 2},
					{From: Duration(20 * time.Second), Mult: 1},
				},
			}
			s.Admission = &AdmissionSpec{Policy: AdmissionDelay, MaxTxs: 50}
			return s
		}()},
		Refs: []Reference{
			repoRef(0, MetricEff2x, 1.0, 0.05,
				"every admitted element commits: deferral delays txs, never loses them"),
			repoRef(0, MetricOfferedRate, 994, 0.1,
				"churn (2/3 duty cycle) x envelope (7/6 mean) thins the 1,500 el/s base"),
		},
	})
}

// meshCell is the base configuration of the mesh_* family: a rate-limited
// Hashchain workload whose transport — not its load — is the experiment.
// The explicit 60 s horizon (vs the 120 s default) keeps the large-n cells
// affordable in the reduced catalog, where explicit horizons scale down
// with the run-time factor.
func meshCell(name string, servers, fanout int, rate float64) ScenarioSpec {
	s := hash(100)
	s.Name = name
	s.Group = fmt.Sprintf("n=%d f=%d", servers, fanout)
	s.Servers = servers
	s.Rate = rate
	s.SendFor = Duration(20 * time.Second)
	s.Horizon = Duration(60 * time.Second)
	s.Transport = TransportMesh
	s.Fanout = fanout
	return s
}

// registerMesh declares the gossip-mesh transport family (DESIGN.md §13;
// beyond the paper): fanout x node-count sweeps of the bounded-fanout
// overlay, a broadcast-vs-mesh message-complexity comparison at n=50, the
// existing lossy/partition chaos plans rerun over the mesh, and a
// sharded+mesh determinism cell. Messages-per-committed-element is the
// family's headline metric: broadcast costs Theta(n^2) sends per height,
// the mesh O(n*fanout) envelopes.
func registerMesh() {
	Register(Entry{
		Name:   "mesh_scale",
		Title:  "Gossip-mesh transport across node counts and fanouts",
		Figure: "— (beyond the paper)",
		Description: "Hashchain c=100 at a rate-limited 1,000 el/s with consensus " +
			"and mempool traffic routed over the bounded-fanout gossip overlay " +
			"instead of direct broadcast: n=4/10/50/100 at fanout 8, and fanout " +
			"4/8/16 at n=50. Every cell must commit with the safety checker " +
			"passing; the n=50 fanout-8 cell is the acceptance anchor for the " +
			">=2x messages-per-commit reduction over broadcast.",
		Cells: []ScenarioSpec{
			meshCell("mesh-scale", 4, 8, 1000),
			meshCell("mesh-scale", 10, 8, 1000),
			meshCell("mesh-scale", 50, 4, 1000),
			meshCell("mesh-scale", 50, 8, 1000),
			meshCell("mesh-scale", 50, 16, 1000),
			func() ScenarioSpec {
				// At n=100 the first epochs settle only after f+1 = 50
				// servers' proofs land in blocks — ~10 block intervals of
				// pure pipeline latency — so this cell needs the longer
				// horizon to commit in the reduced catalog too.
				s := meshCell("mesh-scale", 100, 8, 1000)
				s.Horizon = Duration(120 * time.Second)
				return s
			}(),
		},
		Refs: []Reference{
			repoRef(3, MetricAvgTput, 350, 0.1,
				"n=50 f=8: avg-to-send-end trails the 1,000 el/s rate — the f+1-proof commit pipeline, not the overlay, is the bottleneck (everything commits by the horizon)"),
			repoRef(3, MetricMsgsPerCommit, 58.1, 0.3,
				"n=50 f=8: vs 184.3 for broadcast at the same cell — the Theta(n^2)->O(n*fanout) drop"),
			repoRef(5, MetricMsgsPerCommit, 841.2, 0.3,
				"n=100 f=8: inflated by the commit tail — under half the injected elements commit inside even the stretched horizon (f+1=50 proofs must land in blocks first), so the denominator shrinks while gossip keeps flowing"),
		},
	})
	Register(Entry{
		Name:   "mesh_vs_broadcast",
		Title:  "Message complexity: broadcast vs mesh at n=50",
		Figure: "— (beyond the paper)",
		Description: "The same Hashchain c=100, 1,000 el/s, 50-server workload on " +
			"both transports: direct per-validator broadcast (cell 0) and the " +
			"fanout-8 gossip mesh (cell 1). The mesh must commit the same workload " +
			"with at most half the network messages per committed element — " +
			"enforced by TestMeshMessageReduction.",
		Cells: []ScenarioSpec{
			func() ScenarioSpec {
				s := hash(100)
				s.Name = "bcast-n50"
				s.Group = "broadcast"
				s.Servers = 50
				s.Rate = 1000
				s.SendFor = Duration(20 * time.Second)
				s.Horizon = Duration(60 * time.Second)
				return s
			}(),
			meshCell("mesh-n50", 50, 8, 1000),
		},
		Refs: []Reference{
			repoRef(0, MetricMsgsPerCommit, 184.3, 0.3,
				"broadcast at n=50: every proposal/vote/gossip batch costs n-1 sends"),
			repoRef(1, MetricMsgsPerCommit, 58.1, 0.3,
				"mesh f=8: a 3.2x reduction; must stay <= 0.5x the broadcast cell (TestMeshMessageReduction)"),
		},
	})
	Register(Entry{
		Name:   "mesh_chaos",
		Title:  "Gossip mesh under the lossy-WAN and partition fault plans",
		Figure: "— (beyond the paper)",
		Description: "The chaos_lossy and chaos_partition fault plans rerun with " +
			"all fan-out traffic on the gossip mesh: 7 servers at fanout 4 under " +
			"2% drop/1% duplication/20% reorder with a mid-run 150 ms delay " +
			"spike, and 4 servers at fanout 2 under a minority partition that " +
			"heals. Each gossiped digest reaches a node over ~fanout disjoint " +
			"paths, so 2% loss must not dent liveness; the invariant checker " +
			"passes non-vacuously (commits > 0) on both cells.",
		Cells: []ScenarioSpec{
			func() ScenarioSpec {
				s := chaosCell("mesh-lossy", 7, 2000, lossyWAN())
				s.Transport = TransportMesh
				s.Fanout = 4
				return s
			}(),
			func() ScenarioSpec {
				s := chaosCell("mesh-partition", 4, 1500, minorityPartition())
				s.Transport = TransportMesh
				s.Fanout = 2
				return s
			}(),
		},
		Refs: []Reference{
			repoRef(0, MetricEff2x, 1.0, 0.05,
				"path redundancy + consensus catch-up hide 2% loss; everything commits by 2x"),
			repoRef(1, MetricEff2x, 1.0, 0.05,
				"the isolated server rejoins over the fanout-2 ring and every add commits"),
		},
	})
	Register(Entry{
		Name:   "mesh_shards",
		Title:  "Sharded deployment with per-shard gossip meshes",
		Figure: "— (beyond the paper)",
		Description: "Hashchain c=100 on 2 shards of 10 servers (20 nodes, one " +
			"shared network) at an aggregate 2,000 el/s, each shard's consensus " +
			"group running its own fanout-4 mesh over the shared fabric. Pins " +
			"that per-shard overlays compose with the digest router and the " +
			"cross-shard safety checker.",
		Cells: []ScenarioSpec{func() ScenarioSpec {
			s := meshCell("mesh-sharded", 10, 4, 2000)
			s.Group = ""
			s.Shards = 2
			return s
		}()},
		Refs: []Reference{
			repoRef(0, MetricEff2x, 1.0, 0.05,
				"rate-limited on both shards; the overlay must not lose anything"),
		},
	})
}

// soakCell is the base configuration of the soak_* family: a modest,
// rate-limited Hashchain workload run 10-100x longer than any other entry,
// with checkpointing + pruning on and a heap ceiling asserted — the
// experiment is bounded memory and checkpoint recovery, not throughput.
func soakCell(name string, servers int, rate float64, sendFor, horizon time.Duration, heapMB int) ScenarioSpec {
	s := hash(100)
	s.Name = name
	s.Servers = servers
	s.Rate = rate
	s.SendFor = Duration(sendFor)
	s.Horizon = Duration(horizon)
	s.CheckpointInterval = 8
	s.Prune = true
	s.HeapCeilingMB = heapMB
	return s
}

// registerSoak declares the long-horizon soak family (beyond the paper):
// epoch checkpointing + settled-history pruning (DESIGN.md §11) under the
// chaos_* fault plans at 10x the catalog's longest horizon, with the live
// heap asserted under an explicit ceiling and crash recovery going through
// checkpoint state-sync instead of full replay.
func registerSoak() {
	Register(Entry{
		Name:   "soak_steady",
		Title:  "One-hour steady-state soak with pruning and a heap ceiling",
		Figure: "— (beyond the paper)",
		Description: "Hashchain c=100 on 4 servers at a rate-limited 200 el/s for a " +
			"3,400 s send window (3,600 s horizon — 10x the catalog's longest run). " +
			"Every server seals a checkpoint each 8 settled epochs and prunes " +
			"settled history, ledger blocks and mempool tombstones below it; the " +
			"end-of-run live heap must stay under 2 GiB. The invariant checker " +
			"verifies the pruned prefix against the checkpoint digest chain.",
		Cells: []ScenarioSpec{soakCell("soak-steady", 4, 200,
			3400*time.Second, 3600*time.Second, 2048)},
		Refs: []Reference{
			modelRef(0, MetricAvgTput, 200, 0.05,
				"rate-limited far below every ceiling: the soak must commit what it is sent"),
			modelRef(0, MetricEff2x, 1.0, 0.05,
				"nothing may be lost across ~hundreds of checkpoint seals and prunes"),
		},
	})
	Register(Entry{
		Name:   "soak_chaos",
		Title:  "One-hour sharded soak under repeated crash/restart cycles",
		Figure: "— (beyond the paper)",
		Description: "Hashchain c=100 on 2 shards of 4 servers (8 nodes, one shared " +
			"network) at an aggregate 400 el/s for a 3,400 s send window (3,600 s " +
			"horizon). Servers 3 and 6 crash and restart in three staggered " +
			"5-minute outages; with pruning on, the restarted server's missing " +
			"blocks are gone from every peer, so recovery must state-sync the " +
			"latest checkpoint snapshot and replay only the suffix. Both the " +
			"per-shard and the cross-shard safety checkers run on the pruned " +
			"histories, and the live heap must stay under 4 GiB.",
		Cells: []ScenarioSpec{func() ScenarioSpec {
			s := soakCell("soak-chaos", 4, 400, 3400*time.Second, 3600*time.Second, 4096)
			s.Shards = 2
			s.Faults = crashPlan(
				outage{3, 300 * time.Second, 600 * time.Second},
				outage{6, 1200 * time.Second, 1500 * time.Second},
				outage{3, 2100 * time.Second, 2400 * time.Second})
			return s
		}()},
		Refs: []Reference{
			modelRef(0, MetricEff2x, 1.0, 0.05,
				"every crash recovers through checkpoint state-sync; everything still commits"),
			modelRef(0, MetricAvgTput, 400, 0.1,
				"each crashed shard keeps committing on its 3/4 quorum through the outages"),
		},
	})
	Register(Entry{
		Name:   "soak_smoke",
		Title:  "CI-scale soak smoke: pruning + crash recovery + heap ceiling",
		Figure: "— (beyond the paper)",
		Description: "The soak family's fast regression cell: Hashchain c=100 on 4 " +
			"servers at 800 el/s for 60 s, checkpoint every 4 settled epochs with " +
			"pruning on, one crash/restart of server 3 (down 15-35 s, long enough " +
			"that its gap is pruned everywhere and recovery must state-sync), and " +
			"a 1 GiB heap ceiling. Runs in seconds; CI executes it on every push.",
		Cells: []ScenarioSpec{func() ScenarioSpec {
			s := soakCell("soak-smoke", 4, 800, 60*time.Second, 120*time.Second, 1024)
			s.CheckpointInterval = 4
			s.Faults = crashPlan(outage{3, 15 * time.Second, 35 * time.Second})
			return s
		}()},
		Refs: []Reference{
			modelRef(0, MetricEff2x, 1.0, 0.05,
				"the restarted server state-syncs a checkpoint and nothing is lost"),
		},
	})
}

// syncCell is the base configuration of the sync_* family: the soak_smoke
// recovery shape — Hashchain c=100, checkpoint every 4 settled epochs with
// pruning on, one crash/restart long enough that the crashed server's gap
// is pruned everywhere — so every cell forces a checkpoint state-sync,
// and the sweep axes (rate → snapshot size, bandwidth, chunk size, forger
// count) stress the chunked transfer protocol rather than throughput.
func syncCell(name string, servers int, rate float64, crashed int) ScenarioSpec {
	s := hash(100)
	s.Name = name
	s.Servers = servers
	s.Rate = rate
	s.SendFor = Duration(60 * time.Second)
	s.Horizon = Duration(120 * time.Second)
	s.CheckpointInterval = 4
	s.Prune = true
	s.Faults = crashPlan(outage{crashed, 15 * time.Second, 35 * time.Second})
	return s
}

// registerSync declares the state-sync transfer family (DESIGN.md §15;
// beyond the paper): snapshots move as certified, fixed-size chunks
// charged to the modeled network, and the recovering server verifies the
// snapshot against the checkpoint commitment a 2f+1-certified block
// header binds before installing anything a peer sent.
func registerSync() {
	Register(Entry{
		Name:   "sync_transfer",
		Title:  "Chunked state-sync transfer: snapshot size × bandwidth × chunk size",
		Figure: "— (beyond the paper)",
		Description: "The soak_smoke recovery shape (Hashchain c=100 on 4 servers, " +
			"checkpoint every 4 settled epochs, pruning on, server 3 down 15-35 s so " +
			"its gap is pruned everywhere and recovery must state-sync) swept across " +
			"the transfer axes: small 16 KiB vs default 64 KiB chunks, the default " +
			"1 Gbit/s LAN vs a constrained 2 MB/s uplink, and a 2.5x rate bump that " +
			"grows the snapshot itself. Every chunk is charged to the modeled " +
			"network and verified against the certified snapshot identity before " +
			"assembly; recovery must still complete and commit everything inside " +
			"the horizon on every cell.",
		Cells: []ScenarioSpec{
			func() ScenarioSpec {
				s := syncCell("sync-transfer", 4, 800, 3)
				s.Group = "16KiB chunks"
				s.SyncChunkBytes = 16 * 1024
				return s
			}(),
			func() ScenarioSpec {
				s := syncCell("sync-transfer", 4, 800, 3)
				s.Group = "2MB/s uplink"
				s.Bandwidth = 2e6
				return s
			}(),
			func() ScenarioSpec {
				s := syncCell("sync-transfer", 4, 2000, 3)
				s.Group = "2.5x snapshot, 2MB/s"
				s.Bandwidth = 2e6
				return s
			}(),
		},
		Refs: []Reference{
			modelRef(0, MetricEff2x, 1.0, 0.05,
				"chunked recovery completes and nothing is lost"),
			modelRef(1, MetricEff2x, 1.0, 0.05,
				"a constrained uplink slows the transfer but recovery still completes"),
			modelRef(2, MetricEff2x, 0.917, 0.05,
				"the 2.5x snapshot streams within the horizon, but the crashed "+
					"server's down-window backlog replays past the 2x-send mark"),
		},
	})
	Register(Entry{
		Name:   "sync_forged",
		Title:  "Forged-snapshot Byzantine servers vs the certified header binding",
		Figure: "— (beyond the paper)",
		Description: "The same recovery shape with the highest-indexed servers running " +
			"the forge-snapshot behavior: every snapshot they serve carries a " +
			"fabricated checkpoint smuggling bogus elements under the requester's " +
			"prune horizon, attached to the legitimate commit certificate. The " +
			"recovering server verifies each offer against the checkpoint " +
			"commitment bound into the certified block header, rejects the " +
			"forgeries, and completes recovery from an honest peer — the safety " +
			"checker then proves no bogus element reached any correct set. Swept " +
			"over forger count (1 of 5, 2 of 7).",
		Cells: []ScenarioSpec{
			func() ScenarioSpec {
				s := syncCell("sync-forged", 5, 800, 1)
				s.Group = "1 forger"
				s.Byzantine = &ByzantineSpec{Faulty: 1, Behaviors: []string{BehaviorForgeSnapshot}}
				return s
			}(),
			func() ScenarioSpec {
				s := syncCell("sync-forged", 7, 800, 1)
				s.Group = "2 forgers"
				s.Byzantine = &ByzantineSpec{Faulty: 2, Behaviors: []string{BehaviorForgeSnapshot}}
				return s
			}(),
		},
		Refs: []Reference{
			modelRef(0, MetricEff2x, 1.0, 0.05,
				"forged snapshots are rejected; recovery completes from honest peers"),
			modelRef(1, MetricEff2x, 1.0, 0.05,
				"two forgers cannot outvote the certified header binding"),
		},
	})
}

// scaleCell is the base configuration of the scale_* family: one
// deliberately overloaded workload whose shard count — not its load — is
// the experiment. The aggregate rate (8,000 el/s) is ~3.2x one ledger's
// Compresschain c=100 ceiling (Tc[100] ≈ 2,497 el/s), so a single
// instance collapses while four shards (2,000 el/s each) commit
// everything: the S=1→8 curve in RESULTS.md is the sharding payoff.
func scaleCell(name string, shards int) ScenarioSpec {
	s := compress(100)
	s.Name = name
	s.Group = fmt.Sprintf("S=%d", shards)
	s.Servers = 4
	s.Shards = shards
	s.Rate = 8000
	s.SendFor = Duration(30 * time.Second)
	return s
}

// registerScale declares the sharded scale-out family (internal/shard;
// beyond the paper): the same cell at S=1/2/4/8 for the throughput
// scaling curve, and a sharded run under a scheduled fault plan to prove
// the cross-shard safety argument holds when the shared network
// misbehaves.
func registerScale() {
	Register(Entry{
		Name:   "scale_tput",
		Title:  "Sharded throughput scale-out, S=1/2/4/8",
		Figure: "— (beyond the paper)",
		Description: "Compresschain c=100 at an aggregate 8,000 el/s — ~3.2x one " +
			"ledger's Tc[100] ceiling — split across S=1/2/4/8 shards of 4 servers " +
			"each by the digest router (internal/shard). One instance collapses " +
			"under the overload; at S=4 every shard runs below its own ceiling and " +
			"aggregate throughput must reach at least 2.5x the S=1 number. Every " +
			"cell passes both the per-shard Setchain checker and the cross-shard " +
			"checker (router completeness, no cross-shard duplication, superepoch " +
			"integrity).",
		Cells: []ScenarioSpec{
			scaleCell("sharded-tput", 1), scaleCell("sharded-tput", 2),
			scaleCell("sharded-tput", 4), scaleCell("sharded-tput", 8),
		},
		Refs: []Reference{
			repoRef(0, MetricAvgTput, 698, 0.3,
				"S=1 collapses at 3.2x the Compresschain ceiling, as in Fig. 2 left"),
			repoRef(1, MetricAvgTput, 2883, 0.3,
				"S=2 still runs each shard at 1.6x its ceiling; partial recovery"),
			repoRef(2, MetricAvgTput, 7644, 0.2,
				"10.9x the S=1 number — far above the 2.5x acceptance floor for S=4"),
			repoRef(3, MetricAvgTput, 7590, 0.2,
				"rate-limited plateau: the offered 8,000 el/s, minus pipeline latency"),
			repoRef(3, MetricEff2x, 1.0, 0.05,
				"at S=8 every shard runs far below its ceiling; everything commits"),
		},
	})
	Register(Entry{
		Name:   "scale_chaos",
		Title:  "Sharded run under a scheduled crash/restart",
		Figure: "— (beyond the paper)",
		Description: "Hashchain c=100 on 2 shards of 4 servers (8 nodes in one " +
			"shared network) at an aggregate 2,400 el/s; global node 6 — shard 1's " +
			"third server — crashes at t=8s and restarts at t=20s. The fault plan " +
			"acts on the shared fabric, the crashed shard keeps committing on its " +
			"3-server quorum, and both the per-shard and the cross-shard safety " +
			"checkers must pass at the end of the run.",
		Cells: []ScenarioSpec{func() ScenarioSpec {
			s := hash(100)
			s.Name = "sharded-crash"
			s.Servers = 4
			s.Shards = 2
			s.Rate = 2400
			s.SendFor = Duration(30 * time.Second)
			s.Faults = crashPlan(outage{6, 8 * time.Second, 20 * time.Second})
			return s
		}()},
		Refs: []Reference{
			repoRef(0, MetricEff2x, 1.0, 0.05,
				"nothing is lost: the restarted server catches up and everything commits by 2x"),
			repoRef(0, MetricEffSend, 0.81, 0.15,
				"the send-end dent measures the 12 s outage on the crashed shard's 3/4 quorum"),
		},
	})
}

// chaosCell is the base configuration of the chaos_* family: a modest
// Hashchain workload whose fault plan — not its load — is the experiment.
// The invariant checker (run on every scenario) is the measurement: safety
// must hold through every fault schedule below.
func chaosCell(name string, servers int, rate float64, fs *FaultSpec) ScenarioSpec {
	s := hash(100)
	s.Name = name
	s.Servers = servers
	s.Rate = rate
	s.SendFor = Duration(40 * time.Second)
	s.Faults = fs
	return s
}

// outage is one crash/restart pair: node is down from down to up.
type outage struct {
	node     int
	down, up time.Duration
}

// crashPlan crashes and restarts each outage's node, in order.
func crashPlan(outs ...outage) *FaultSpec {
	fs := &FaultSpec{}
	for _, o := range outs {
		fs.Events = append(fs.Events,
			FaultEventSpec{At: Duration(o.down), Action: FaultCrash, Nodes: []int{o.node}},
			FaultEventSpec{At: Duration(o.up), Action: FaultRestart, Nodes: []int{o.node}})
	}
	return fs
}

// minorityPartition cuts server 3 off from the majority {0,1,2} at t=10s
// and heals at t=30s.
func minorityPartition() *FaultSpec {
	return &FaultSpec{Events: []FaultEventSpec{
		{At: Duration(10 * time.Second), Action: FaultPartition, Groups: [][]int{{0, 1, 2}, {3}}},
		{At: Duration(30 * time.Second), Action: FaultHeal},
	}}
}

// lossyWAN makes every link drop 2%, duplicate 1% and reorder 20% of
// messages by up to 25 ms, with a 150 ms delay spike from t=15s to t=25s.
func lossyWAN() *FaultSpec {
	link := FaultEventSpec{Action: FaultLink, Drop: 0.02, Duplicate: 0.01,
		Reorder: 0.2, ReorderDelay: Duration(25 * time.Millisecond)}
	spike, calm := link, link
	spike.At, spike.Delay = Duration(15*time.Second), Duration(150*time.Millisecond)
	calm.At = Duration(25 * time.Second)
	return &FaultSpec{Events: []FaultEventSpec{link, spike, calm}}
}

// registerChaos declares the scheduled-fault experiment family. Paper
// coverage stops at always-on Byzantine servers; these entries exercise
// the crash/partition/lossy-network scenarios a deployment actually
// meets, with the end-of-run invariant checker asserting Setchain safety
// across every correct server.
func registerChaos() {
	Register(Entry{
		Name:   "chaos_crash",
		Title:  "Crash and restart a server mid-run",
		Figure: "— (beyond the paper)",
		Description: "Hashchain c=100 on 4 servers at 1,500 el/s; server 3 " +
			"crashes at t=10s and restarts at t=30s. The cluster keeps " +
			"committing on the 3-server quorum, the restarted server catches " +
			"up via certified block requests, and the invariant checker " +
			"verifies its recovered history is a consistent prefix.",
		Refs: []Reference{
			repoRef(0, MetricEff2x, 1.0, 0.05,
				"nothing is lost: the restarted server catches up and everything commits by 2x"),
			repoRef(0, MetricEffSend, 0.75, 0.15,
				"the send-end dent measures the 20 s outage on a 3/4 quorum"),
		},
		Cells: []ScenarioSpec{chaosCell("crash-restart", 4, 1500,
			crashPlan(outage{3, 10 * time.Second, 30 * time.Second}))},
	})
	Register(Entry{
		Name:   "chaos_partition",
		Title:  "Minority partition and heal",
		Figure: "— (beyond the paper)",
		Description: "Hashchain c=100 on 4 servers at 1,500 el/s; at t=10s " +
			"server 3 is partitioned away from the majority {0,1,2}, at t=30s " +
			"the partition heals. Consensus continues on the majority side, " +
			"the isolated server rejoins, and epoch-prefix consistency must " +
			"hold across all four servers at the end of the run.",
		Refs: []Reference{
			repoRef(0, MetricEff2x, 1.0, 0.05,
				"the isolated server rejoins and every add commits by 2x"),
			repoRef(0, MetricEffSend, 0.75, 0.15,
				"the send-end dent measures the 20 s minority partition"),
		},
		Cells: []ScenarioSpec{chaosCell("minority-partition", 4, 1500, minorityPartition())},
	})
	Register(Entry{
		Name:   "chaos_majority",
		Title:  "Quorum-splitting partition and heal",
		Figure: "— (beyond the paper)",
		Description: "Hashchain c=100 on 4 servers at 1,000 el/s; at t=10s the " +
			"cluster splits 2/2, leaving no side with a consensus quorum, and " +
			"heals at t=25s. Commits stall during the split (liveness yields) " +
			"but must resume after healing, and no side may have committed " +
			"anything the other contradicts — safety holds throughout.",
		Refs: []Reference{
			repoRef(0, MetricEff2x, 1.0, 0.05,
				"liveness yields during the split, safety does not; all commits land by 2x"),
			repoRef(0, MetricEffSend, 0.94, 0.1,
				"the 15 s no-quorum stall's backlog drains within the send window after healing"),
		},
		Cells: []ScenarioSpec{chaosCell("majority-partition", 4, 1000, &FaultSpec{
			Events: []FaultEventSpec{
				{At: Duration(10 * time.Second), Action: FaultPartition,
					Groups: [][]int{{0, 1}, {2, 3}}},
				{At: Duration(25 * time.Second), Action: FaultHeal},
			},
		})},
	})
	Register(Entry{
		Name:   "chaos_lossy",
		Title:  "Lossy WAN with a mid-run delay spike",
		Figure: "— (beyond the paper)",
		Description: "Hashchain c=100 on 7 servers at 2,000 el/s over a lossy " +
			"wide-area network: every link drops 2% and duplicates 1% of " +
			"messages and reorders 20% by up to 25ms; between t=15s and t=25s " +
			"a delay spike adds 150ms to every link. Exactly-once delivery is " +
			"deliberately broken, so this entry is the regression net for " +
			"duplicate-suppression and retransmission paths.",
		Refs: []Reference{
			repoRef(0, MetricEff2x, 1.0, 0.05,
				"retransmission fully hides 2% loss by 2x; a shortfall means a recovery path broke"),
			repoRef(0, MetricEffSend, 0.81, 0.15,
				"the send-end dent is the loss+delay-spike tax on commit latency"),
		},
		Cells: []ScenarioSpec{chaosCell("lossy-wan", 7, 2000, lossyWAN())},
	})
}
