package main

import (
	"embed"
	"fmt"
	"time"

	"repro/internal/harness"
	"repro/internal/spec"
)

// The workload inputs are spec.ScenarioSpec documents, so
// `setchain-bench -spec bench/workloads/<name>.json` runs the same input.
//
//go:embed workloads/*.json diffspecs/*.json
var specFS embed.FS

// workload names one benchmark input and records why it exists. The order
// is the order every suite run uses.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"fig4_hash", "Hashchain c=100 n=10 at 1,250 el/s: light load, so consensus rounds, timers and netsim dominate; bypasses the element path"},
	{"hash10k", "Hashchain c=500 n=10 at 10,000 el/s: Server.Add, hash reversal, per-server sets and the checker dominate; the memory regime"},
	{"vanilla_backlog", "Vanilla n=10 at 3,000 el/s, 3x its ceiling: the mempool builds and drains a backlog, one tx per element; bypasses collectors"},
	{"mesh50", "Hashchain n=50 over the fanout-8 gossip mesh, 500 elements: relay, netsim and vote handling do everything; bypasses element work"},
	{"shard_ckpt", "2 shards x 4 servers, checkpoint+prune, two crash/restarts: the only sharded-executor, freeze/prune and state-sync workload"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// loadSpec reads an embedded one-cell spec document (defaulted and
// validated by spec.Decode) and seeds it.
func loadSpec(path string, seed int64) (spec.ScenarioSpec, error) {
	f, err := specFS.Open(path)
	if err != nil {
		return spec.ScenarioSpec{}, err
	}
	defer f.Close()
	cells, err := spec.Decode(f)
	if err != nil {
		return spec.ScenarioSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(cells) != 1 {
		return spec.ScenarioSpec{}, fmt.Errorf("%s: want one scenario, got %d", path, len(cells))
	}
	cells[0].Seed = seed
	return cells[0], nil
}

// smokeDrain is the least virtual time a scaled-down scenario keeps after
// its send window, so the commit pipeline (seconds, whatever the load) can
// still drain and the correctness gate can hold.
const smokeDrain = 15 * time.Second

// loadScenario converts an embedded spec. scale is 1 everywhere but the
// smoke tests; below 1 it shrinks the rate, the send window and the horizon
// together (harness.FromSpecScaled), the horizon no further than smokeDrain
// past the send window.
func loadScenario(path string, seed int64, scale float64) (harness.Scenario, error) {
	sp, err := loadSpec(path, seed)
	if err != nil {
		return harness.Scenario{}, err
	}
	sc, err := harness.FromSpecScaled(sp, scale)
	if err != nil {
		return harness.Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	if floor := time.Duration(float64(sc.SendFor)*sc.Scale) + smokeDrain; scale < 1 && sc.Horizon < floor {
		sc.Horizon = floor
	}
	return sc, nil
}

func workloadPath(name string) string { return "workloads/" + name + ".json" }
