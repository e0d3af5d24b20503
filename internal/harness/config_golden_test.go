package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/spec"
	"repro/internal/workload"
)

// effectiveOptions is what a server reads of its core.Options, without the
// shared batch store (a pointer). Vanilla builds no collector, so its
// collector fields are not part of its configuration.
type effectiveOptions struct {
	Algorithm        core.Algorithm
	Mode             core.Mode
	Light            bool
	CollectorLimit   int
	CollectorTimeout time.Duration
	RequestTimeout   time.Duration
	RetryBackoff     time.Duration
	Costs            core.CostModel
	F                int
	Checkpoint       int
	Prune            bool
}

func optionsOf(o core.Options) effectiveOptions {
	e := effectiveOptions{
		Algorithm: o.Algorithm, Mode: o.Mode, Light: o.Light,
		CollectorLimit: o.CollectorLimit, CollectorTimeout: o.CollectorTimeout,
		RequestTimeout: o.RequestTimeout, RetryBackoff: o.RetryBackoff,
		Costs: o.Costs, F: o.F, Checkpoint: o.CheckpointInterval, Prune: o.Prune,
	}
	if o.Algorithm == core.Vanilla {
		e.CollectorLimit, e.CollectorTimeout = 0, 0
	}
	return e
}

// poolOf is what a pool reads of its mempool.Config: the deferred queue's
// bounds only under the delay policy, the one that has a queue.
func poolOf(c mempool.Config) mempool.Config {
	if c.Admission.Policy != mempool.AdmissionDelay {
		c.Admission.MaxDelay, c.Admission.MaxDeferred = 0, 0
	}
	return c
}

// runs renders one value per node as "0-3: v; 4: w", collapsing runs of
// equal values.
func runs(first int, vals []string) string {
	var parts []string
	for i := 0; i < len(vals); {
		j := i
		for j+1 < len(vals) && vals[j+1] == vals[i] {
			j++
		}
		ids := fmt.Sprint(first + i)
		if j > i {
			ids += fmt.Sprintf("-%d", first+j)
		}
		parts = append(parts, ids+": "+vals[i])
		i = j + 1
	}
	return strings.Join(parts, "; ")
}

// TestGoldenEffectiveConfig pins what every layer is handed: for every
// cell of every registry entry at the golden scale, deployed but not run,
// each server's options, each node's consensus parameters and pool
// configuration, each shard's transport, and the generator's
// configuration must equal testdata/effective_config.txt. Moving a default
// from one layer to another must leave this file unchanged; regenerate it
// with `go test ./internal/harness -run TestGoldenEffectiveConfig -update`
// only for a change that means to alter a deployment.
func TestGoldenEffectiveConfig(t *testing.T) {
	var b strings.Builder
	for _, e := range spec.All() {
		for i, cell := range e.Cells {
			sc, err := FromSpecScaled(cell, goldenScale)
			if err != nil {
				t.Fatalf("%s cell %d: %v", e.Name, i, err)
			}
			_, d, gen := Deploy(sc.withDefaults())
			g := gen.Config()
			fmt.Fprintf(&b, "%s/%d\n  generator %+v\n", e.Name, i, g)
			for k, sd := range d.Shards {
				var opts, params, pools []string
				for j, srv := range sd.Servers {
					node := sd.Ledger.Nodes[j]
					opts = append(opts, fmt.Sprintf("%+v", optionsOf(srv.Options())))
					params = append(params, fmt.Sprintf("%+v", node.Cons.Params()))
					pools = append(pools, fmt.Sprintf("%+v", poolOf(node.Pool.Config())))
				}
				transport := "broadcast"
				if sd.Ledger.Mesh != nil {
					transport = fmt.Sprintf("mesh fanout=%d", sd.Ledger.Mesh.Fanout())
				}
				first := int(d.Observer(k))
				fmt.Fprintf(&b, "  shard %d %s\n    options %s\n    consensus %s\n    mempool %s\n",
					k, transport, runs(first, opts), runs(first, params), runs(first, pools))
			}
		}
	}

	path := filepath.Join("testdata", "effective_config.txt")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	got, golden := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(golden)) {
		if got[i] != golden[i] {
			t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, got[i], golden[i])
		}
	}
	if len(got) != len(golden) {
		t.Fatalf("%d lines, %s has %d", len(got), path, len(golden))
	}
}

// A scenario's admission defaults are spec.WithDefaults': the pools a
// delay-policy spec deploys run with its 0.9 watermark, 5 s deadline and
// 1,024-transaction queue, and a spec without admission deploys pools
// without it.
func TestAdmissionDefaults(t *testing.T) {
	sp := spec.ScenarioSpec{Algorithm: spec.AlgHashchain, Servers: 4, Rate: 100,
		Admission: &spec.AdmissionSpec{Policy: spec.AdmissionDelay, MaxTxs: 100}}
	pool := func() mempool.Config {
		_, d, _ := Deploy(fromSpec(t, sp).withDefaults())
		return d.Shards[0].Ledger.Nodes[0].Pool.Config()
	}
	want := mempool.AdmissionConfig{Policy: mempool.AdmissionDelay,
		Watermark: 0.9, MaxDelay: 5 * time.Second, MaxDeferred: 1024}
	if got := pool(); got.Admission != want || got.MaxTxs != 100 {
		t.Fatalf("delay-policy pool = %+v, want admission %+v and 100 txs", got, want)
	}
	sp.Admission = nil
	if got := pool(); got != mempool.PaperConfig() {
		t.Fatalf("closed-system pool = %+v, want mempool.PaperConfig()", got)
	}
}

// The one default the spec restates: a workload block's unset sizes and
// tick take workload.Shape's values (ArbitrumSizes, the generators' tick),
// written out because the defaulted spec is what ARTIFACT_paper.json
// records. The two copies must agree.
func TestWorkloadSpecDefaultsMatchGenerator(t *testing.T) {
	sc := fromSpec(t, spec.ScenarioSpec{Algorithm: spec.AlgVanilla, Rate: 1,
		Workload: &spec.WorkloadSpec{}})
	sizes, tick := workload.Shape(workload.SizeModel{}, 0)
	if sizes != workload.ArbitrumSizes() {
		t.Fatalf("workload.Shape sizes %+v, want ArbitrumSizes", sizes)
	}
	if sc.Sizes != sizes || sc.Tick != tick {
		t.Fatalf("spec defaults sizes %+v tick %v, generator %+v / %v", sc.Sizes, sc.Tick, sizes, tick)
	}
}
