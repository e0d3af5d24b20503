package workload_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/sim"
)

// Full-payload elements, which only the routed generator builds, carry
// valid client signatures and commit.
func TestFullPayloadGeneration(t *testing.T) {
	s := sim.New(4)
	d := shard.Deploy(s, 1, 4, ledger.PaperConfig(),
		core.Options{Algorithm: core.Compresschain, Mode: core.Full, CollectorLimit: 20, F: 1}, metrics.LevelThroughput)
	d.Start()
	g := shard.NewGenerator(d, shard.WorkloadConfig{Rate: 100, Duration: 3 * time.Second, FullPayloads: true})
	g.Start()
	s.RunUntil(30 * time.Second)
	d.Stop()
	if g.Rejected() != 0 {
		t.Fatalf("full-payload rejects = %d (signature path broken?)", g.Rejected())
	}
	if d.Recorders[0].TotalCommitted() == 0 {
		t.Fatal("no full-payload elements committed")
	}
}
