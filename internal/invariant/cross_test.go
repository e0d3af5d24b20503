package invariant

import (
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/wire"
)

// runSharded executes a small fault-free 2-shard Hashchain run and
// returns its aggregated view, the injected-id set and the cross config.
func runSharded(t *testing.T) (*shard.View, CrossConfig) {
	t.Helper()
	s := sim.New(3)
	const shards, n = 2, 4
	d := shard.Deploy(s, shards, n, ledger.Config{
		Net:       netsim.DefaultLANConfig(),
		Consensus: consensus.PaperParams(),
		Mempool:   mempool.PaperConfig(),
	}, core.Options{
		Algorithm:      core.Hashchain,
		CollectorLimit: 100,
		Costs:          core.PaperCostModel(),
		F:              (n - 1) / 2,
	}, metrics.LevelThroughput)
	gen := shard.NewGenerator(d, shard.WorkloadConfig{Rate: 800, Duration: 6 * time.Second})
	d.Start()
	gen.Start()
	s.RunUntil(30 * time.Second)
	d.Stop()
	view := d.View()
	for k, hist := range view.Histories {
		if len(hist) == 0 {
			t.Fatalf("shard %d committed nothing; mutation tests would be vacuous", k)
		}
	}
	return view, CrossConfig{Shards: shards, Injected: gen.InjectedIDs()}
}

// cloneView deep-copies the epoch structure (sharing elements) so a
// mutation cannot leak into the next subtest.
func cloneView(v *shard.View) *shard.View {
	hists := make([][]*core.Epoch, len(v.Histories))
	for k, h := range v.Histories {
		hists[k] = make([]*core.Epoch, len(h))
		for i, ep := range h {
			cp := &core.Epoch{
				Number:   ep.Number,
				Elements: append([]*wire.Element(nil), ep.Elements...),
				Hash:     append([]byte(nil), ep.Hash...),
			}
			hists[k][i] = cp
		}
	}
	return shard.NewPrunedView(hists, nil, nil)
}

// TestCheckCrossPassesOnCorrectRun pins the baseline: a real sharded run
// passes, non-vacuously.
func TestCheckCrossPassesOnCorrectRun(t *testing.T) {
	view, cfg := runSharded(t)
	if err := CheckCross(view, cfg); err != nil {
		t.Fatalf("correct sharded run fails the cross-shard check: %v", err)
	}
}

// TestCheckCrossDetectsCorruption corrupts the merged ledger five ways
// and proves the checker fails each one. Every mutation first asserts the
// state it corrupts exists, so no case can pass vacuously.
func TestCheckCrossDetectsCorruption(t *testing.T) {
	view, cfg := runSharded(t)

	// pick returns an epoch of the shard with a committed element.
	firstEpochWithElements := func(v *shard.View, k int) *core.Epoch {
		for _, ep := range v.Histories[k] {
			if len(ep.Elements) > 0 {
				return ep
			}
		}
		t.Fatalf("shard %d has no committed elements", k)
		return nil
	}

	cases := []struct {
		name   string
		mutate func(v *shard.View)
		want   string
	}{
		{
			name: "duplicate-across-shards",
			mutate: func(v *shard.View) {
				// Copy a committed element of shard 0 into a shard 1 epoch:
				// the element now exists on two shards.
				src := firstEpochWithElements(v, 0)
				dst := firstEpochWithElements(v, 1)
				dst.Elements = append(dst.Elements, src.Elements[0])
				v.Supers = shard.MergeFrom(v.Histories, nil)
			},
			want: "duplicated across shards",
		},
		{
			name: "drop-shard-epoch",
			mutate: func(v *shard.View) {
				// Remove shard 1's contribution from a superepoch the merge
				// says it participates in: cross-shard loss.
				se := v.Supers[0]
				if len(se.Parts) != 2 {
					t.Fatalf("superepoch 1 has %d parts, want both shards", len(se.Parts))
				}
				se.Parts = se.Parts[:1]
			},
			want: "shard's epoch was dropped",
		},
		{
			name: "misroute",
			mutate: func(v *shard.View) {
				// Move an element from its owning shard into the other
				// shard's epoch: commitment disobeys the router.
				src := firstEpochWithElements(v, 0)
				dst := firstEpochWithElements(v, 1)
				e := src.Elements[0]
				src.Elements = src.Elements[1:]
				dst.Elements = append(dst.Elements, e)
				v.Supers = shard.MergeFrom(v.Histories, nil)
			},
			want: "misrouted element",
		},
		{
			name: "fabricate",
			mutate: func(v *shard.View) {
				// Insert an element the workload never injected, with an id
				// the router does own to the shard so only the fabrication
				// check can catch it.
				var e wire.Element
				for b := 0; b < 256; b++ {
					e.ID = wire.ElementID{0xfb, byte(b)}
					if shard.Route(e.ID, cfg.Shards) == 1 {
						break
					}
				}
				if cfg.Injected.Has(e.ID) {
					t.Fatal("fabricated id collides with an injected one")
				}
				ep := firstEpochWithElements(v, 1)
				ep.Elements = append(ep.Elements, &e)
				v.Supers = shard.MergeFrom(v.Histories, nil)
			},
			want: "fabricated element",
		},
		{
			name: "reorder-superepochs",
			mutate: func(v *shard.View) {
				if len(v.Supers) < 2 {
					t.Fatalf("need at least 2 superepochs, have %d", len(v.Supers))
				}
				v.Supers[0], v.Supers[1] = v.Supers[1], v.Supers[0]
			},
			want: "contiguous 1..K",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := cloneView(view)
			if err := CheckCross(mutated, cfg); err != nil {
				t.Fatalf("clone fails before mutation: %v", err)
			}
			tc.mutate(mutated)
			err := CheckCross(mutated, cfg)
			if err == nil {
				t.Fatalf("checker passed a ledger corrupted by %q", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corruption %q detected with the wrong message:\n%v", tc.name, err)
			}
		})
	}
}
