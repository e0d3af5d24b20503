package invariant

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// runSmall executes a small fault-free Hashchain run and returns the
// deployment plus the checker Config describing it.
func runSmall(t *testing.T) (*core.Deployment, Config) {
	t.Helper()
	return run(t, core.Options{Algorithm: core.Hashchain})
}

func TestCheckerPassesOnCorrectRun(t *testing.T) {
	d, cfg := runSmall(t)
	if err := Check(d, cfg); err != nil {
		t.Fatalf("correct run violates invariants: %v", err)
	}
}

// lastEpoch returns a server's last epoch with at least one element.
func lastEpoch(t *testing.T, d *core.Deployment, id int) *core.Epoch {
	t.Helper()
	hist := d.Servers[id].Get().History
	for i := len(hist) - 1; i >= 0; i-- {
		if len(hist[i].Elements) > 0 {
			return hist[i]
		}
	}
	t.Fatalf("server %d has no non-empty epoch", id)
	return nil
}

// own gives ep a private copy of its element slice and returns ep. On a
// clean run an epoch is its batch's own slice on every server (core's
// filter), so a test that writes into one server's epoch un-shares it first;
// otherwise it corrupts every server at once.
func own(ep *core.Epoch) *core.Epoch {
	ep.Elements = slices.Clone(ep.Elements)
	return ep
}

// The mutation smoke tests: the checker must detect a deliberately
// corrupted ledger, proving it is not vacuously green.
func TestCheckerDetectsCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, d *core.Deployment)
		want   string
	}{
		{
			name: "element dropped from one server's epoch",
			mutate: func(t *testing.T, d *core.Deployment) {
				ep := lastEpoch(t, d, 1)
				ep.Elements = ep.Elements[:len(ep.Elements)-1]
			},
			want: "diverge",
		},
		{
			name: "fabricated element swapped into one server's epoch",
			mutate: func(t *testing.T, d *core.Deployment) {
				ep := own(lastEpoch(t, d, 2))
				forged := *ep.Elements[0]
				forged.ID = wire.ElementID{0xDE, 0xAD, 0xBE, 0xEF}
				ep.Elements[0] = &forged
			},
			want: "fabricated",
		},
		{
			name: "epoch renumbered",
			mutate: func(t *testing.T, d *core.Deployment) {
				lastEpoch(t, d, 3).Number += 7
			},
			want: "non-monotone",
		},
		{
			name: "committed epoch emptied on the observer",
			mutate: func(t *testing.T, d *core.Deployment) {
				// Find a committed epoch the recorder saw with elements and
				// erase its contents on the observer: the loss check must
				// notice the count no longer matches what committed.
				hist := d.Servers[0].Get().History
				for i := len(hist) - 1; i >= 0; i-- {
					if len(hist[i].Elements) > 0 {
						hist[i].Elements = nil
						return
					}
				}
				t.Skip("no non-empty epoch on the observer")
			},
			want: "",
		},
		{
			name: "element duplicated across epochs",
			mutate: func(t *testing.T, d *core.Deployment) {
				hist := d.Servers[1].Get().History
				var nonEmpty []*core.Epoch
				for _, ep := range hist {
					if len(ep.Elements) > 0 {
						nonEmpty = append(nonEmpty, ep)
					}
				}
				if len(nonEmpty) < 2 {
					t.Skip("need two non-empty epochs")
				}
				last := own(nonEmpty[len(nonEmpty)-1])
				last.Elements[0] = nonEmpty[0].Elements[0]
			},
			want: "duplicated",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, cfg := runSmall(t)
			tc.mutate(t, d)
			err := Check(d, cfg)
			if err == nil {
				t.Fatal("checker stayed green on a corrupted ledger")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("violation %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCheckerFlagsMissingObserver(t *testing.T) {
	d, cfg := runSmall(t)
	cfg.Correct = []wire.NodeID{1, 2, 3} // observer 0 excluded
	err := Check(d, cfg)
	if err == nil || !strings.Contains(err.Error(), "observer") {
		t.Fatalf("want observer error, got %v", err)
	}
}

func TestCheckerNilSetsSkipOptionalChecks(t *testing.T) {
	d, cfg := runSmall(t)
	cfg.Injected = nil
	cfg.CommittedEpochs = nil
	if err := Check(d, cfg); err != nil {
		t.Fatalf("structural checks alone should pass: %v", err)
	}
}

// runSmallAdmission is runSmall with a reject-policy admission gate
// squeezed (30-tx pool) until the generator observes real rejections, and
// the rejected-ID set handed to the checker.
func runSmallAdmission(t *testing.T) (*core.Deployment, Config) {
	t.Helper()
	s := sim.New(1)
	const n = 4
	f := (n - 1) / 2
	rec := metrics.New(s, metrics.LevelThroughput, n, f, 0)
	mcfg := mempool.PaperConfig()
	mcfg.MaxTxs = 30
	mcfg.Admission = mempool.AdmissionConfig{Policy: mempool.AdmissionReject, Watermark: 0.9}
	d := core.Deploy(s, n, ledger.Config{
		Net:       netsim.DefaultLANConfig(),
		Consensus: consensus.PaperParams(),
		Mempool:   mcfg,
	}, core.Options{
		Algorithm:      core.Hashchain,
		CollectorLimit: 100,
		Costs:          core.PaperCostModel(),
		F:              f,
	}, rec)
	gen := workload.New(d, rec, workload.Config{
		Rate: 2000, Duration: 6 * time.Second, TrackIDs: true,
	})
	d.Start()
	gen.Start()
	s.RunUntil(25 * time.Second)
	d.Stop()
	if rec.TotalCommitted() == 0 {
		t.Fatal("admission run committed nothing; checker would be vacuous")
	}
	if gen.Rejected() == 0 {
		t.Fatal("admission run rejected nothing; the rejected-ID check would be vacuous")
	}
	return d, Config{
		Correct:         []wire.NodeID{0, 1, 2, 3},
		Injected:        gen.InjectedIDs(),
		Rejected:        gen.RejectedIDs(),
		CommittedEpochs: rec.CommittedEpochSizes(),
		Observer:        0,
	}
}

// The admission arm of the checker: a rejected element must not appear in
// any committed epoch, and — the satellite's bookkeeping contract — the
// rejected-ID set is disjoint from the injected one, so a committed
// rejected element would also read as fabricated.
func TestCheckerDetectsCommittedRejectedElement(t *testing.T) {
	d, cfg := runSmallAdmission(t)
	if err := Check(d, cfg); err != nil {
		t.Fatalf("correct admission run violates invariants: %v", err)
	}
	for id := range cfg.Rejected.All() {
		if cfg.Injected.Has(id) {
			t.Fatalf("id %v booked both injected and rejected", id)
		}
	}
	// Splice a rejected element into a committed epoch on one server: the
	// checker must name the admission violation precisely.
	var rejID wire.ElementID
	for id := range cfg.Rejected.All() {
		rejID = id
		break
	}
	ep := own(lastEpoch(t, d, 2))
	forged := *ep.Elements[0]
	forged.ID = rejID
	ep.Elements[0] = &forged
	err := Check(d, cfg)
	if err == nil {
		t.Fatal("checker stayed green with a rejected element committed")
	}
	if !strings.Contains(err.Error(), "admission-rejected") {
		t.Fatalf("violation %q does not mention the admission rejection", err)
	}
	// Without the rejected set the same splice must still trip the
	// fabrication check — rejected ids are deliberately NOT injected ids.
	cfg.Rejected = nil
	err = Check(d, cfg)
	if err == nil || !strings.Contains(err.Error(), "fabricated") {
		t.Fatalf("want fabrication fallback, got %v", err)
	}
}

// runSmallCkpt is runSmall with checkpoint sealing enabled (every 2
// epochs) and full history retained, so every digest recomputes end to
// end and the checkpoint checker runs in its strictest mode.
func runSmallCkpt(t *testing.T) (*core.Deployment, Config) {
	t.Helper()
	d, cfg := run(t, core.Options{Algorithm: core.Hashchain, CheckpointInterval: 2})
	if len(d.Servers[0].Get().Checkpoints) == 0 {
		t.Fatal("run sealed no checkpoints; checkpoint checks would be vacuous")
	}
	return d, cfg
}

// The checkpoint arm of the checker must catch corrupted chains — and,
// the regression half of the contract, must NOT flag a seal-height skew:
// heights are per-server prune metadata that legitimately trail by a
// block under faults, so only content (epoch, elements, digest) is part
// of the cross-server agreement.
func TestCheckerDetectsCheckpointCorruption(t *testing.T) {
	// Snapshot slices share the server's backing arrays, so writing
	// through Get().Checkpoints mutates live server state.
	cases := []struct {
		name   string
		mutate func(t *testing.T, d *core.Deployment)
		want   string // "" = checker must STAY green
	}{
		{
			name: "digest corrupted",
			mutate: func(t *testing.T, d *core.Deployment) {
				cks := d.Servers[1].Get().Checkpoints
				cks[len(cks)-1].Digest ^= 1
			},
			want: "does not recompute",
		},
		{
			name: "cumulative element count inflated",
			mutate: func(t *testing.T, d *core.Deployment) {
				cks := d.Servers[2].Get().Checkpoints
				cks[len(cks)-1].Elements += 5
			},
			want: "cumulative elements",
		},
		{
			name: "chain regresses: seal point repeated",
			mutate: func(t *testing.T, d *core.Deployment) {
				cks := d.Servers[1].Get().Checkpoints
				if len(cks) < 2 {
					t.Skip("need two checkpoints")
				}
				cks[1].Epoch = cks[0].Epoch
			},
			want: "does not extend",
		},
		{
			name: "seal beyond history end",
			mutate: func(t *testing.T, d *core.Deployment) {
				cks := d.Servers[3].Get().Checkpoints
				cks[len(cks)-1].Epoch += 1000
			},
			want: "beyond history end",
		},
		{
			name: "seal height skew is NOT a violation",
			mutate: func(t *testing.T, d *core.Deployment) {
				cks := d.Servers[1].Get().Checkpoints
				cks[len(cks)-1].Height++
			},
			want: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, cfg := runSmallCkpt(t)
			tc.mutate(t, d)
			err := Check(d, cfg)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("checker flagged an advisory-height skew: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("checker stayed green on a corrupted checkpoint chain")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("violation %q does not mention %q", err, tc.want)
			}
		})
	}
}

// idWords splits an id into the two words the paged id containers key on:
// the client word, kept whole, and the sequence word, whose top 58 bits
// name the page.
func idWords(id wire.ElementID) (client, seq uint64) {
	return binary.LittleEndian.Uint64(id[0:8]), binary.LittleEndian.Uint64(id[8:16])
}

func samePage(a, b wire.ElementID) bool {
	ac, as := idWords(a)
	bc, bs := idWords(b)
	return ac == bc && as>>6 == bs>>6
}

// Corruptions a hashed map of whole ids could not get wrong but a paged
// container could: they differ from valid state only in one of the two
// words the page key is built from, or sit in a page beside valid ids.
func TestCheckerDetectsCorruptionWithinAPage(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, d *core.Deployment, cfg Config)
		want   []string
		count  int // lines the violation must have on the mutated server
	}{
		{
			name: "duplicate across two epochs, both ids in one page",
			mutate: func(t *testing.T, d *core.Deployment, cfg Config) {
				// Overwrite an element of a later epoch with its page
				// neighbour from an earlier one: the page then holds one id
				// twice and its other ids once.
				hist := d.Servers[1].Get().History
				for i, early := range hist {
					for _, a := range early.Elements {
						for _, late := range hist[i+1:] {
							for k, b := range late.Elements {
								if a.ID != b.ID && samePage(a.ID, b.ID) {
									own(late).Elements[k] = a
									return
								}
							}
						}
					}
				}
				t.Fatal("no page spans two epochs; tune the workload")
			},
			want:  []string{"server 1: element", "duplicated"},
			count: 1,
		},
		{
			name: "fabricated id equal to an injected one in the sequence word",
			mutate: func(t *testing.T, d *core.Deployment, cfg Config) {
				ep := own(lastEpoch(t, d, 2))
				forged := *ep.Elements[0]
				forged.ID[4] ^= 0x80 // another client, same sequence number
				if cfg.Injected.Has(forged.ID) {
					t.Fatal("forged id collides with an injected one")
				}
				ep.Elements[0] = &forged
			},
			want:  []string{"server 2: fabricated element"},
			count: 1,
		},
		{
			name: "fabricated id equal to an injected one in the client word",
			mutate: func(t *testing.T, d *core.Deployment, cfg Config) {
				ep := own(lastEpoch(t, d, 2))
				forged := *ep.Elements[0]
				forged.ID[13] ^= 0x01 // same client, same bit of a page far away
				if cfg.Injected.Has(forged.ID) {
					t.Fatal("forged id collides with an injected one")
				}
				ep.Elements[0] = &forged
			},
			want:  []string{"server 2: fabricated element"},
			count: 1,
		},
		{
			name: "bogus element in the set below the prune horizon, in a page of valid ids",
			mutate: func(t *testing.T, d *core.Deployment, cfg Config) {
				// The id after a client's last: never injected, in no epoch,
				// one bit away from ids that are both.
				snap := d.Servers[3].Get()
				var free *wire.ElementID
				for id := range snap.TheSet.All() {
					next := id
					next[8]++
					if next[8] != 0 && samePage(id, next) && !cfg.Injected.Has(next) {
						free = &next
						break
					}
				}
				if free == nil {
					t.Fatal("no free id beside a valid one; tune the workload")
				}
				if !snap.TheSet.Add(&wire.Element{ID: *free, Client: wire.ClientID(-1), Size: 100, Bogus: true}) {
					t.Fatal("the smuggled id was already in the set")
				}
			},
			want:  []string{"server 3: invalid (bogus) element", "in the set below the prune horizon"},
			count: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, cfg := runSmall(t)
			tc.mutate(t, d, cfg)
			err := Check(d, cfg)
			if err == nil {
				t.Fatal("checker stayed green on a corrupted ledger")
			}
			lines := 0
			for _, line := range strings.Split(err.Error(), "\n") {
				match := true
				for _, want := range tc.want {
					match = match && strings.Contains(line, want)
				}
				if match {
					lines++
				}
			}
			if lines != tc.count {
				t.Fatalf("violation has %d lines mentioning %q, want %d:\n%v", lines, tc.want, tc.count, err)
			}
		})
	}
}

// A nil Injected set skips the fabrication check in the scan of the set as
// it does in the scan of the history: a valid element nobody injected, in
// the_set of one server and in no epoch.
func TestCheckerNilInjectedSkipsSetScan(t *testing.T) {
	d, cfg := runSmall(t)
	stray := &wire.Element{ID: wire.ElementID{0xDE, 0xAD}, Size: 100}
	d.Servers[3].Get().TheSet.Add(stray)
	if err := Check(d, cfg); err == nil || !strings.Contains(err.Error(), "fabricated element") {
		t.Fatalf("want a fabrication in the set, got %v", err)
	}
	cfg.Injected = nil
	if err := Check(d, cfg); err != nil {
		t.Fatalf("nil Injected must skip the fabrication check: %v", err)
	}
}

// A systematic fault offends once per element; the report keeps the first
// maxReported violations verbatim and counts the rest exactly.
func TestCheckerReportIsBounded(t *testing.T) {
	d, cfg := runSmall(t)
	// Forge every element of server 1's history, as a server that also holds
	// its forgeries in the_set: one fabrication per element, and one
	// divergence from the reference per non-empty epoch.
	violations := 0
	snap := d.Servers[1].Get()
	for _, ep := range snap.History {
		for i, e := range own(ep).Elements {
			forged := *e
			forged.ID[7] = 0xFA
			ep.Elements[i] = &forged
			snap.TheSet.Add(&forged)
			violations++
		}
		if len(ep.Elements) > 0 {
			violations++
		}
	}
	t.Logf("%d violations", violations)
	if violations <= 10*maxReported {
		t.Fatalf("only %d violations; the bound would hardly be tested", violations)
	}
	err := Check(d, cfg)
	if err == nil {
		t.Fatal("checker stayed green on a history forged at every element")
	}
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != maxReported+1 {
		t.Fatalf("report has %d lines, want %d violations and one count", len(lines), maxReported)
	}
	for _, line := range lines[:maxReported] {
		if !strings.Contains(line, "server 1: fabricated element") {
			t.Fatalf("one of the first %d lines is not a violation verbatim: %q", maxReported, line)
		}
	}
	if want := fmt.Sprintf("… and %d more violations", violations-maxReported); lines[maxReported] != want {
		t.Fatalf("last line %q, want %q", lines[maxReported], want)
	}

	// At the bound exactly, nothing is counted.
	var rep report
	for i := 0; i < maxReported; i++ {
		rep.addf("violation %d", i)
	}
	if got := strings.Count(rep.err().Error(), "\n"); got != maxReported-1 {
		t.Fatalf("%d violations render as %d lines", maxReported, got+1)
	}
	if (&report{}).err() != nil {
		t.Fatal("an empty report is not a nil error")
	}
}
