package core_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/setcrypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// deployFull builds an n-server Full-mode deployment tolerating the most
// faults n allows, with real ed25519 and the evaluation's ledger.
func deployFull(seed int64, n int, opts core.Options) (*sim.Simulator, *core.Deployment) {
	s := sim.New(seed)
	opts.Mode = core.Full
	opts.F = (n - 1) / 2
	lcfg := ledger.PaperConfig()
	lcfg.Suite = setcrypto.Ed25519Suite{}
	d := core.Deploy(s, n, lcfg, opts, nil)
	d.Start()
	return s, d
}

// addElements injects count elements round-robin through the deployment's
// clients at 50ms spacing, returning the created ids.
func addElements(s *sim.Simulator, d *core.Deployment, count int) []wire.ElementID {
	ids := make([]wire.ElementID, 0, count)
	for i := 0; i < count; i++ {
		i := i
		cl := d.Clients[i%len(d.Clients)]
		e := cl.NewElement([]byte(fmt.Sprintf("payload-%d", i)))
		ids = append(ids, e.ID)
		s.After(time.Duration(i)*50*time.Millisecond, func() {
			if err := d.Servers[i%len(d.Servers)].Add(e); err != nil {
				panic(err)
			}
		})
	}
	return ids
}

// checkProperties asserts the paper's safety properties (1, 5, 6, 7) on the
// current state and, when liveness is expected (quiesced run), properties
// 2/3/4/8 for the given element ids.
func checkProperties(t *testing.T, d *core.Deployment, ids []wire.ElementID, expectLive bool) {
	t.Helper()
	f := d.Opts.F
	known := make(map[wire.ElementID]bool, len(ids))
	for _, id := range ids {
		known[id] = true
	}
	snaps := make([]core.Snapshot, len(d.Servers))
	for i, srv := range d.Servers {
		snaps[i] = srv.Get()
	}
	for si, snap := range snaps {
		// Property 1 (Consistent-Sets): H[i] ⊆ T.
		for _, ep := range snap.History {
			for _, e := range ep.Elements {
				if !snap.TheSet.Has(e.ID) {
					t.Fatalf("server %d: epoch %d element %v not in the_set", si, ep.Number, e.ID)
				}
			}
		}
		// Property 5 (Unique-Epoch): epochs are disjoint.
		seen := make(map[wire.ElementID]uint64)
		for _, ep := range snap.History {
			for _, e := range ep.Elements {
				if prev, dup := seen[e.ID]; dup {
					t.Fatalf("server %d: element %v in epochs %d and %d", si, e.ID, prev, ep.Number)
				}
				seen[e.ID] = ep.Number
			}
		}
		// Property 7 (Add-before-Get): everything in the_set was added by
		// a known client (no fabricated elements).
		for id := range snap.TheSet.All() {
			if !known[id] {
				t.Fatalf("server %d: the_set contains unknown element %v", si, id)
			}
		}
	}
	// Property 6 (Consistent-Gets): common history prefixes agree.
	for i := 1; i < len(snaps); i++ {
		a, b := snaps[0], snaps[i]
		m := len(a.History)
		if len(b.History) < m {
			m = len(b.History)
		}
		for k := 0; k < m; k++ {
			ea, eb := a.History[k], b.History[k]
			if len(ea.Elements) != len(eb.Elements) {
				t.Fatalf("servers 0/%d: epoch %d sizes differ: %d vs %d",
					i, k+1, len(ea.Elements), len(eb.Elements))
			}
			for j := range ea.Elements {
				if ea.Elements[j].ID != eb.Elements[j].ID {
					t.Fatalf("servers 0/%d: epoch %d element %d differs", i, k+1, j)
				}
			}
		}
	}
	if !expectLive {
		return
	}
	for si, snap := range snaps {
		// Properties 2/3/4 (Add-Get-Local, Get-Global, Eventual-Get):
		// every added element is in every correct server's history.
		inHist := make(map[wire.ElementID]bool)
		for _, ep := range snap.History {
			for _, e := range ep.Elements {
				inHist[e.ID] = true
			}
		}
		for _, id := range ids {
			if !inHist[id] {
				t.Fatalf("server %d: element %v never reached an epoch", si, id)
			}
		}
		// Property 8 (Valid-Epoch): every epoch has >= f+1 valid proofs.
		cl := d.Clients[0]
		for _, ep := range snap.History {
			if got := cl.CountValidProofs(ep); got < f+1 {
				t.Fatalf("server %d: epoch %d has %d valid proofs, want >= %d",
					si, ep.Number, got, f+1)
			}
		}
	}
}

func runQuiesce(s *sim.Simulator, d *core.Deployment, until time.Duration) {
	s.RunUntil(until)
	d.Drain()
	s.RunUntil(until + 30*time.Second)
}

func TestVanillaEndToEnd(t *testing.T) {
	s, d := deployFull(1, 4, core.Options{Algorithm: core.Vanilla})
	ids := addElements(s, d, 40)
	runQuiesce(s, d, 20*time.Second)
	d.Stop()
	checkProperties(t, d, ids, true)
}

func TestCompresschainEndToEnd(t *testing.T) {
	s, d := deployFull(2, 4, core.Options{Algorithm: core.Compresschain, CollectorLimit: 10})
	ids := addElements(s, d, 40)
	runQuiesce(s, d, 20*time.Second)
	d.Stop()
	checkProperties(t, d, ids, true)
}

func TestHashchainEndToEnd(t *testing.T) {
	s, d := deployFull(3, 4, core.Options{Algorithm: core.Hashchain, CollectorLimit: 10})
	ids := addElements(s, d, 40)
	runQuiesce(s, d, 30*time.Second)
	d.Stop()
	checkProperties(t, d, ids, true)
	// The hash-reversal service was exercised: peers fetched batches.
	fetched := uint64(0)
	for _, srv := range d.Servers {
		st := srv.HashchainStats()
		fetched += st.RequestsServed
	}
	if fetched == 0 {
		t.Fatal("no Request_batch traffic despite multi-server Hashchain")
	}
}

func TestHashchainSevenServers(t *testing.T) {
	s, d := deployFull(4, 7, core.Options{Algorithm: core.Hashchain, CollectorLimit: 20})
	ids := addElements(s, d, 70)
	runQuiesce(s, d, 30*time.Second)
	d.Stop()
	checkProperties(t, d, ids, true)
}

func TestClientVerifyCommitted(t *testing.T) {
	s, d := deployFull(5, 4, core.Options{Algorithm: core.Hashchain, CollectorLimit: 10})
	cl := d.Clients[0]
	e := cl.NewElement([]byte("my diploma"))
	s.After(time.Second, func() {
		if err := d.Servers[1].Add(e); err != nil {
			t.Errorf("Add: %v", err)
		}
	})
	runQuiesce(s, d, 20*time.Second)
	d.Stop()
	// The client queries a single (different) server and verifies with f+1
	// epoch-proofs, per the paper's single-server interaction model.
	snap := d.Servers[2].Get()
	epoch, err := cl.VerifyCommitted(snap, e.ID)
	if err != nil {
		t.Fatalf("VerifyCommitted: %v", err)
	}
	if epoch == 0 {
		t.Fatal("epoch = 0")
	}
	// An unknown element is not committed.
	var bogus wire.ElementID
	bogus[0] = 0xFF
	if _, err := cl.VerifyCommitted(snap, bogus); err == nil {
		t.Fatal("unknown element verified as committed")
	}
}

func TestClientRejectsTamperedEpoch(t *testing.T) {
	s, d := deployFull(6, 4, core.Options{Algorithm: core.Compresschain, CollectorLimit: 5})
	cl := d.Clients[0]
	e := cl.NewElement([]byte("genuine"))
	s.After(time.Second, func() { _ = d.Servers[0].Add(e) })
	runQuiesce(s, d, 20*time.Second)
	d.Stop()
	snap := d.Servers[0].Get()
	epoch, err := cl.VerifyCommitted(snap, e.ID)
	if err != nil {
		t.Fatalf("VerifyCommitted: %v", err)
	}
	// A Byzantine server forging history content cannot keep the proofs
	// valid: tamper with the epoch the element landed in.
	forged := cl.NewElement([]byte("forged"))
	tampered := snap
	hist := append([]*core.Epoch(nil), snap.History...)
	ep := *hist[epoch-1]
	ep.Elements = append(append([]*wire.Element(nil), ep.Elements...), forged)
	hist[epoch-1] = &ep
	tampered.History = hist
	if _, err := cl.VerifyCommitted(tampered, forged.ID); err == nil {
		t.Fatal("client accepted a tampered epoch")
	}
}

// Each signer counts once: an epoch that lists one valid proof f+1 times is
// not committed. (Proofs used to be keyed by signer, which made a repeat
// impossible; a slice does not.)
func TestClientCountsEachSignerOnce(t *testing.T) {
	s, d := deployFull(13, 4, core.Options{Algorithm: core.Compresschain, CollectorLimit: 5})
	cl := d.Clients[0]
	e := cl.NewElement([]byte("once"))
	s.After(time.Second, func() { _ = d.Servers[0].Add(e) })
	runQuiesce(s, d, 20*time.Second)
	d.Stop()
	snap := d.Servers[0].Get()
	epoch, err := cl.VerifyCommitted(snap, e.ID)
	if err != nil {
		t.Fatalf("VerifyCommitted: %v", err)
	}
	ep := *snap.History[epoch-1]
	ep.Proofs = slices.Repeat(ep.Proofs[:1], d.Opts.F+1)
	repeated := snap
	repeated.History = slices.Clone(snap.History)
	repeated.History[epoch-1] = &ep
	if got := cl.CountValidProofs(&ep); got != 1 {
		t.Fatalf("one proof listed %d times counts %d, want 1", d.Opts.F+1, got)
	}
	if _, err := cl.VerifyCommitted(repeated, e.ID); !errors.Is(err, core.ErrInsufficientProofs) {
		t.Fatalf("one proof listed %d times: VerifyCommitted = %v, want ErrInsufficientProofs", d.Opts.F+1, err)
	}
}

func TestInvalidAndDuplicateAdds(t *testing.T) {
	s, d := deployFull(7, 4, core.Options{Algorithm: core.Vanilla})
	cl := d.Clients[0]
	good := cl.NewElement([]byte("ok"))
	s.After(0, func() {
		if err := d.Servers[0].Add(good); err != nil {
			t.Errorf("valid add failed: %v", err)
		}
		if err := d.Servers[0].Add(good); err != core.ErrDuplicate {
			t.Errorf("duplicate add: err = %v, want ErrDuplicate", err)
		}
		bad := cl.NewElement([]byte("tampered"))
		bad.Payload = []byte("evil") // breaks the signature
		if err := d.Servers[0].Add(bad); err != core.ErrInvalidElement {
			t.Errorf("invalid add: err = %v, want ErrInvalidElement", err)
		}
	})
	s.RunUntil(time.Second)
	d.Stop()
}

func TestByzantineBogusElementsFiltered(t *testing.T) {
	// A Byzantine server injects invalid elements into its batches; correct
	// servers must filter them during FinalizeBlock (paper §3).
	for _, alg := range []core.Algorithm{core.Compresschain, core.Hashchain} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			s, d := deployFull(8, 4, core.Options{Algorithm: alg, CollectorLimit: 10})
			d.Servers[3].SetBehavior(&core.Behavior{InjectBogusElements: 3})
			ids := addElements(s, d, 40)
			runQuiesce(s, d, 30*time.Second)
			d.Stop()
			// Correct servers' epochs contain only known valid elements.
			known := make(map[wire.ElementID]bool)
			for _, id := range ids {
				known[id] = true
			}
			for si := 0; si < 3; si++ {
				snap := d.Servers[si].Get()
				for _, ep := range snap.History {
					for _, e := range ep.Elements {
						if !known[e.ID] {
							t.Fatalf("server %d epoch %d contains Byzantine junk %v",
								si, ep.Number, e.ID)
						}
					}
				}
			}
		})
	}
}

func TestHashchainByzantineRefusesToServe(t *testing.T) {
	// The Byzantine origin never serves its batches: they gather only one
	// signature and never consolidate. Correct servers' elements are
	// unaffected.
	s, d := deployFull(9, 4, core.Options{Algorithm: core.Hashchain, CollectorLimit: 10})
	d.Servers[3].SetBehavior(&core.Behavior{
		RefuseServe:         func(int, []byte) bool { return true },
		InjectBogusElements: 2, // it also creates its own junk batches
	})
	var ids []wire.ElementID
	for i := 0; i < 30; i++ {
		i := i
		cl := d.Clients[i%3]
		e := cl.NewElement([]byte(fmt.Sprintf("v-%d", i)))
		ids = append(ids, e.ID)
		s.After(time.Duration(i)*100*time.Millisecond, func() {
			_ = d.Servers[i%3].Add(e) // only correct servers
		})
	}
	runQuiesce(s, d, 40*time.Second)
	d.Stop()
	checkProperties(t, d, ids, false)
	// All correct-server elements still reached epochs everywhere correct.
	for si := 0; si < 3; si++ {
		snap := d.Servers[si].Get()
		inHist := make(map[wire.ElementID]bool)
		for _, ep := range snap.History {
			for _, e := range ep.Elements {
				inHist[e.ID] = true
			}
		}
		for _, id := range ids {
			if !inHist[id] {
				t.Fatalf("server %d: element %v lost to Byzantine refusal", si, id)
			}
		}
	}
}

func TestHashchainSelectiveServingKeepsEpochsConsistent(t *testing.T) {
	// The Byzantine origin serves only server 1. Server 1 co-signs, pushing
	// the hash to f+1 signatures; servers 0 and 2 must then recover the
	// batch via retries (from server 1) to consolidate at the same ledger
	// position — the ordering subtlety DESIGN.md documents.
	s, d := deployFull(10, 4, core.Options{
		Algorithm:      core.Hashchain,
		CollectorLimit: 5,
		RequestTimeout: 500 * time.Millisecond,
		RetryBackoff:   200 * time.Millisecond,
	})
	d.Servers[3].SetBehavior(&core.Behavior{
		RefuseServe: func(to int, _ []byte) bool { return to != 1 },
	})
	var ids []wire.ElementID
	// Elements injected at the Byzantine server's clients still flow
	// through its (honestly built) batches.
	for i := 0; i < 20; i++ {
		i := i
		cl := d.Clients[i%4]
		e := cl.NewElement([]byte(fmt.Sprintf("sel-%d", i)))
		ids = append(ids, e.ID)
		s.After(time.Duration(i)*100*time.Millisecond, func() {
			_ = d.Servers[i%4].Add(e)
		})
	}
	runQuiesce(s, d, 60*time.Second)
	d.Stop()
	checkProperties(t, d, ids, false)
	// Every element — including those batched by the selective server —
	// reaches every correct server's history, in identical epochs.
	for si := 0; si < 3; si++ {
		snap := d.Servers[si].Get()
		inHist := make(map[wire.ElementID]bool)
		for _, ep := range snap.History {
			for _, e := range ep.Elements {
				inHist[e.ID] = true
			}
		}
		for _, id := range ids {
			if !inHist[id] {
				t.Fatalf("server %d missing element %v after selective serving", si, id)
			}
		}
	}
	stalls := uint64(0)
	for si := 0; si < 3; si++ {
		stalls += d.Servers[si].HashchainStats().StallRetries
	}
	if stalls == 0 {
		t.Log("note: recovery succeeded without stall retries (prefetch window)")
	}
}

func TestByzantineCorruptProofsRejected(t *testing.T) {
	s, d := deployFull(11, 4, core.Options{Algorithm: core.Compresschain, CollectorLimit: 10})
	d.Servers[3].SetBehavior(&core.Behavior{CorruptProofs: true})
	ids := addElements(s, d, 20)
	runQuiesce(s, d, 30*time.Second)
	d.Stop()
	checkProperties(t, d, ids, false)
	cl := d.Clients[0]
	snap := d.Servers[0].Get()
	for _, ep := range snap.History {
		// Correct servers alone still produce >= f+1 valid proofs, and the
		// corrupt server's proofs never verify.
		valid := cl.CountValidProofs(ep)
		if valid < d.Opts.F+1 {
			t.Fatalf("epoch %d: %d valid proofs despite 3 correct servers", ep.Number, valid)
		}
		for _, p := range ep.Proofs {
			// If present at all it must have failed verification...
			if p.Signer == 3 && wire.VerifyEpochProof(d.Ledger.Suite, d.Ledger.Registry, p, ep.Hash) {
				t.Fatalf("corrupt proof from server 3 verified for epoch %d", ep.Number)
			}
		}
	}
}

func TestHashchainWrongBatchRejected(t *testing.T) {
	// A Byzantine server responds to Request_batch with a batch whose hash
	// does not match; requesters must reject it and recover elsewhere.
	s, d := deployFull(12, 4, core.Options{Algorithm: core.Hashchain, CollectorLimit: 5,
		RequestTimeout: 500 * time.Millisecond})
	d.Servers[3].SetBehavior(&core.Behavior{ServeWrongBatch: true})
	ids := addElements(s, d, 20)
	runQuiesce(s, d, 40*time.Second)
	d.Stop()
	checkProperties(t, d, ids, false)
	known := make(map[wire.ElementID]bool)
	for _, id := range ids {
		known[id] = true
	}
	for si := 0; si < 3; si++ {
		snap := d.Servers[si].Get()
		for id := range snap.TheSet.All() {
			if !known[id] {
				t.Fatalf("server %d accepted element from a hash-mismatched batch", si)
			}
		}
	}
}

func TestDeterministicDeployment(t *testing.T) {
	run := func() (uint64, int) {
		s, d := deployFull(42, 4, core.Options{Algorithm: core.Hashchain, CollectorLimit: 10})
		addElements(s, d, 30)
		runQuiesce(s, d, 20*time.Second)
		d.Stop()
		snap := d.Servers[0].Get()
		return s.Executed(), len(snap.History)
	}
	e1, h1 := run()
	e2, h2 := run()
	if e1 != e2 || h1 != h2 {
		t.Fatalf("nondeterministic: events %d/%d epochs %d/%d", e1, e2, h1, h2)
	}
}

// The observer's recorder commits an epoch exactly when its server accepts
// the epoch's f+1-th valid proof: acceptProof decides the rule and reports
// once. With only f servers signing valid proofs nothing commits, with f+1
// everything does, and at every sample the epochs the recorder booked are
// those the server holds f+1 proofs for.
func TestRecorderCommitsWhatServerSettles(t *testing.T) {
	const n = 4
	for _, valid := range []int{1, 2} { // signers of valid epoch-proofs; f = 1
		s := sim.New(5)
		opts := core.Options{Algorithm: core.Hashchain, Mode: core.Full, CollectorLimit: 5, F: (n - 1) / 2}
		rec := metrics.New(s, metrics.LevelThroughput, n, opts.F, 0)
		lcfg := ledger.PaperConfig()
		lcfg.Suite = setcrypto.Ed25519Suite{}
		d := core.Deploy(s, n, lcfg, opts, rec)
		for i := valid; i < n; i++ {
			d.Servers[i].SetBehavior(&core.Behavior{CorruptProofs: true})
		}
		d.Start()
		addElements(s, d, 40)
		for at := 100 * time.Millisecond; at <= 10*time.Second; at += 100 * time.Millisecond {
			s.RunUntil(at)
			snap := d.Servers[0].Get()
			booked := rec.CommittedEpochSizes()
			var committed uint64
			for _, ep := range snap.History {
				proofs := len(ep.Proofs)
				if _, ok := booked[ep.Number]; ok != (proofs >= opts.F+1) {
					t.Fatalf("%d valid signers, t=%v epoch %d: %d proofs at the server, booked by the recorder: %v",
						valid, at, ep.Number, proofs, ok)
				}
				if proofs >= opts.F+1 {
					committed += uint64(len(ep.Elements))
				}
			}
			if rec.TotalCommitted() != committed {
				t.Fatalf("%d valid signers, t=%v: recorder committed %d elements, the server's settled epochs hold %d",
					valid, at, rec.TotalCommitted(), committed)
			}
		}
		want := uint64(0)
		if valid >= opts.F+1 {
			want = 40
		}
		if got := rec.TotalCommitted(); got != want || d.Servers[0].Get().Epoch == 0 {
			t.Fatalf("%d valid signers: %d committed in %d epochs, want %d",
				valid, got, d.Servers[0].Get().Epoch, want)
		}
	}
}
