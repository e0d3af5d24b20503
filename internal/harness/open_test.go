package harness

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/mempool"
	"repro/internal/spec"
)

// The open-system battery (DESIGN.md §14). The registry's open_* cells run
// below the saturation knee at the reduced CI scale (their knee lives at
// paper scale, pinned by RESULTS.md refs), so the rejection-path tests
// here build their own saturating scenarios: full rate, short window,
// tight pool cap — CI-sized but decisively past the watermark.

// saturatingSpec offers ~3.2x the Compresschain c=100 ceiling against a
// 400-tx pool, so the admission gate MUST reject a large fraction.
func saturatingSpec() spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Name: "open-saturate", Algorithm: spec.AlgCompresschain, Servers: 4, Rate: 8000,
		SendFor: spec.Duration(10 * time.Second), Horizon: spec.Duration(40 * time.Second),
		Admission: &spec.AdmissionSpec{Policy: spec.AdmissionReject, MaxTxs: 400},
	}
}

func TestAdmissionRejectsUnderSaturation(t *testing.T) {
	res := Run(fromSpec(t, saturatingSpec()))
	if res.Rejected == 0 {
		t.Fatal("saturating run rejected nothing — the admission gate never closed")
	}
	if res.Offered != res.Injected+res.Rejected {
		t.Fatalf("offered %d != injected %d + rejected %d",
			res.Offered, res.Injected, res.Rejected)
	}
	if res.Invariant != nil {
		t.Fatalf("safety violated under admission control: %v", res.Invariant)
	}
	if res.Committed != res.Injected {
		t.Fatalf("committed %d of %d admitted — admitted elements may not be lost",
			res.Committed, res.Injected)
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Fatalf("fairness = %g outside (0, 1]", res.Fairness)
	}
}

// TestBreakAdmissionForTest proves the rejection assertions non-vacuous:
// with the gate sabotaged the same scenario must reject NOTHING and
// produce a different fingerprint — so a silently broken gate cannot pass
// TestAdmissionRejectsUnderSaturation, and a fingerprint comparison
// would notice the behavioral change.
func TestBreakAdmissionForTest(t *testing.T) {
	intact := Run(fromSpec(t, saturatingSpec()))
	mempool.BreakAdmissionForTest = true
	broken := Run(fromSpec(t, saturatingSpec()))
	mempool.BreakAdmissionForTest = false
	if intact.Rejected == 0 {
		t.Fatal("intact gate rejected nothing")
	}
	if broken.Rejected != 0 {
		t.Fatalf("sabotaged gate still rejected %d elements", broken.Rejected)
	}
	if bytes.Equal(Fingerprint(intact), Fingerprint(broken)) {
		t.Fatal("sabotaged run fingerprints identical to the intact run")
	}
}

// TestShardedAdmissionRejects pins that admission rejections reach the
// shared Account when the router sends an element to another shard's
// server, so Result.Rejected counts them at any shard count.
func TestShardedAdmissionRejects(t *testing.T) {
	sp := saturatingSpec()
	sp.Name = "open-saturate-sharded"
	sp.Shards = 2
	sp.Rate = 16000 // keep each shard's 8,000 el/s share past its knee
	res := Run(fromSpec(t, sp))
	if res.Rejected == 0 {
		t.Fatal("sharded saturating run rejected nothing — routed adds drop rejections")
	}
	if res.Offered != res.Injected+res.Rejected {
		t.Fatalf("offered %d != injected %d + rejected %d",
			res.Offered, res.Injected, res.Rejected)
	}
	if res.Invariant != nil {
		t.Fatalf("safety violated: %v", res.Invariant)
	}
}

// TestDelayPolicyDefersInRun drives the delay policy end to end: a burst
// against a tight pool parks transactions in the deferred queue, commits
// drain them, and everything still commits by the horizon.
func TestDelayPolicyDefersInRun(t *testing.T) {
	res := Run(fromSpec(t, spec.ScenarioSpec{
		Name: "open-delay", Algorithm: spec.AlgHashchain, Servers: 4, Rate: 3000,
		SendFor: spec.Duration(10 * time.Second), Horizon: spec.Duration(40 * time.Second),
		Admission: &spec.AdmissionSpec{Policy: spec.AdmissionDelay, MaxTxs: 12},
	}))
	if res.DeferredTxs == 0 {
		t.Fatal("no transactions deferred — the delay policy never engaged")
	}
	if res.Invariant != nil {
		t.Fatalf("safety violated under the delay policy: %v", res.Invariant)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
}

// TestOpenScenarioDeterminism pins the tentpole's determinism claim: an
// open-system run — churn timers, zipf draws, envelope phases, admission
// rejections — is a pure function of the Scenario, fingerprint-identical
// across fresh runs.
func TestOpenScenarioDeterminism(t *testing.T) {
	sp := saturatingSpec()
	// Churn and the half-rate opening phase thin the offered load, so a
	// tighter cap keeps the burst phase decisively past the watermark.
	sp.Admission.MaxTxs = 100
	sp.Open = &spec.OpenSpec{
		Zipf:    1.1,
		ChurnOn: spec.Duration(3 * time.Second), ChurnOff: spec.Duration(2 * time.Second),
		Envelope: []spec.RatePhaseSpec{
			{From: 0, Mult: 0.5}, {From: spec.Duration(5 * time.Second), Mult: 2},
		},
	}
	sc := fromSpec(t, sp)
	a, b := Run(sc), Run(sc)
	if a.Offered == 0 || a.Rejected == 0 {
		t.Fatalf("open run offered %d / rejected %d — dynamics not engaged", a.Offered, a.Rejected)
	}
	if !bytes.Equal(Fingerprint(a), Fingerprint(b)) {
		t.Fatal("two fresh open-system runs differ")
	}
}

// The open_* registry entries run end to end at the reduced scale with
// safety holding and everything the gate admitted committing.
func TestOpenRegistryEntries(t *testing.T) {
	for _, entry := range []string{"open_ramp", "open_skew", "open_churn"} {
		scs, err := EntryScenarios(entry, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range RunMany(scs) {
			if res.Invariant != nil {
				t.Errorf("%s %s: safety violated: %v", entry, res.Scenario.Name, res.Invariant)
			}
			if res.Committed == 0 {
				t.Errorf("%s %s: committed nothing", entry, res.Scenario.Name)
			}
			if res.Offered != res.Injected+res.Rejected {
				t.Errorf("%s %s: offered %d != injected %d + rejected %d",
					entry, res.Scenario.Name, res.Offered, res.Injected, res.Rejected)
			}
		}
	}
}
