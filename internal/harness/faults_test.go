package harness

import (
	"testing"
	"time"

	"repro/internal/spec"
)

// faultSpecCells builds a small scenario document that exercises every
// fault mechanism: crash/restart, partition/heal, and lossy links.
func faultSpecCells(t *testing.T) []spec.ScenarioSpec {
	t.Helper()
	base := func(name string, fs *spec.FaultSpec) spec.ScenarioSpec {
		return spec.ScenarioSpec{
			Name: name, Algorithm: spec.AlgHashchain, Collector: 100,
			Servers: 4, Rate: 400,
			SendFor: spec.Duration(8 * time.Second),
			Horizon: spec.Duration(40 * time.Second),
			Seed:    7,
			Faults:  fs,
		}
	}
	return []spec.ScenarioSpec{
		base("crash-restart", &spec.FaultSpec{Events: []spec.FaultEventSpec{
			{At: spec.Duration(2 * time.Second), Action: spec.FaultCrash, Nodes: []int{3}},
			{At: spec.Duration(5 * time.Second), Action: spec.FaultRestart, Nodes: []int{3}},
		}}),
		base("partition-heal", &spec.FaultSpec{Events: []spec.FaultEventSpec{
			{At: spec.Duration(2 * time.Second), Action: spec.FaultPartition,
				Groups: [][]int{{0, 1, 2}, {3}}},
			{At: spec.Duration(6 * time.Second), Action: spec.FaultHeal},
		}}),
		base("lossy-links", &spec.FaultSpec{Events: []spec.FaultEventSpec{
			{Action: spec.FaultLink, Drop: 0.05, Duplicate: 0.02, Reorder: 0.3,
				ReorderDelay: spec.Duration(15 * time.Millisecond)},
		}}),
	}
}

// Same seed + same FaultSpec ⇒ byte-identical metrics, sequentially and on
// any worker count: fault injection must not cost the executor its
// determinism guarantee (the fault-scenario extension of
// TestRunManyMatchesSequential).
func TestFaultScenarioDeterminism(t *testing.T) {
	scs, err := FromSpecs(faultSpecCells(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	sequential := make([][]byte, len(scs))
	for i, sc := range scs {
		res := Run(sc)
		if res.Invariant != nil {
			t.Fatalf("cell %d (%s) violates safety invariants: %v",
				i, sc.Name, res.Invariant)
		}
		if res.Committed == 0 {
			t.Fatalf("cell %d (%s) committed nothing", i, sc.Name)
		}
		sequential[i] = resultFingerprint(t, res)
	}
	for i, res := range runMany(scs, 4) {
		if got := resultFingerprint(t, res); string(got) != string(sequential[i]) {
			t.Fatalf("workers=4: fault cell %d (%s) diverges from sequential run\nseq: %s\npar: %s",
				i, scs[i].Name, sequential[i], got)
		}
	}
}

// Every Byzantine behavior preset, run with f faulty of 3f+1 servers, must
// leave the correct servers' state satisfying every safety invariant —
// and the system must actually commit (the check cannot pass vacuously).
func TestByzantinePresetsSatisfyInvariants(t *testing.T) {
	behaviors := append(append([]string(nil), spec.Behaviors...), "all-combined")
	for _, name := range behaviors {
		name := name
		t.Run(name, func(t *testing.T) {
			byz := &spec.ByzantineSpec{Faulty: 1, Behaviors: []string{name}}
			if name == "all-combined" {
				byz.Behaviors = append([]string(nil), spec.Behaviors...)
			}
			res := Run(fromSpec(t, spec.ScenarioSpec{
				Algorithm: spec.AlgHashchain, Servers: 4, Rate: 400,
				SendFor: spec.Duration(8 * time.Second), Horizon: spec.Duration(40 * time.Second),
				Byzantine: byz,
			}))
			if res.Invariant != nil {
				t.Fatalf("invariants violated with behavior %q: %v", name, res.Invariant)
			}
			if res.Committed == 0 {
				t.Fatalf("behavior %q: nothing committed — invariant pass is vacuous", name)
			}
		})
	}
}

// Light removes the cost of validation, not the check: with an
// inject-invalid server, neither Light algorithm commits a bogus element.
func TestLightDropsInvalidElements(t *testing.T) {
	for _, alg := range []string{spec.AlgHashchain, spec.AlgCompresschain} {
		res := Run(fromSpec(t, spec.ScenarioSpec{
			Algorithm: alg, Light: true, Servers: 4, Rate: 500,
			SendFor: spec.Duration(10 * time.Second), Horizon: spec.Duration(40 * time.Second),
			Byzantine: &spec.ByzantineSpec{Faulty: 1, Behaviors: []string{spec.BehaviorInjectInvalid}},
		}))
		if res.Invariant != nil {
			t.Fatalf("%s Light with an inject-invalid server: %v", alg, res.Invariant)
		}
		if res.Committed == 0 {
			t.Fatalf("%s Light committed nothing", alg)
		}
	}
}

// The chaos_* registry entries run end to end at reduced scale, commit,
// and hold every invariant.
func TestChaosRegistryEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos entries simulate long horizons; skipped under -short")
	}
	for _, entry := range []string{"chaos_crash", "chaos_partition", "chaos_majority", "chaos_lossy"} {
		entry := entry
		t.Run(entry, func(t *testing.T) {
			scs, err := EntryScenarios(entry, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range runShared(t, scs) {
				if res.Invariant != nil {
					t.Fatalf("%s violates safety invariants: %v", entry, res.Invariant)
				}
				if res.Committed == 0 {
					t.Fatalf("%s committed nothing", entry)
				}
			}
		})
	}
}

// Composition regression: a Byzantine-silent server that a fault plan
// also crashes and restarts must stay silent — the plan's restart retracts
// only the plan's own crash. With the old single-flag SetDown, the restart
// would revive the server and the run would commit measurably more.
func TestSilentByzantineSurvivesPlanRestart(t *testing.T) {
	sp := spec.ScenarioSpec{
		Algorithm: spec.AlgHashchain, Servers: 7, Rate: 280,
		SendFor: spec.Duration(8 * time.Second), Horizon: spec.Duration(40 * time.Second),
		Byzantine: &spec.ByzantineSpec{Faulty: 1, Behaviors: []string{spec.BehaviorSilent}},
	}
	silentOnly := Run(fromSpec(t, sp))

	sp.Faults = &spec.FaultSpec{Events: []spec.FaultEventSpec{
		{At: spec.Duration(2 * time.Second), Action: spec.FaultCrash, Nodes: []int{6}},
		{At: spec.Duration(4 * time.Second), Action: spec.FaultRestart, Nodes: []int{6}},
	}}
	withPlanRes := Run(fromSpec(t, sp))

	// The plan's crash+restart of an already-silent server is a no-op on
	// message flow: injection and commitment must match the silent-only
	// run exactly (only the two plan events themselves differ).
	if silentOnly.Injected != withPlanRes.Injected || silentOnly.Committed != withPlanRes.Committed {
		t.Fatalf("plan restart changed a Byzantine-silent run: injected %d vs %d, committed %d vs %d",
			silentOnly.Injected, withPlanRes.Injected,
			silentOnly.Committed, withPlanRes.Committed)
	}
	if withPlanRes.Invariant != nil {
		t.Fatalf("composition run violates invariants: %v", withPlanRes.Invariant)
	}
}

// FromSpec maps the declarative fault schedule onto the executable plan.
func TestFromSpecMapsFaults(t *testing.T) {
	sp := faultSpecCells(t)[1] // partition-heal
	sc, err := FromSpec(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults.Events) != 2 {
		t.Fatalf("plan has %d events, want 2", len(sc.Faults.Events))
	}
	part := sc.Faults.Events[0]
	if part.At != 2*time.Second || string(part.Kind) != spec.FaultPartition ||
		len(part.Groups) != 2 || len(part.Groups[0]) != 3 {
		t.Fatalf("partition event mapped wrong: %+v", part)
	}

	// Link fields map onto netsim.LinkFault, with the reorder-delay
	// default filled by WithDefaults.
	lossy, err := FromSpec(faultSpecCells(t)[2])
	if err != nil {
		t.Fatal(err)
	}
	lf := lossy.Faults.Events[0].Fault
	if lf.Drop != 0.05 || lf.Duplicate != 0.02 || lf.Reorder != 0.3 ||
		lf.ReorderDelay != 15*time.Millisecond {
		t.Fatalf("link fault mapped wrong: %+v", lf)
	}
}
