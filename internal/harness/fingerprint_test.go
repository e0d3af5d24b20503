package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/spec"
)

// encodingCase is one line of testdata/fingerprint_encoding.jsonl: a named
// Result and the exact bytes Fingerprint made of it.
type encodingCase struct {
	Case        string
	Fingerprint json.RawMessage
}

// TestFingerprintEncoding pins Fingerprint's byte format itself, not a hash
// of it: every field, its name, its order, its nesting, and whether a nil
// or an empty list encodes as null or []. TestGoldenFingerprints and the
// benchmark's digests hash these bytes, so a refactor of the types a run is
// configured with must leave this test green to leave them green. A change
// meant to alter the format re-records this file (`-update`), the golden
// digests and the benchmark baseline together.
func TestFingerprintEncoding(t *testing.T) {
	cases := []struct {
		name string
		res  *Result
	}{
		{"every-field", everyFieldResult(t)},
		{"fault-plan", &Result{Scenario: fromSpec(t, faultPlanSpec())}},
		{"minimal-spec", &Result{Scenario: fromSpec(t, spec.ScenarioSpec{Algorithm: spec.AlgVanilla, Rate: 100})}},
		{"empty-spec-lists", &Result{Scenario: fromSpec(t, spec.ScenarioSpec{
			Algorithm: spec.AlgHashchain, Rate: 100,
			Open:      &spec.OpenSpec{Envelope: []spec.RatePhaseSpec{}},
			Byzantine: &spec.ByzantineSpec{Behaviors: []string{}},
			Faults:    &spec.FaultSpec{Events: []spec.FaultEventSpec{}}})}},
		{"hand-built", &Result{Scenario: Scenario{
			Spec:         AlgSpec{Alg: core.Hashchain, Collector: 100},
			Servers:      4,
			NetworkDelay: 30 * time.Millisecond,
			Seed:         9,
			Mode:         core.Full,
		}}},
		{"empty-lists", emptyListsResult()},
		{"zero", &Result{}},
	}

	path := filepath.Join("testdata", "fingerprint_encoding.jsonl")
	if *update {
		var buf bytes.Buffer
		for _, c := range cases {
			line, err := json.Marshal(encodingCase{c.name, Fingerprint(c.res)})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	defer f.Close()
	want := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var c encodingCase
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		want[c.Case] = c.Fingerprint
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("%s holds %d cases, the test builds %d", path, len(want), len(cases))
	}
	for _, c := range cases {
		if got := Fingerprint(c.res); !bytes.Equal(got, want[c.name]) {
			t.Errorf("%s: fingerprint bytes changed\n got: %s\nwant: %s", c.name, got, want[c.name])
		}
	}
}

// everyFieldResult sets every Scenario and Result field to a value of its
// own, including every field of every nested block, and the fields
// Fingerprint leaves out.
func everyFieldResult(t *testing.T) *Result {
	sc := fromSpec(t, spec.ScenarioSpec{
		Name: "every field", Algorithm: spec.AlgCompresschain, Collector: 250, Light: true,
		Servers: 7, Shards: 2, Transport: spec.TransportMesh, Fanout: 5,
		Rate: 1234.5, SendFor: spec.Duration(9 * time.Second), Horizon: spec.Duration(31 * time.Second),
		NetworkDelay: spec.Duration(30 * time.Millisecond), Bandwidth: 1e8, Seed: 42, Scale: 0.5,
		Crypto: spec.CryptoFull,
		Workload: &spec.WorkloadSpec{SizeMean: 300, SizeStdDev: 50.5, SizeMin: 64, SizeMax: 2048,
			Tick: spec.Duration(20 * time.Millisecond)},
		Open: &spec.OpenSpec{Zipf: 1.2, ChurnOn: spec.Duration(3 * time.Second),
			ChurnOff: spec.Duration(2 * time.Second), Envelope: []spec.RatePhaseSpec{
				{From: 0, Mult: 1}, {From: spec.Duration(4 * time.Second), Mult: 2.5}}},
		Admission: &spec.AdmissionSpec{Policy: spec.AdmissionDelay, Watermark: 0.8, MaxTxs: 500,
			MaxBytes: 1 << 20, MaxDelay: spec.Duration(2 * time.Second), MaxDeferred: 64},
		Byzantine: &spec.ByzantineSpec{Faulty: 2,
			Behaviors: []string{spec.BehaviorInjectInvalid, spec.BehaviorCorruptProofs}, InjectCount: 4},
		Faults: &spec.FaultSpec{Events: []spec.FaultEventSpec{
			{At: spec.Duration(time.Second), Action: spec.FaultCrash, Nodes: []int{6, 13}}}},
		CheckpointInterval: 3, Prune: true, HeapCeilingMB: 64, SyncChunkBytes: 4096,
	})
	sc.Level = metrics.LevelStages // a spec asks for it with one shard only
	sc.IntraWorkers = 3            // ignored by every run, so encoded as 0
	return &Result{
		Scenario: sc, Injected: 1000, Committed: 900,
		Eff50: 0.25, Eff75: 0.5, Eff100: 0.875, AvgTput: 123.25,
		Series:     []metrics.SeriesPoint{{Time: time.Second, Rate: 10.5}, {Time: 2 * time.Second, Rate: 11}},
		CommitFrac: map[int]time.Duration{0: time.Millisecond, 10: time.Second, 50: 3 * time.Second},
		Analytical: 955.5, Blocks: 17, Events: 123456,
		CheckpointSeals: 2, SyncInstalls: 3, SyncRejected: 4, CkptDigest: 0xdeadbeef,
		PerShard: []shard.Stats{
			{Shard: 0, Injected: 500, Committed: 450, AvgTput: 61.5, Epochs: 8, Blocks: 9},
			{Shard: 1, Injected: 500, Committed: 450, AvgTput: 61.75, Epochs: 7, Blocks: 8}},
		SuperDigests: []uint64{1, 2, 3},
		NetMsgs:      777, NetBytes: 88888,
		Gossip: netsim.MeshStats{Originated: 1, Delivered: 2, Relayed: 3, DedupDrops: 4,
			QueueDrops: 5, Expired: 6},
		Offered: 1100, Rejected: 100, Fairness: 0.75, DeferredTxs: 11, ExpiredTxs: 12,
		Invariant: errors.New("a violation"),
		// Host-dependent, so left out of the fingerprint.
		HeapLiveMB: 12.5, HeapViolation: true,
	}
}

// faultPlanSpec schedules all five fault actions; one link event sets all
// five link fields and scopes both sides, the other scopes neither.
func faultPlanSpec() spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Algorithm: spec.AlgHashchain, Servers: 5, Rate: 100,
		Faults: &spec.FaultSpec{Events: []spec.FaultEventSpec{
			{At: spec.Duration(time.Second), Action: spec.FaultCrash, Nodes: []int{3, 4}},
			{At: spec.Duration(2 * time.Second), Action: spec.FaultRestart, Nodes: []int{3}},
			{At: spec.Duration(3 * time.Second), Action: spec.FaultPartition, Groups: [][]int{{0, 1}, {2, 3, 4}}},
			{At: spec.Duration(4 * time.Second), Action: spec.FaultHeal},
			{At: spec.Duration(5 * time.Second), Action: spec.FaultLink, From: []int{0, 1}, To: []int{2},
				Drop: 0.1, Duplicate: 0.2, Reorder: 0.3,
				ReorderDelay: spec.Duration(7 * time.Millisecond), Delay: spec.Duration(40 * time.Millisecond)},
			{At: spec.Duration(6 * time.Second), Action: spec.FaultLink, Drop: 0.05},
		}},
	}
}

// emptyListsResult holds an empty, not nil, list wherever the encoding
// tells the two apart.
func emptyListsResult() *Result {
	res := &Result{
		Series:       []metrics.SeriesPoint{},
		CommitFrac:   map[int]time.Duration{},
		PerShard:     []shard.Stats{},
		SuperDigests: []uint64{},
	}
	res.Scenario.Open.Envelope = emptyOf(res.Scenario.Open.Envelope)
	res.Scenario.Faults.Events = emptyOf(res.Scenario.Faults.Events)
	return res
}

// emptyOf returns an empty, non-nil slice of s's type.
func emptyOf[S ~[]E, E any](S) S { return S{} }
