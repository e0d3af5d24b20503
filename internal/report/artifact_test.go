package report

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/spec"
)

func sampleArtifact() *Artifact {
	return &Artifact{
		SchemaVersion: SchemaVersion,
		Provenance: Provenance{
			Tool: "setchain-bench", Git: "abc1234", GoVersion: "go1.24",
			GOOS: "linux", GOARCH: "amd64", CPUs: 8, Workers: 8,
			Scale: 1, Seed: 1, Mode: "modeled",
		},
		Experiments: []ExperimentRecord{{
			Name:        "fig4",
			WallSeconds: 1.25,
			Cells: []CellRecord{{
				Index: 0,
				Label: "Hashchain c=100",
				Spec: spec.ScenarioSpec{
					Algorithm: spec.AlgHashchain, Rate: 1250,
				}.WithDefaults(),
				Measurements: map[string]float64{
					spec.MetricAvgTput: 1244.98, spec.MetricEff2x: 1,
				},
				Invariant: "ok",
				Series:    []SeriesPoint{{T: 1, Rate: 0}, {T: 2, Rate: 310.5}},
			}},
		}},
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	a := sampleArtifact()
	blob, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatalf("round trip changed the artifact:\n got %+v\nwant %+v", back, a)
	}
	// Encoding must be stable: a second encode of the decoded value is
	// byte-identical (JSON object keys marshal sorted).
	blob2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("re-encoding a decoded artifact changed the bytes")
	}
}

// A reader must tolerate fields it does not know — a newer writer of the
// same schema generation may have added optional ones — while refusing
// an unknown generation outright.
func TestArtifactForwardCompat(t *testing.T) {
	blob := []byte(`{
		"schema_version": 1,
		"provenance": {"tool": "future-bench", "mode": "modeled", "scale": 1,
			"hyperthreads": 96, "cgroup": "v2"},
		"experiments": [{
			"name": "fig4",
			"novel_summary": {"a": 1},
			"cells": [{
				"index": 0, "label": "Hashchain c=100",
				"spec": {"algorithm": "hashchain", "rate": 1250},
				"measurements": {"avg_tput": 1244, "novel_metric": 7},
				"invariant": "ok",
				"flame_graph": "zzz"
			}]
		}]
	}`)
	a, err := Decode(blob)
	if err != nil {
		t.Fatalf("unknown fields must decode: %v", err)
	}
	if got := a.Experiments[0].Cells[0].Measurements["avg_tput"]; got != 1244 {
		t.Fatalf("avg_tput = %g, want 1244", got)
	}
	if n := a.CellCount(); n != 1 {
		t.Fatalf("CellCount = %d, want 1", n)
	}

	if _, err := Decode([]byte(`{"schema_version": 99}`)); err == nil ||
		!strings.Contains(err.Error(), "schema version") {
		t.Fatalf("future schema generation must be refused, got %v", err)
	}
	if _, err := Decode([]byte(`{"experiments": []}`)); err == nil {
		t.Fatal("missing schema version must be refused")
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Fatal("garbage must be refused")
	}

	// The writer side is version-honest too: re-encoding data labeled
	// with another generation must fail rather than re-stamp it.
	stale := sampleArtifact()
	stale.SchemaVersion = SchemaVersion + 1
	if _, err := stale.Encode(); err == nil ||
		!strings.Contains(err.Error(), "migrate") {
		t.Fatalf("encoding a foreign schema generation must fail, got %v", err)
	}
}

func TestArtifactViolations(t *testing.T) {
	a := sampleArtifact()
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("clean artifact reports violations: %v", v)
	}
	a.Experiments[0].Cells[0].Invariant = "epoch 3 mismatch"
	want := []string{"fig4/Hashchain c=100"}
	if v := a.Violations(); !reflect.DeepEqual(v, want) {
		t.Fatalf("Violations = %v, want %v", v, want)
	}
}

func TestCellsSeedMode(t *testing.T) {
	exps := sampleArtifact().Experiments
	seed, mode := CellsSeedMode(exps)
	if seed != 1 || mode != spec.CryptoModeled {
		t.Fatalf("CellsSeedMode = (%d, %q), want (1, modeled)", seed, mode)
	}
	full := spec.ScenarioSpec{Algorithm: spec.AlgVanilla, Rate: 10, Seed: 7,
		Crypto: spec.CryptoFull}.WithDefaults()
	exps = append(exps, ExperimentRecord{Name: "custom", Cells: []CellRecord{{
		Spec: full, Measurements: map[string]float64{}, Invariant: "ok",
	}}})
	seed, mode = CellsSeedMode(exps)
	if seed != 0 || mode != "mixed" {
		t.Fatalf("CellsSeedMode = (%d, %q), want (0, mixed) for differing seeds and crypto", seed, mode)
	}
}
