package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/spec"
)

var update = flag.Bool("update", false, "rewrite testdata/fingerprints.json from this build")

// goldenScale keeps the whole catalog's first cells to a few seconds while
// every one of them still commits elements.
const goldenScale = 0.1

// TestGoldenFingerprints pins cross-commit byte-identity: the SHA-256 of
// Fingerprint(Run(cell 0)) of every simulated registry entry must equal the
// digest recorded in testdata/fingerprints.json. The determinism tests
// compare a build against itself; this compares it against the build that
// wrote the file, so an executor refactor that moves any element id, epoch
// hash, event count or metric float fails here. Regenerate with
// `go test ./internal/harness -run TestGoldenFingerprints -update` only for
// a change that is meant to alter results, and say so in CHANGES.md.
func TestGoldenFingerprints(t *testing.T) {
	var names []string
	var scs []Scenario
	for _, e := range spec.All() {
		if len(e.Cells) == 0 {
			continue
		}
		sc, err := FromSpecScaled(e.Cells[0], goldenScale)
		if err != nil {
			t.Fatalf("%s cell 0: %v", e.Name, err)
		}
		names = append(names, e.Name)
		scs = append(scs, sc)
	}
	got := make(map[string]string, len(names))
	for i, res := range runShared(t, scs) {
		if res.Invariant != nil {
			t.Errorf("%s cell 0 violates safety invariants: %v", names[i], res.Invariant)
		}
		sum := sha256.Sum256(Fingerprint(res))
		got[names[i]] = hex.EncodeToString(sum[:])
	}

	path := filepath.Join("testdata", "fingerprints.json")
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, name := range names {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no golden digest (new entry? rerun with -update)", name)
		case w != got[name]:
			t.Errorf("%s: fingerprint digest %s, golden %s", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden digest for an entry the registry no longer simulates", name)
		}
	}
}
