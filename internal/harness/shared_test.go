package harness

import (
	"encoding/json"
	"sync"
	"testing"
)

// shared memoizes cell results for the whole test process, keyed by the
// Scenario's JSON — the form Fingerprint serializes. A result is a pure
// function of its Scenario, so the golden digests and the registry-entry
// tests all read one run of a cell instead of each simulating it again (and
// `-count=2` reads the memo too).
var shared = struct {
	sync.Mutex
	results map[string]*Result
}{results: map[string]*Result{}}

// runShared returns the results of scs in input order, running every cell
// the memo lacks in one RunMany batch. The results are shared, so they are
// read-only, and each is stored with its Recorder dropped so no deployment
// outlives its run: a test that mutates a Result, sabotages a deployment or
// reads a Recorder runs its own cells. Request cells as EntryScenarios
// returns them: a changed field is a different key and a second run.
func runShared(t *testing.T, scs []Scenario) []*Result {
	t.Helper()
	shared.Lock()
	defer shared.Unlock()
	keys := make([]string, len(scs))
	var missing []Scenario
	var missingKeys []string
	queued := make(map[string]bool)
	for i, sc := range scs {
		b, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = string(b)
		if _, ok := shared.results[keys[i]]; !ok && !queued[keys[i]] {
			queued[keys[i]] = true
			missing = append(missing, sc)
			missingKeys = append(missingKeys, keys[i])
		}
	}
	for i, res := range RunMany(missing) {
		res.Recorder = nil
		shared.results[missingKeys[i]] = res
	}
	out := make([]*Result, len(scs))
	for i, k := range keys {
		out[i] = shared.results[k]
	}
	return out
}
