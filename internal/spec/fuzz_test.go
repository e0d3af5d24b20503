package spec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenarioSpecJSON fuzzes the scenario-document pipeline: whatever
// bytes Decode accepts must be exactly one valid JSON value and survive a
// marshal/decode round trip as a fixed point — parse → default+validate → marshal → parse yields the same
// cells — and nothing may panic on arbitrary input. Seeds come from the
// checked-in example scenario documents plus hand-written edge cases.
func FuzzScenarioSpecJSON(f *testing.F) {
	// Seed corpus: every example spec shipped in the repo.
	if paths, err := filepath.Glob("../../examples/specs/*.json"); err == nil {
		for _, p := range paths {
			if blob, err := os.ReadFile(p); err == nil {
				f.Add(blob)
			}
		}
	}
	f.Add([]byte(`{"algorithm":"hashchain","rate":100}`))
	f.Add([]byte(`[{"algorithm":"vanilla","rate":1}]`))
	f.Add([]byte(`{"algorithm":"compresschain","rate":5,"send_for":"50s","horizon":60}`))
	f.Add([]byte(`{"algorithm":"hashchain","rate":2,"byzantine":{"faulty":1,"behaviors":["silent"]}}`))
	f.Add([]byte(`{"algorithm":"hashchain","rate":2,"faults":{"events":[` +
		`{"at":"10s","action":"partition","groups":[[0,1],[2,3]]},` +
		`{"at":"20s","action":"heal"},` +
		`{"action":"link","drop":0.1,"reorder":0.5}]}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"algorithm":"hashchain","rate":1e309}`))
	f.Add([]byte(`{"algorithm":"vanilla","rate":100}` + "\n" + `{"algorithm":"hashchain","rate":100}`))
	f.Add([]byte(`[{"algorithm":"vanilla","rate":1}] [{"algorithm":"vanilla","rate":2}]`))
	f.Add([]byte(`{"algorithm":"vanilla","rate":100} trailing garbage`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cells, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only panics count as failures
		}
		if !json.Valid(data) {
			t.Fatalf("Decode accepted a document that is not one JSON value: %q", data)
		}
		// Decode returns defaulted, validated cells; defaulting must be
		// idempotent from here on.
		for i, c := range cells {
			if !reflect.DeepEqual(c, c.WithDefaults()) {
				t.Fatalf("cell %d: WithDefaults not idempotent after Decode", i)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("cell %d: Decode returned an invalid cell: %v", i, err)
			}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, cells); err != nil {
			t.Fatalf("accepted cells failed to marshal: %v", err)
		}
		again, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("marshaled form no longer decodes: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(cells, again) {
			t.Fatalf("round trip is not a fixed point:\nfirst:  %#v\nsecond: %#v", cells, again)
		}
	})
}
