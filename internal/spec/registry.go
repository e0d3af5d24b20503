package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Entry is one named experiment of the catalog: the documentation (title,
// description, the paper figure or table it reproduces) and the scenario
// cells that run it live in the same struct, so cmd/specdoc's generated
// EXPERIMENTS.md can never drift from what the executor runs.
type Entry struct {
	// Name is the -exp identifier ("fig3a").
	Name string
	// Title is the one-line headline shown by -list.
	Title string
	// Figure names the paper figure/table the entry reproduces
	// ("Fig. 3a", "Table 2").
	Figure string
	// Description explains the experiment: what is swept, what the paper
	// reports, what to look for in the output.
	Description string
	// Cells are the simulation cells the entry expands into, in execution
	// order. Analytic entries (closed-form model only) have none.
	Cells []ScenarioSpec
	// Refs are the entry's expected measurements — what the paper (or the
	// Appendix D model, or this repo's pinned baseline) reports for
	// individual cells, with tolerance bands. cmd/setchain-report compares
	// them against a paper-scale run artifact in RESULTS.md; every entry
	// with cells must carry at least one so the fidelity table covers the
	// whole catalog.
	Refs []Reference
}

// registry holds the catalog in registration order.
var registry []Entry

// Register adds an entry to the catalog. It panics on duplicate names or
// invalid cells — registration happens at init time from checked-in code,
// so any failure is a programming error the tests catch immediately.
func Register(e Entry) {
	if e.Name == "" {
		panic("spec: Register with empty name")
	}
	if _, ok := Get(e.Name); ok {
		panic(fmt.Sprintf("spec: duplicate registry entry %q", e.Name))
	}
	for i, c := range e.Cells {
		if err := c.WithDefaults().Validate(); err != nil {
			panic(fmt.Sprintf("spec: entry %q cell %d: %v", e.Name, i, err))
		}
	}
	if len(e.Cells) > 0 && len(e.Refs) == 0 {
		panic(fmt.Sprintf("spec: entry %q has cells but no reference values (RESULTS.md's fidelity table must cover every non-analytic entry)", e.Name))
	}
	for i := range e.Refs {
		e.Refs[i] = e.Refs[i].WithDefaults()
		if err := e.Refs[i].Validate(len(e.Cells)); err != nil {
			panic(fmt.Sprintf("spec: entry %q ref %d: %v", e.Name, i, err))
		}
	}
	registry = append(registry, e)
}

// Get returns the named entry.
func Get(name string) (Entry, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// All returns the catalog in registration order. The slice is shared;
// treat it as read-only.
func All() []Entry { return registry }

// Names returns every entry name in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.Name
	}
	return out
}

// SuggestEntries returns registry names resembling the (unknown) name,
// closest first.
func SuggestEntries(name string) []string { return Suggest(name, Names()) }

// Decode reads a scenario document: either a single ScenarioSpec object
// or an array of them. Cells are returned defaulted and validated.
func Decode(r io.Reader) ([]ScenarioSpec, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var cells []ScenarioSpec
	if trimmed := bytes.TrimLeft(blob, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		// Report a single object's errors as such, so an unknown-field typo
		// does not surface as "cannot unmarshal object into []ScenarioSpec".
		var one ScenarioSpec
		if err := decodeStrict(blob, &one); err != nil {
			return nil, fmt.Errorf("scenario object: %w", err)
		}
		cells = []ScenarioSpec{one}
	} else if err := decodeStrict(blob, &cells); err != nil {
		return nil, fmt.Errorf("want a scenario object or array: %w", err)
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("empty scenario document")
	}
	for i := range cells {
		cells[i] = cells[i].WithDefaults()
		if err := cells[i].Validate(); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return cells, nil
}

// decodeStrict decodes a document that is exactly one JSON value: an
// unknown field, or anything but whitespace after the value, is an error.
func decodeStrict(blob []byte, v any) error {
	d := json.NewDecoder(bytes.NewReader(blob))
	d.DisallowUnknownFields()
	if err := d.Decode(v); err != nil {
		return err
	}
	if _, err := d.Token(); err != io.EOF {
		return fmt.Errorf("unexpected data after the document's JSON value")
	}
	return nil
}

// LoadFile reads a scenario document from disk (see Decode).
func LoadFile(path string) ([]ScenarioSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cells, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cells, nil
}
