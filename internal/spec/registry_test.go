package spec

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryEntriesAreDocumentedAndValid(t *testing.T) {
	if len(All()) < 14 {
		t.Fatalf("registry has %d entries, want the full catalog", len(All()))
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.Name] {
			t.Errorf("duplicate entry %q", e.Name)
		}
		seen[e.Name] = true
		if e.Title == "" || e.Description == "" || e.Figure == "" {
			t.Errorf("entry %q missing documentation: %+v", e.Name, e)
		}
		for i, c := range e.Cells {
			if err := c.WithDefaults().Validate(); err != nil {
				t.Errorf("entry %q cell %d invalid: %v", e.Name, i, err)
			}
		}
	}
}

func TestRegistryCatalogShapes(t *testing.T) {
	// The shapes cmd/setchain-bench's renderers rely on.
	cases := map[string]int{
		"fig1": 7, "table2": 7, "fig2left": 5,
		"fig3a": 20, "fig3b": 15, "fig3c": 15,
		"fig4": 3, "fig5a": 20, "fig5b": 15, "fig5c": 15,
		"table1": 0, "fig2right": 0, "d1": 0,
	}
	for name, want := range cases {
		e, ok := Get(name)
		if !ok {
			t.Errorf("entry %q missing", name)
			continue
		}
		if len(e.Cells) != want {
			t.Errorf("entry %q has %d cells, want %d", name, len(e.Cells), want)
		}
	}
	fig1 := MustGet("fig1")
	if fig1.Cells[0].Group != "left" || fig1.Cells[3].Group != "center" || fig1.Cells[5].Group != "right" {
		t.Fatalf("fig1 panel grouping wrong: %+v", fig1.Cells)
	}
	fig4 := MustGet("fig4")
	for _, c := range fig4.Cells {
		if c.Metrics != MetricsStages || c.Rate != 1250 {
			t.Fatalf("fig4 cell wrong: %+v", c)
		}
	}
	lim := MustGet("fig2left")
	if lim.Cells[1].Rate != 150000 || !lim.Cells[1].Light {
		t.Fatalf("fig2left Light cell wrong: %+v", lim.Cells[1])
	}
	if lim.Cells[0].Horizon.Std() != 90*time.Second {
		t.Fatalf("fig2left horizon = %v, want 90s", lim.Cells[0].Horizon.Std())
	}
}

func TestRegisterPanics(t *testing.T) {
	defer func(old []Entry) { registry = old }(registry)
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("duplicate name", func() { Register(Entry{Name: "fig1"}) })
	expectPanic("empty name", func() { Register(Entry{}) })
	expectPanic("invalid cell", func() {
		Register(Entry{Name: "broken", Cells: []ScenarioSpec{{Algorithm: "nope", Rate: 1}}})
	})
}

func TestSuggestEntries(t *testing.T) {
	got := SuggestEntries("fig3")
	if len(got) < 3 {
		t.Fatalf("SuggestEntries(fig3) = %v", got)
	}
	joined := strings.Join(got, " ")
	for _, want := range []string{"fig3a", "fig3b", "fig3c"} {
		if !strings.Contains(joined, want) {
			t.Errorf("SuggestEntries(fig3) = %v, missing %s", got, want)
		}
	}
}
