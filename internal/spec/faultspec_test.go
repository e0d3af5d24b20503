package spec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func faulted(events ...FaultEventSpec) ScenarioSpec {
	s := hash(100)
	s.Rate = 100
	s.Faults = &FaultSpec{Events: events}
	return s
}

func TestFaultSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		ev   FaultEventSpec
		want string // "" = valid
	}{
		{"crash", FaultEventSpec{At: Duration(time.Second), Action: FaultCrash, Nodes: []int{3}}, ""},
		{"heal alone", FaultEventSpec{Action: FaultHeal}, ""},
		{"all-links loss", FaultEventSpec{Action: FaultLink, Drop: 0.5}, ""},
		{"missing action", FaultEventSpec{At: Duration(time.Second)}, "action missing"},
		{"unknown action", FaultEventSpec{Action: "meteor"}, "unknown action"},
		{"negative time", FaultEventSpec{At: Duration(-time.Second), Action: FaultHeal}, "negative time"},
		{"crash without nodes", FaultEventSpec{Action: FaultCrash}, "no nodes"},
		{"crash observer", FaultEventSpec{Action: FaultCrash, Nodes: []int{0}}, "observer"},
		{"node out of range", FaultEventSpec{Action: FaultRestart, Nodes: []int{10}}, "out of range"},
		{"single group", FaultEventSpec{Action: FaultPartition, Groups: [][]int{{1, 2}}}, "at least 2"},
		{"overlapping groups", FaultEventSpec{Action: FaultPartition,
			Groups: [][]int{{0, 1}, {1, 2}}}, "two groups"},
		{"drop above one", FaultEventSpec{Action: FaultLink, Drop: 1.2}, "outside [0,1]"},
		{"negative reorder delay", FaultEventSpec{Action: FaultLink,
			ReorderDelay: Duration(-time.Millisecond)}, "negative delay"},
		{"link scope out of range", FaultEventSpec{Action: FaultLink,
			From: []int{12}}, "out of range"},
	}
	for _, tc := range cases {
		err := faulted(tc.ev).WithDefaults().Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestFaultDefaultsFillReorderDelay(t *testing.T) {
	s := faulted(FaultEventSpec{Action: FaultLink, Reorder: 0.3}).WithDefaults()
	if got := s.Faults.Events[0].ReorderDelay; got != DefaultReorderDelay {
		t.Fatalf("reorder delay = %v, want default %v", got.Std(), DefaultReorderDelay.Std())
	}
	// Defaulting copies: the original spec's events are untouched.
	orig := faulted(FaultEventSpec{Action: FaultLink, Reorder: 0.3})
	_ = orig.WithDefaults()
	if orig.Faults.Events[0].ReorderDelay != 0 {
		t.Fatal("WithDefaults mutated the original fault events")
	}
}

func TestFaultSummary(t *testing.T) {
	s := faulted(
		FaultEventSpec{At: Duration(10 * time.Second), Action: FaultCrash, Nodes: []int{3}},
		FaultEventSpec{At: Duration(30 * time.Second), Action: FaultRestart, Nodes: []int{3}},
	)
	if got, want := s.Faults.Summary(), "crash@10s restart@30s"; got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
	var none *FaultSpec
	if none.Summary() != "" {
		t.Fatal("nil summary not empty")
	}
}

func TestChaosEntriesRegistered(t *testing.T) {
	for _, name := range []string{"chaos_crash", "chaos_partition", "chaos_majority", "chaos_lossy"} {
		e, ok := Get(name)
		if !ok {
			t.Errorf("entry %q missing", name)
			continue
		}
		if len(e.Cells) == 0 {
			t.Errorf("entry %q has no cells", name)
			continue
		}
		if e.Cells[0].Faults == nil || len(e.Cells[0].Faults.Events) == 0 {
			t.Errorf("entry %q cell has no fault plan", name)
		}
	}
}

func TestMatrixFaultAxesMergeIntoOneEvent(t *testing.T) {
	var s ScenarioSpec
	for _, kv := range [][2]string{{"drop", "0.1"}, {"dup", "0.05"}, {"reorder", "0.2"}} {
		if err := Set(&s, kv[0], kv[1]); err != nil {
			t.Fatalf("Set(%s): %v", kv[0], err)
		}
	}
	if len(s.Faults.Events) != 1 {
		t.Fatalf("events = %d, want the axes merged into 1", len(s.Faults.Events))
	}
	ev := s.Faults.Events[0]
	if ev.Drop != 0.1 || ev.Duplicate != 0.05 || ev.Reorder != 0.2 {
		t.Fatalf("merged event wrong: %+v", ev)
	}
}

func TestExpandCopiesFaults(t *testing.T) {
	base := faulted(FaultEventSpec{Action: FaultLink, Drop: 0.5})
	cells, err := Expand([]ScenarioSpec{base}, Axis{Key: "drop", Values: []string{"0.1", "0.2"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if cells[0].Faults.Events[0].Drop != 0.1 || cells[1].Faults.Events[0].Drop != 0.2 {
		t.Fatalf("axis values not applied: %+v / %+v", cells[0].Faults, cells[1].Faults)
	}
	if base.Faults.Events[0].Drop != 0.5 {
		t.Fatal("Expand mutated the input cell's fault plan")
	}
}

// A fault-plan file holds one plan: a second concatenated plan used to be
// dropped, so only the first plan's events ran.
func TestLoadFaultFileRejectsTrailingData(t *testing.T) {
	plan := `{"events":[{"at":"5s","action":"crash","nodes":[3]}]}`
	path := filepath.Join(t.TempDir(), "two.json")
	for _, doc := range []string{plan + "\n" + plan, plan + " trailing"} {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFaultFile(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("LoadFaultFile(%q) error %v, want one naming the file", doc, err)
		}
	}
	if err := os.WriteFile(path, []byte(plan+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fs, err := LoadFaultFile(path); err != nil || len(fs.Events) != 1 {
		t.Errorf("single plan: %+v, %v", fs, err)
	}
}
