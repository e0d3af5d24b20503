package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// This file is the pure-data form of scheduled fault injection: a
// FaultSpec serializes the fault plan a scenario runs under, and
// internal/harness converts it into an executable faults.Plan. Keeping
// the JSON shape here (stdlib-only) and the executor in internal/faults
// preserves the package's layering rule: spec describes, harness runs.
// See DESIGN.md §7 (declarative scenarios) and §8 (fault model).

// Fault actions (FaultEventSpec.Action).
const (
	FaultCrash     = "crash"     // listed nodes stop sending and receiving
	FaultRestart   = "restart"   // listed nodes come back up
	FaultPartition = "partition" // block links between the listed groups
	FaultHeal      = "heal"      // remove every plan-installed link block
	FaultLink      = "link"      // set loss/dup/reorder/delay on links
)

// FaultActions lists every valid fault action name.
var FaultActions = []string{
	FaultCrash, FaultRestart, FaultPartition, FaultHeal, FaultLink,
}

// DefaultReorderDelay is the hold-back bound filled in when a link event
// sets a reorder probability but no reorder_delay.
const DefaultReorderDelay = Duration(20 * time.Millisecond)

// FaultEventSpec is one timestamped fault action.
type FaultEventSpec struct {
	// At is the virtual time the action executes.
	At Duration `json:"at"`
	// Action is one of FaultActions.
	Action string `json:"action"`
	// Nodes are the targets of crash/restart (server indices).
	Nodes []int `json:"nodes,omitempty"`
	// Groups are the partition's sides; servers absent from every group
	// keep full connectivity.
	Groups [][]int `json:"groups,omitempty"`
	// From/To scope a link event to the links between the two node sets
	// (both directions); empty means every server.
	From []int `json:"from,omitempty"`
	To   []int `json:"to,omitempty"`
	// Drop / Duplicate / Reorder are per-message probabilities on the
	// affected links.
	Drop      float64 `json:"drop,omitempty"`
	Duplicate float64 `json:"duplicate,omitempty"`
	Reorder   float64 `json:"reorder,omitempty"`
	// ReorderDelay bounds the reordering hold-back (default 20ms when
	// Reorder is set).
	ReorderDelay Duration `json:"reorder_delay,omitempty"`
	// Delay is added to every message on the affected links (delay
	// spikes).
	Delay Duration `json:"delay,omitempty"`
}

// FaultSpec is a scenario's scheduled fault plan.
type FaultSpec struct {
	// Events execute in timestamp order; ties execute in list order.
	Events []FaultEventSpec `json:"events"`
}

// withDefaults fills derived defaults into a copy of the spec.
func (f *FaultSpec) withDefaults() *FaultSpec {
	out := FaultSpec{Events: make([]FaultEventSpec, len(f.Events))}
	copy(out.Events, f.Events)
	for i := range out.Events {
		ev := &out.Events[i]
		if ev.Reorder > 0 && ev.ReorderDelay == 0 {
			ev.ReorderDelay = DefaultReorderDelay
		}
	}
	return &out
}

// validate reports the first problem with the plan for a deployment of n
// servers per shard across the given shard count, or nil. Node ids are
// global: shard k's servers are k·n..k·n+n-1 (shards <= 1 is the classic
// single instance with ids 0..n-1).
func (f *FaultSpec) validate(n, shards int) error {
	if shards < 1 {
		shards = 1
	}
	total := n * shards
	inRange := func(ids []int) error {
		for _, id := range ids {
			if id < 0 || id >= total {
				return fmt.Errorf("server %d out of range [0,%d)", id, total)
			}
		}
		return nil
	}
	for i, ev := range f.Events {
		fail := func(err error) error {
			return fmt.Errorf("fault event %d (%s): %w", i, ev.Action, err)
		}
		if ev.At < 0 {
			return fail(fmt.Errorf("negative time %v", ev.At.Std()))
		}
		switch ev.Action {
		case FaultCrash, FaultRestart:
			if len(ev.Nodes) == 0 {
				return fail(fmt.Errorf("no nodes listed"))
			}
			if err := inRange(ev.Nodes); err != nil {
				return fail(err)
			}
			if ev.Action == FaultCrash {
				for _, id := range ev.Nodes {
					// Every shard's first server is that shard's metrics
					// observer (the classic single-instance observer is
					// server 0).
					if id%n == 0 {
						return fail(fmt.Errorf("server %d is shard %d's metrics observer and cannot crash", id, id/n))
					}
				}
			}
		case FaultPartition:
			if len(ev.Groups) < 2 {
				return fail(fmt.Errorf("need at least 2 groups, got %d", len(ev.Groups)))
			}
			seen := make(map[int]bool)
			for _, g := range ev.Groups {
				if err := inRange(g); err != nil {
					return fail(err)
				}
				for _, id := range g {
					if seen[id] {
						return fail(fmt.Errorf("server %d in two groups", id))
					}
					seen[id] = true
				}
			}
		case FaultHeal:
			// No operands.
		case FaultLink:
			if err := inRange(ev.From); err != nil {
				return fail(err)
			}
			if err := inRange(ev.To); err != nil {
				return fail(err)
			}
			for _, p := range []struct {
				name string
				v    float64
			}{{"drop", ev.Drop}, {"duplicate", ev.Duplicate}, {"reorder", ev.Reorder}} {
				if !(p.v >= 0 && p.v <= 1) {
					return fail(fmt.Errorf("%s probability %g outside [0,1]", p.name, p.v))
				}
			}
			if ev.ReorderDelay < 0 || ev.Delay < 0 {
				return fail(fmt.Errorf("negative delay"))
			}
		case "":
			return fail(fmt.Errorf("action missing (want one of %v)", FaultActions))
		default:
			return fail(fmt.Errorf("unknown action (want one of %v)", FaultActions))
		}
	}
	return nil
}

// LoadFaultFile reads a standalone fault-plan document (a FaultSpec
// object) from disk. Node-range validation happens later, when the plan
// meets a scenario with a known server count.
func LoadFaultFile(path string) (*FaultSpec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var fs FaultSpec
	if err := dec.Decode(&fs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(fs.Events) == 0 {
		return nil, fmt.Errorf("%s: fault plan has no events", path)
	}
	return &fs, nil
}

// Summary condenses the plan for catalogs and tables:
// "crash@10s restart@30s".
func (f *FaultSpec) Summary() string {
	if f == nil || len(f.Events) == 0 {
		return ""
	}
	s := ""
	for i, ev := range f.Events {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s@%v", ev.Action, ev.At.Std())
	}
	return s
}
