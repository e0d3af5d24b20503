package spec

import (
	"strings"
	"testing"
	"time"
)

func shardedSpec(shards int) ScenarioSpec {
	return ScenarioSpec{
		Algorithm: AlgCompresschain, Servers: 4, Shards: shards, Rate: 1000,
	}.WithDefaults()
}

func TestShardsValidation(t *testing.T) {
	if err := shardedSpec(4).Validate(); err != nil {
		t.Fatalf("valid sharded spec rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*ScenarioSpec)
		want string
	}{
		{"negative", func(s *ScenarioSpec) { s.Shards = -1 }, "shards must be >= 0"},
		{"huge", func(s *ScenarioSpec) { s.Shards = 65 }, "shards must be <= 64"},
		{"stages", func(s *ScenarioSpec) { s.Metrics = MetricsStages }, "not aggregated across shards"},
		// A fanout is refused on any transport but the mesh, the unset one
		// included, naming the transport the cell runs.
		{"fanout unset transport", func(s *ScenarioSpec) { s.Fanout = 8 }, `fanout is a mesh parameter; transport is "broadcast"`},
		{"fanout broadcast", func(s *ScenarioSpec) { s.Transport, s.Fanout = TransportBroadcast, 8 }, `transport is "broadcast"`},
		{"mesh fanout 1", func(s *ScenarioSpec) { s.Transport, s.Fanout = TransportMesh, 1 }, "fanout >= 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := shardedSpec(4)
			tc.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// Fault-plan node ids live in the global Servers x Shards space, and
// every shard's first server is a protected observer.
func TestShardedFaultValidation(t *testing.T) {
	withFaults := func(shards int, ev FaultEventSpec) ScenarioSpec {
		s := shardedSpec(shards)
		s.Faults = &FaultSpec{Events: []FaultEventSpec{ev}}
		return s.WithDefaults()
	}
	// Node 7 exists only in the sharded world: 2 shards x 4 servers.
	ev := FaultEventSpec{At: Duration(time.Second), Action: FaultCrash, Nodes: []int{7}}
	if err := withFaults(2, ev).Validate(); err != nil {
		t.Fatalf("global node id rejected: %v", err)
	}
	if err := withFaults(1, ev).Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range node accepted: %v", err)
	}
	// Node 4 is shard 1's observer in a 2x4 world.
	obs := FaultEventSpec{At: Duration(time.Second), Action: FaultCrash, Nodes: []int{4}}
	if err := withFaults(2, obs).Validate(); err == nil || !strings.Contains(err.Error(), "observer") {
		t.Fatalf("crashing shard 1's observer accepted: %v", err)
	}
}

func TestShardsMatrixAxis(t *testing.T) {
	ax, err := ParseAxis("shards=1,2,4,8")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := Expand([]ScenarioSpec{{Algorithm: AlgCompresschain, Rate: 1000}}, ax)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells", len(cells))
	}
	for i, want := range []int{1, 2, 4, 8} {
		if cells[i].Shards != want {
			t.Errorf("cell %d has %d shards, want %d", i, cells[i].Shards, want)
		}
		if !strings.Contains(cells[i].Name, "shards=") {
			t.Errorf("cell %d name %q lacks the axis tag", i, cells[i].Name)
		}
	}
}

// The zero value stays unset through defaulting, so every pre-sharding
// spec (and the committed artifacts embedding them) round-trips
// byte-identically.
func TestShardsZeroValueStable(t *testing.T) {
	s := ScenarioSpec{Algorithm: AlgHashchain, Rate: 100}.WithDefaults()
	if s.Shards != 0 {
		t.Fatalf("WithDefaults set Shards=%d; it must stay 0", s.Shards)
	}
}
