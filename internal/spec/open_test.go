package spec

import (
	"strings"
	"testing"
	"time"
)

func openSpec() ScenarioSpec {
	return ScenarioSpec{
		Algorithm: AlgHashchain, Collector: 100, Rate: 1000,
		Open: &OpenSpec{
			Zipf:    1.1,
			ChurnOn: Duration(10 * time.Second),
			Envelope: []RatePhaseSpec{
				{From: 0, Mult: 0.5},
				{From: Duration(10 * time.Second), Mult: 2},
			},
		},
		Admission: &AdmissionSpec{Policy: AdmissionReject, MaxTxs: 400},
	}
}

func TestOpenAdmissionDefaults(t *testing.T) {
	s := openSpec().WithDefaults()
	if s.Open.ChurnOff != s.Open.ChurnOn {
		t.Fatalf("ChurnOff not defaulted to ChurnOn: %v", s.Open.ChurnOff)
	}
	if s.Admission.Watermark != 0.9 {
		t.Fatalf("Watermark not defaulted: %g", s.Admission.Watermark)
	}
	// Reject policy has no deferral: the delay knobs stay zero.
	if s.Admission.MaxDelay != 0 || s.Admission.MaxDeferred != 0 {
		t.Fatalf("reject policy grew delay knobs: %+v", s.Admission)
	}
	d := ScenarioSpec{Algorithm: AlgHashchain, Collector: 100, Rate: 100,
		Admission: &AdmissionSpec{Policy: AdmissionDelay}}.WithDefaults()
	if d.Admission.MaxDelay != Duration(5*time.Second) || d.Admission.MaxDeferred != 1024 {
		t.Fatalf("delay defaults = %+v", d.Admission)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("defaulted open spec invalid: %v", err)
	}
}

// Zero open/admission blocks stay unset through defaulting, so pre-open
// artifacts round-trip byte-identically (the shards_test contract,
// extended to this PR's fields).
func TestOpenZeroValueStable(t *testing.T) {
	s := ScenarioSpec{Algorithm: AlgVanilla, Rate: 500}.WithDefaults()
	if s.Open != nil || s.Admission != nil {
		t.Fatalf("closed-system spec grew open blocks: %+v / %+v", s.Open, s.Admission)
	}
}

func TestOpenValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ScenarioSpec)
		want   string
	}{
		{"zipf negative", func(s *ScenarioSpec) { s.Open.Zipf = -1 }, "zipf"},
		{"zipf huge", func(s *ScenarioSpec) { s.Open.Zipf = 9 }, "zipf"},
		{"churn negative", func(s *ScenarioSpec) { s.Open.ChurnOn = Duration(-time.Second) }, "churn"},
		{"churn_off alone", func(s *ScenarioSpec) {
			s.Open.ChurnOn = 0
			s.Open.ChurnOff = Duration(time.Second)
		}, "churn_off"},
		{"envelope negative mult", func(s *ScenarioSpec) { s.Open.Envelope[0].Mult = -1 }, "mult"},
		{"envelope out of order", func(s *ScenarioSpec) {
			s.Open.Envelope[1].From = 0
		}, "ascending"},
		{"admission bad policy", func(s *ScenarioSpec) { s.Admission.Policy = "drop" }, "policy"},
		{"admission empty policy", func(s *ScenarioSpec) { s.Admission.Policy = "" }, "policy"},
		{"watermark above one", func(s *ScenarioSpec) { s.Admission.Watermark = 1.5 }, "watermark"},
		// At 1 the pool has no headroom: a collector's batch carrying
		// admitted elements is capacity-dropped and they never commit.
		{"watermark one", func(s *ScenarioSpec) { s.Admission.Watermark = 1 }, "watermark"},
		{"negative max_txs", func(s *ScenarioSpec) { s.Admission.MaxTxs = -1 }, "caps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openSpec().WithDefaults()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatal("invalid spec validated")
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestOpenMatrixAxes(t *testing.T) {
	var s ScenarioSpec
	for _, kv := range [][2]string{
		{"zipf", "1.1"}, {"churn_on", "10s"}, {"churn_off", "5s"},
		{"admission", "delay"}, {"watermark", "0.8"},
		{"max_txs", "400"}, {"max_bytes", "1000000"},
	} {
		if err := Set(&s, kv[0], kv[1]); err != nil {
			t.Fatalf("Set(%s=%s): %v", kv[0], kv[1], err)
		}
	}
	if s.Open.Zipf != 1.1 || s.Open.ChurnOn != Duration(10*time.Second) ||
		s.Open.ChurnOff != Duration(5*time.Second) {
		t.Fatalf("open block = %+v", s.Open)
	}
	if s.Admission.Policy != AdmissionDelay || s.Admission.Watermark != 0.8 ||
		s.Admission.MaxTxs != 400 || s.Admission.MaxBytes != 1000000 {
		t.Fatalf("admission block = %+v", s.Admission)
	}
	// A bare cap axis defaults the policy so it is runnable alone.
	var bare ScenarioSpec
	if err := Set(&bare, "max_txs", "200"); err != nil {
		t.Fatal(err)
	}
	if bare.Admission.Policy != AdmissionReject {
		t.Fatalf("bare cap axis policy = %q", bare.Admission.Policy)
	}
}

// Expand must deep-copy the open/admission blocks: a matrix axis writing
// through one cell's pointer must not leak into its siblings.
func TestExpandCopiesOpenAndAdmission(t *testing.T) {
	base := openSpec()
	cells, err := Expand([]ScenarioSpec{base},
		Axis{Key: "zipf", Values: []string{"0.5", "2"}},
		Axis{Key: "watermark", Values: []string{"0.5", "0.9"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}
	if cells[0].Open == cells[1].Open || cells[0].Admission == cells[1].Admission {
		t.Fatal("cells share open/admission pointers")
	}
	if cells[0].Open.Zipf != 0.5 || cells[3].Open.Zipf != 2 {
		t.Fatalf("zipf axis not applied: %g / %g", cells[0].Open.Zipf, cells[3].Open.Zipf)
	}
	if cells[0].Admission.Watermark != 0.5 || cells[1].Admission.Watermark != 0.9 {
		t.Fatalf("watermark axis not applied: %g / %g",
			cells[0].Admission.Watermark, cells[1].Admission.Watermark)
	}
	if base.Open.Zipf != 1.1 || base.Admission.Watermark != 0 {
		t.Fatalf("expansion mutated the base cell: %+v / %+v", base.Open, base.Admission)
	}
	// Envelope backing arrays must not be shared either.
	cells[0].Open.Envelope[0].Mult = 99
	if cells[1].Open.Envelope[0].Mult == 99 {
		t.Fatal("cells share an envelope backing array")
	}
}

func TestEnvelopeMult(t *testing.T) {
	cfg := OpenSpec{Envelope: []RatePhaseSpec{
		{From: 0, Mult: 0.5},
		{From: Duration(10 * time.Second), Mult: 2},
		{From: Duration(20 * time.Second), Mult: 1},
	}}
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{
		{0, 0.5}, {9 * time.Second, 0.5},
		{10 * time.Second, 2}, {19 * time.Second, 2},
		{20 * time.Second, 1}, {time.Hour, 1},
	} {
		if m := cfg.Mult(tc.at); m != tc.want {
			t.Fatalf("Mult(%v) = %g, want %g", tc.at, m, tc.want)
		}
	}
	// No phase before the first boundary: multiplier 1.
	late := OpenSpec{Envelope: []RatePhaseSpec{{From: Duration(5 * time.Second), Mult: 3}}}
	if m := late.Mult(2 * time.Second); m != 1 {
		t.Fatalf("pre-envelope Mult = %g, want 1", m)
	}
}

func TestOpenSpecScaled(t *testing.T) {
	cfg := OpenSpec{
		ChurnOn:  Duration(10 * time.Second),
		ChurnOff: Duration(5 * time.Second),
		Envelope: []RatePhaseSpec{{From: Duration(10 * time.Second), Mult: 2}},
	}
	s := cfg.Scaled(0.1)
	if s.ChurnOn != Duration(time.Second) || s.ChurnOff != Duration(500*time.Millisecond) {
		t.Fatalf("scaled churn = %v/%v", s.ChurnOn, s.ChurnOff)
	}
	if s.Envelope[0].From != Duration(time.Second) || s.Envelope[0].Mult != 2 {
		t.Fatalf("scaled phase = %+v", s.Envelope[0])
	}
	// The original must be untouched (cells share config values).
	if cfg.Envelope[0].From != Duration(10*time.Second) {
		t.Fatal("Scaled mutated the receiver's envelope")
	}
	if (OpenSpec{}).Scaled(0.1).Enabled() {
		t.Fatal("scaling an empty block enabled it")
	}
}
