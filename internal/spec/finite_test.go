package spec

import (
	"math"
	"reflect"
	"testing"
)

// floats lists every float field of a spec: the numbers Validate must hold
// finite.
func floats(s ScenarioSpec) []float64 {
	v := []float64{s.Rate, s.Bandwidth, s.Scale}
	if w := s.Workload; w != nil {
		v = append(v, w.SizeMean, w.SizeStdDev)
	}
	if o := s.Open; o != nil {
		v = append(v, o.Zipf)
		for _, p := range o.Envelope {
			v = append(v, p.Mult)
		}
	}
	if a := s.Admission; a != nil {
		v = append(v, a.Watermark)
	}
	if f := s.Faults; f != nil {
		for _, ev := range f.Events {
			v = append(v, ev.Drop, ev.Duplicate, ev.Reorder)
		}
	}
	return v
}

// floatBase is a valid cell carrying every block that holds a float, so an
// override lands beside real values.
func floatBase() ScenarioSpec {
	s := openSpec()
	s.Workload = &WorkloadSpec{}
	return s
}

// A NaN or infinite number validates nowhere: `-matrix rate=NaN` used to
// run a cell that injected nothing and printed ok.
func TestNonFiniteFloatsFailValidation(t *testing.T) {
	for _, key := range []string{"rate", "bandwidth", "scale", "zipf", "watermark", "drop", "duplicate", "reorder"} {
		for _, v := range []string{"NaN", "+Inf", "-Inf"} {
			s := floatBase()
			if err := Set(&s, key, v); err != nil {
				t.Fatalf("Set(%s=%s): %v", key, v, err)
			}
			if err := s.WithDefaults().Validate(); err == nil {
				t.Errorf("%s=%s validated", key, v)
			}
		}
	}
	// The envelope and size-model floats have no override key.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range map[string]func(*ScenarioSpec){
			"mult":        func(s *ScenarioSpec) { s.Open.Envelope[0].Mult = v },
			"size_mean":   func(s *ScenarioSpec) { s.Workload.SizeMean = v },
			"size_stddev": func(s *ScenarioSpec) { s.Workload.SizeStdDev = v },
		} {
			s := floatBase()
			set(&s)
			if err := s.WithDefaults().Validate(); err == nil {
				t.Errorf("%s=%g validated", name, v)
			}
		}
	}
}

// FuzzOverrideValidates: whatever key=value Set accepts either fails
// Validate or leaves every float of the defaulted spec finite, and
// whatever it rejects leaves the spec as it was — no nested block is
// created for a value that does not parse.
func FuzzOverrideValidates(f *testing.F) {
	for _, k := range overrideKeys {
		f.Add(k, "NaN")
		f.Add(k, "0.5")
	}
	f.Add("rate", "+Inf")
	f.Add("watermark", "-0")
	f.Add("drop", "1e-320")
	// The deleted executor's key and alias are unknown keys now.
	f.Add("intra_workers", "2")
	f.Add("iw", "2")
	f.Fuzz(func(t *testing.T, key, value string) {
		var zero ScenarioSpec
		if Set(&zero, key, value) != nil && !reflect.DeepEqual(zero, ScenarioSpec{}) {
			t.Fatalf("rejected %s=%q changed a zero spec: %+v", key, value, zero)
		}
		s := floatBase()
		if Set(&s, key, value) != nil {
			if !reflect.DeepEqual(s, floatBase()) {
				t.Fatalf("rejected %s=%q changed the spec: %+v", key, value, s)
			}
			return
		}
		s = s.WithDefaults()
		if s.Validate() != nil {
			return
		}
		for _, v := range floats(s) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s=%q validated with a non-finite number: %+v", key, value, s)
			}
		}
	})
}
