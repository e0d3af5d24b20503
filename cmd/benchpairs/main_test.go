package main

import (
	"strings"
	"testing"
)

// Quartiles interpolate between order statistics, whatever the input order.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{5}, [3]float64{5, 5, 5}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.75, 2.5, 3.25}},
		{[]float64{9, 1, 5, 3, 7}, [3]float64{3, 5, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// A pair is won in the metric's better direction, and the medians are apart
// only when their distance passes the base's interquartile range.
func TestCompare(t *testing.T) {
	base := []float64{10, 11, 12, 13}
	lower := compare(base, []float64{8, 12, 9, 10}, false)
	if lower.won != 3 || !lower.apart || lower.change >= 0 {
		t.Fatalf("lower is better: %+v, want 3 wins, apart, a negative change", lower)
	}
	if higher := compare(base, []float64{8, 12, 9, 10}, true); higher.won != 1 {
		t.Fatalf("higher is better: %d wins, want 1", higher.won)
	}
	if near := compare(base, []float64{11, 12, 11, 12}, false); near.apart {
		t.Fatalf("medians 0.0 apart against an IQR of 1.5 read as apart: %+v", near)
	}
}

// parse reads the digest line and the closing JSON line, and refuses a run
// that failed operations or printed no report.
func TestParse(t *testing.T) {
	out := strings.Join([]string{
		"conditions: host=vm",
		"== mesh50  digest 50cd38d1  attempted 500  failed 0",
		`{"attempted":500,"correct":true,"failed":0,"metrics":{"wall_s":{"value":0.5,"unit":"s"}}}`,
	}, "\n")
	r, err := parse(out)
	if err != nil || r.digest != "50cd38d1" || r.metrics["wall_s"] != 0.5 {
		t.Fatalf("parse = %+v, %v", r, err)
	}
	for name, bad := range map[string]string{
		"no digest":   `{"failed":0,"metrics":{"wall_s":{"value":1}}}`,
		"no report":   "== w  digest ab\nthe end",
		"failed runs": "== w  digest ab\n" + `{"failed":3,"metrics":{"wall_s":{"value":1}}}`,
	} {
		if _, err := parse(bad); err == nil {
			t.Errorf("%s: parsed without an error", name)
		}
	}
}
