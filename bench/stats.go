package main

import "sort"

// summary is what the report prints for one metric on one workload. With
// five repeats no percentile beyond the median is claimed.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// median of an ascending slice; the mean of the middle pair when even.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// ratio is a/b with 0 for an empty base, so a share over a counter that
// never fired reads 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medians reduces each named sample set to its median.
func medians(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for name, xs := range samples {
		out[name] = summarize(xs).Median
	}
	return out
}
