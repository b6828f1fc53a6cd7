package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

// The tail is the highest percentile with at least ten samples beyond
// it: p90 from 100 samples, p99 from 1,000, none below 100.
func TestSummarizeTail(t *testing.T) {
	for _, tc := range []struct {
		n     int
		tailP float64
	}{
		{15, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		s := summarize(xs)
		if s.N != tc.n || s.TailP != tc.tailP {
			t.Errorf("n=%d: got n=%d tail p%g, want tail p%g", tc.n, s.N, s.TailP, tc.tailP)
		}
		if want := float64(tc.n+1) / 2; s.P50 != want {
			t.Errorf("n=%d: median %g, want %g", tc.n, s.P50, want)
		}
		if tc.tailP > 0 {
			beyond := 0
			for _, x := range xs {
				if x > s.Tail {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, tc.tailP)
			}
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 9, 27}, [3]float64{3, 9, 27}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
