package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

// tailLadder lists the tail percentiles a timing may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 90}

// tailPercentile returns the highest percentile on tailLadder that has
// at least ten samples beyond it in a sample of n, or 0 when even p90
// does not (a timing is then reported by its median alone).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// timing summarizes one timing sample: its size, median, and the
// highest percentile with at least ten samples beyond it.
type timing struct {
	N     int
	P50   float64
	TailP float64 // 0 when the sample is too small for any tail
	Tail  float64
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs), P50: percentile(xs, 50), TailP: tailPercentile(len(xs))}
	if t.TailP > 0 {
		t.Tail = percentile(xs, t.TailP)
	}
	return t
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so spreads printed here match the ones an
// external checker computes from the same values. A single value is its
// own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
