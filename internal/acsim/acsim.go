// Package acsim performs direct AC small-signal analysis: at each
// frequency point the complex system (G + jωC)·x = b is factored and
// solved exactly. This is the SPICE-style reference analysis that AWE
// (package awe) approximates — several orders of magnitude faster — and
// it is what package verify uses to produce the "/ Simulation" columns of
// the paper's Tables 2 and 3.
package acsim

import (
	"fmt"
	"math"
	"math/cmplx"

	"astrx/internal/linalg"
	"astrx/internal/mna"
)

// Point is one frequency-response sample.
type Point struct {
	Omega float64    // rad/s
	H     complex128 // transfer function value
}

// Sweep holds an AC analysis result for one output.
type Sweep struct {
	Points []Point
}

// Analyzer runs direct AC solves of an MNA system.
type Analyzer struct {
	sys *mna.System
	a   *linalg.CMatrix // scratch (G + jωC)
	// lu is reused across frequency points: the (G + jωC) sparsity
	// pattern is frequency-independent away from exact cancellations, so
	// after the first point every factorization is a sparse replay over
	// the cached symbolic analysis instead of a fresh dense allocation.
	lu linalg.AutoLU[complex128]
}

// NewAnalyzer prepares an analyzer for the given system.
func NewAnalyzer(sys *mna.System) *Analyzer {
	return &Analyzer{sys: sys, a: linalg.NewCMatrix(sys.Size, sys.Size)}
}

// SolveAt computes the full unknown vector at angular frequency w for the
// named input source.
func (an *Analyzer) SolveAt(src string, w float64) ([]complex128, error) {
	b, err := an.sys.InputVector(src)
	if err != nil {
		return nil, err
	}
	n := an.sys.Size
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			an.a.Set(i, j, complex(an.sys.G.At(i, j), w*an.sys.C.At(i, j)))
		}
	}
	if err := an.lu.Factor(an.a); err != nil {
		return nil, fmt.Errorf("acsim: singular system at ω=%g: %w", w, err)
	}
	cb := make([]complex128, n)
	for i := range b {
		cb[i] = complex(b[i], 0)
	}
	an.lu.SolveInPlace(cb)
	return cb, nil
}

// TransferAt returns H(jω) = (v(outPos) - v(outNeg)) / u for the named
// source; outNeg may be "" or "0".
func (an *Analyzer) TransferAt(src, outPos, outNeg string, w float64) (complex128, error) {
	x, err := an.SolveAt(src, w)
	if err != nil {
		return 0, err
	}
	ip, ok := an.sys.NodeUnknown(outPos)
	if !ok {
		return 0, fmt.Errorf("acsim: output node %q unknown or ground", outPos)
	}
	h := x[ip]
	if outNeg != "" && outNeg != "0" {
		in, ok := an.sys.NodeUnknown(outNeg)
		if !ok {
			return 0, fmt.Errorf("acsim: output node %q unknown or ground", outNeg)
		}
		h -= x[in]
	}
	return h, nil
}

// LogSweep runs a logarithmic frequency sweep from wLo to wHi (rad/s)
// with n points.
func (an *Analyzer) LogSweep(src, outPos, outNeg string, wLo, wHi float64, n int) (*Sweep, error) {
	if n < 2 || wLo <= 0 || wHi <= wLo {
		return nil, fmt.Errorf("acsim: bad sweep parameters [%g,%g] n=%d", wLo, wHi, n)
	}
	s := &Sweep{Points: make([]Point, n)}
	ratio := math.Pow(wHi/wLo, 1/float64(n-1))
	w := wLo
	for i := 0; i < n; i++ {
		h, err := an.TransferAt(src, outPos, outNeg, w)
		if err != nil {
			return nil, err
		}
		s.Points[i] = Point{Omega: w, H: h}
		w *= ratio
	}
	return s, nil
}

// UGF locates the unity-gain frequency by log scan plus bisection using
// exact complex solves. Returns 0 when the response never crosses unity.
func (an *Analyzer) UGF(src, outPos, outNeg string, wLo, wHi float64) (float64, error) {
	magAt := func(w float64) (float64, error) {
		h, err := an.TransferAt(src, outPos, outNeg, w)
		return cmplx.Abs(h), err
	}
	m, err := magAt(wLo)
	if err != nil {
		return 0, err
	}
	if m <= 1 {
		return 0, nil
	}
	const steps = 200
	ratio := math.Pow(wHi/wLo, 1.0/steps)
	prev := wLo
	w := wLo
	for i := 0; i < steps; i++ {
		w *= ratio
		m, err = magAt(w)
		if err != nil {
			return 0, err
		}
		if m <= 1 {
			a, b := prev, w
			for it := 0; it < 60; it++ {
				mid := math.Sqrt(a * b)
				mm, err := magAt(mid)
				if err != nil {
					return 0, err
				}
				if mm > 1 {
					a = mid
				} else {
					b = mid
				}
			}
			return math.Sqrt(a * b), nil
		}
		prev = w
	}
	return 0, nil
}

// PhaseMarginDeg measures 180° + unwrapped ∠H at the unity-gain
// frequency by tracking phase continuously along a log sweep from wStart
// (well below the first pole) up to the UGF.
func (an *Analyzer) PhaseMarginDeg(src, outPos, outNeg string, wStart, wHi float64) (float64, error) {
	wu, err := an.UGF(src, outPos, outNeg, wStart, wHi)
	if err != nil || wu == 0 {
		return 0, err
	}
	// Unwrap along a log grid from wStart to wu, adaptively refining any
	// interval where the phase moves more than 60°: a high-Q complex
	// pole pair can swing the phase through ~180° in a few percent of
	// bandwidth, and naive fixed-step unwrapping across such a jump is
	// off by a full turn.
	const ptsPerDecade = 50
	decades := math.Log10(wu / wStart)
	n := int(decades*ptsPerDecade) + 2
	ratio := math.Pow(wu/wStart, 1/float64(n-1))
	w := wStart
	h0, err := an.TransferAt(src, outPos, outNeg, w)
	if err != nil {
		return 0, err
	}
	phase := cmplx.Phase(h0) // start in (-π, π]
	prevW, prevP := w, phase
	for i := 1; i < n; i++ {
		w *= ratio
		p, err := an.unwrapTo(src, outPos, outNeg, prevW, prevP, w, 0)
		if err != nil {
			return 0, err
		}
		phase = p
		prevW, prevP = w, p
	}
	return 180 + phase*180/math.Pi, nil
}

// unwrapTo continues the phase from (wA, phaseA) to wB, bisecting the
// interval whenever the principal-value step exceeds 60° (up to a
// recursion depth that resolves Q factors into the thousands).
func (an *Analyzer) unwrapTo(src, outPos, outNeg string, wA, phaseA, wB float64, depth int) (float64, error) {
	h, err := an.TransferAt(src, outPos, outNeg, wB)
	if err != nil {
		return 0, err
	}
	p := cmplx.Phase(h)
	for p-phaseA > math.Pi {
		p -= 2 * math.Pi
	}
	for p-phaseA < -math.Pi {
		p += 2 * math.Pi
	}
	if math.Abs(p-phaseA) <= math.Pi/3 || depth >= 12 {
		return p, nil
	}
	mid := math.Sqrt(wA * wB)
	pm, err := an.unwrapTo(src, outPos, outNeg, wA, phaseA, mid, depth+1)
	if err != nil {
		return 0, err
	}
	return an.unwrapTo(src, outPos, outNeg, mid, pm, wB, depth+1)
}
