// Package awe implements Asymptotic Waveform Evaluation: reduced-order
// small-signal analysis of linear circuits by moment matching (Padé
// approximation), as used by ASTRX/OBLX to predict circuit performance
// without designer-supplied equations.
//
// Given the MNA system (G + sC)·x = b·u(s), the k-th moment of the
// output is μ_k = Lᵀ·m_k with m_0 = G⁻¹b and m_k = -G⁻¹C·m_{k-1}. A
// q-pole reduced model
//
//	H(s) ≈ Σ_{i=1..q} k_i / (s - p_i)
//
// is fitted so its first 2q moments match the circuit's. All measures the
// synthesis cost function needs — DC gain, unity-gain frequency, phase
// margin, 3 dB bandwidth, pole/zero locations — are then read off the
// reduced model at negligible cost. One LU factorization of G is shared
// by all 2q moment solves, which is why AWE is orders of magnitude faster
// than a SPICE-style AC sweep.
package awe

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"astrx/internal/mna"
)

// DefaultOrder is the reduced-model order requested when callers pass
// q <= 0. Eight poles comfortably covers the paper's benchmark circuits
// ("as many as 6 poles and zeros may non-trivially affect the frequency
// response near the unity gain point").
const DefaultOrder = 8

// ErrNoDCPath indicates the conductance matrix was singular; the usual
// cause is a node with no DC path to ground. Callers typically add gmin
// conductances and retry.
var ErrNoDCPath = errors.New("awe: singular G matrix (node without DC path to ground?)")

// Analyzer performs AWE analyses of one assembled MNA system. The LU
// factorization of G is computed once and shared by every transfer
// function extracted from the system. It is a name-resolving front end
// over Engine, which hot paths drive directly with precomputed indices.
type Analyzer struct {
	sys *mna.System
	eng Engine
}

// NewAnalyzer factors the system's conductance matrix.
func NewAnalyzer(sys *mna.System) (*Analyzer, error) {
	a := &Analyzer{sys: sys}
	a.eng.G, a.eng.C = sys.G, sys.C
	if err := a.eng.Refactor(); err != nil {
		return nil, err
	}
	return a, nil
}

// TF is a reduced-order transfer function produced by AWE.
type TF struct {
	// Poles of the reduced model (rad/s, complex).
	Poles []complex128
	// Residues paired with Poles.
	Residues []complex128
	// Zeros of the reduced model (derived from poles+residues).
	Zeros []complex128
	// Moments are the raw matched output moments μ_0 … μ_{2q-1}.
	Moments []float64
	// Order is the model order q actually used (it may be lower than
	// requested when the circuit has fewer observable poles).
	Order int
}

// Moments computes the first n output moments for input source src and
// differential output v(outPos) - v(outNeg); outNeg may be "" or "0" for
// a single-ended measurement.
func (a *Analyzer) Moments(src, outPos, outNeg string, n int) ([]float64, error) {
	b, err := a.sys.InputVector(src)
	if err != nil {
		return nil, err
	}
	ip, okP := a.sys.NodeUnknown(outPos)
	if !okP {
		return nil, fmt.Errorf("awe: output node %q unknown or ground", outPos)
	}
	in := -1
	if outNeg != "" && outNeg != "0" {
		var okN bool
		in, okN = a.sys.NodeUnknown(outNeg)
		if !okN {
			return nil, fmt.Errorf("awe: output node %q unknown or ground", outNeg)
		}
	}

	mu := make([]float64, n)
	a.eng.MomentsInto(mu, b, ip, in)
	return mu, nil
}

// TransferFunction runs the full AWE flow: 2q moments, scaled Padé fit,
// pole/residue extraction, and zero recovery. q <= 0 selects
// DefaultOrder. The order is automatically reduced when the Hankel
// system is singular or the fitted model fails to reproduce the moments
// (i.e. the circuit has fewer than q observable poles).
func (a *Analyzer) TransferFunction(src, outPos, outNeg string, q int) (*TF, error) {
	if q <= 0 {
		q = DefaultOrder
	}
	if max := a.sys.Size; q > max {
		q = max
	}
	mu, err := a.Moments(src, outPos, outNeg, 2*q)
	if err != nil {
		return nil, err
	}
	return FitMoments(mu, q)
}

// FitMoments fits a reduced-order model to a moment sequence. It is
// exported separately so tests can exercise the Padé machinery directly.
// It is a convenience wrapper over FitWorkspace.FitMomentsInto, which
// the synthesis hot path uses with persistent scratch storage.
func FitMoments(mu []float64, q int) (*TF, error) {
	var ws FitWorkspace
	tf := new(TF)
	ws.FitMomentsInto(tf, mu, q)
	return tf, nil
}

// Eval evaluates the reduced model at the complex frequency s.
func (tf *TF) Eval(s complex128) complex128 {
	if tf.Order == 0 {
		if len(tf.Moments) > 0 {
			return complex(tf.Moments[0], 0)
		}
		return 0
	}
	h := complex128(0)
	for i := range tf.Poles {
		h += tf.Residues[i] / (s - tf.Poles[i])
	}
	return h
}

// DCGain returns H(0) (the exact zeroth moment).
func (tf *TF) DCGain() float64 {
	if len(tf.Moments) > 0 {
		return tf.Moments[0]
	}
	return real(tf.Eval(0))
}

// GainMagAt returns |H(jω)|.
func (tf *TF) GainMagAt(w float64) float64 {
	return cmplx.Abs(tf.Eval(complex(0, w)))
}

// UGF returns the unity-gain frequency in rad/s, or 0 when |H| never
// crosses 1 (e.g. DC gain below unity).
func (tf *TF) UGF() float64 {
	if math.Abs(tf.DCGain()) <= 1 {
		return 0
	}
	if tf.Order == 0 {
		return 0
	}
	// Bracket by log sweep from two decades below the slowest pole to
	// two decades above the fastest.
	lo, hi := tf.poleFreqRange()
	wLo := lo / 100
	wHi := hi * 100
	if wLo <= 0 {
		wLo = 1e-3
	}
	if tf.gainSide(wLo, 1, 1) < 0 {
		return 0 // already below unity at the low edge
	}
	const steps = 400
	ratio := math.Pow(wHi/wLo, 1.0/steps)
	prevW, w := wLo, wLo
	for i := 0; i < steps; i++ {
		w *= ratio
		if tf.gainSide(w, 1, 1) <= 0 {
			return tf.bisect(prevW, w, 1, 1)
		}
		prevW = w
	}
	return 0
}

// gainSide compares |H(jω)| with the threshold t, whose square is t2: it
// returns +1, 0 or −1 as the gain lies above, at or below t, and NaN when
// the gain is NaN, so comparing the result with 0 reads like comparing
// |H(jω)| with t. Away from t it decides on re² + im², which rounds by at
// most 2.3e-16 relative: outside the 1e-12 band around t2 the decision is
// the one cmplx.Abs gives. Inside the band, and where the squares may
// overflow or underflow (re² + im² outside [1e-280, 1e280]), cmplx.Abs
// decides.
func (tf *TF) gainSide(w, t, t2 float64) float64 {
	h := tf.Eval(complex(0, w))
	re, im := real(h), imag(h)
	if s := re*re + im*im; s >= 1e-280 && s <= 1e280 {
		switch {
		case s > t2*(1+1e-12):
			return 1
		case s < t2*(1-1e-12):
			return -1
		}
	}
	switch m := cmplx.Abs(h); {
	case m > t:
		return 1
	case m < t:
		return -1
	case m == t:
		return 0
	}
	return math.NaN()
}

// bisect narrows [a, b], where |H| falls from above the threshold t
// (t2 = t²) to at or below it, by up to 80 geometric bisections and
// returns the midpoint. A step is a pure function of (a, b), so the
// first step that leaves both unchanged has reached the fixed point the
// remaining steps would repeat, and the search stops there.
func (tf *TF) bisect(a, b, t, t2 float64) float64 {
	for it := 0; it < 80; it++ {
		mid := math.Sqrt(a * b)
		if tf.gainSide(mid, t, t2) > 0 {
			if mid == a {
				break
			}
			a = mid
		} else {
			if mid == b {
				break
			}
			b = mid
		}
	}
	return math.Sqrt(a * b)
}

// poleFreqRange returns the min and max nonzero pole/zero magnitudes.
func (tf *TF) poleFreqRange() (lo, hi float64) {
	lo, hi = math.Inf(1), 0
	consider := func(c complex128) {
		a := cmplx.Abs(c)
		if a == 0 {
			return
		}
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	for _, p := range tf.Poles {
		consider(p)
	}
	for _, z := range tf.Zeros {
		consider(z)
	}
	if math.IsInf(lo, 1) {
		lo, hi = 1, 1
	}
	return lo, hi
}

// PhaseDegAt returns the unwrapped phase of H(jω) in degrees, computed
// from the pole/zero factorization so no numeric unwrapping is needed:
//
//	∠H = ∠K + Σ ∠(jω - z_k) - Σ ∠(jω - p_i)
func (tf *TF) PhaseDegAt(w float64) float64 {
	if tf.Order == 0 {
		if tf.DCGain() < 0 {
			return -180
		}
		return 0
	}
	phase := 0.0
	for _, z := range tf.Zeros {
		phase += contAngle(w, z)
	}
	for _, p := range tf.Poles {
		phase -= contAngle(w, p)
	}
	// Leading coefficient: H(s) ≈ (Σk_i)·s^{q-1}/s^q … the constant K
	// has the sign that reconciles the DC gain with the factored form.
	k := tf.DCGain()
	for _, z := range tf.Zeros {
		k /= cmplx.Abs(z)
	}
	for _, p := range tf.Poles {
		k *= cmplx.Abs(p)
	}
	// At ω=0 the factored sum already contributes each root's DC angle;
	// subtract it so phase(0) is 0 for K>0 and ±180 for K<0.
	dc := 0.0
	for _, z := range tf.Zeros {
		dc += contAngle(0, z)
	}
	for _, p := range tf.Poles {
		dc -= contAngle(0, p)
	}
	phase -= dc
	if k < 0 {
		phase -= math.Pi
	}
	return phase * 180 / math.Pi
}

// contAngle is the angle of (jω - r) continued from ω = 0: for a
// right-half-plane root with positive imaginary part the trajectory of
// the point (-Re r, ω - Im r) crosses the negative real axis upward at
// ω = Im r, where principal atan2 jumps by +2π relative to the
// continuous angle — exactly a full turn of spurious phase margin if
// left uncorrected.
func contAngle(w float64, r complex128) float64 {
	a := math.Atan2(w-imag(r), -real(r))
	if real(r) > 0 && imag(r) > 0 && w > imag(r) {
		a -= 2 * math.Pi
	}
	return a
}

// PhaseMarginDeg returns 180° + ∠H(j·UGF); 0 when there is no UGF.
func (tf *TF) PhaseMarginDeg() float64 {
	return tf.PhaseMarginAt(tf.UGF())
}

// PhaseMarginAt is PhaseMarginDeg for a unity-gain frequency wu (rad/s)
// the caller already has from UGF: 180° + ∠H(j·wu), 0 when wu is 0.
func (tf *TF) PhaseMarginAt(wu float64) float64 {
	if wu == 0 {
		return 0
	}
	return 180 + tf.PhaseDegAt(wu)
}

// BW3dB returns the -3 dB bandwidth in rad/s (0 if the gain never drops
// below |H(0)|/√2 within the scanned range).
func (tf *TF) BW3dB() float64 {
	g0 := math.Abs(tf.DCGain())
	if g0 == 0 || tf.Order == 0 {
		return 0
	}
	target := g0 / math.Sqrt2
	t2 := target * target
	lo, hi := tf.poleFreqRange()
	wLo, wHi := lo/100, hi*100
	a, b := wLo, wLo
	found := false
	const steps = 400
	ratio := math.Pow(wHi/wLo, 1.0/steps)
	w := wLo
	for i := 0; i < steps; i++ {
		next := w * ratio
		if tf.gainSide(next, target, t2) <= 0 {
			a, b = w, next
			found = true
			break
		}
		w = next
	}
	if !found {
		return 0
	}
	return tf.bisect(a, b, target, t2)
}

// DominantPole returns the pole with the smallest magnitude (0 if none).
func (tf *TF) DominantPole() complex128 {
	var best complex128
	bestMag := math.Inf(1)
	for _, p := range tf.Poles {
		if a := cmplx.Abs(p); a < bestMag {
			bestMag, best = a, p
		}
	}
	if math.IsInf(bestMag, 1) {
		return 0
	}
	return best
}

// Stable reports whether all poles lie in the open left half plane.
func (tf *TF) Stable() bool {
	for _, p := range tf.Poles {
		if real(p) >= 0 {
			return false
		}
	}
	return true
}
