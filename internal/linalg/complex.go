package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// CLU is an LU factorization with partial pivoting of a square complex
// matrix.
type CLU struct {
	n     int
	lu    []complex128
	pivot []int
}

// Factor recomputes the factorization of a in place, reusing the
// receiver's storage (see LU.Factor).
func (f *CLU) Factor(a *CMatrix) error {
	if a.Rows != a.Cols {
		panic("linalg: CLU.Factor requires a square matrix")
	}
	n := a.Rows
	f.n = n
	if cap(f.lu) < n*n {
		f.lu = make([]complex128, n*n)
		f.pivot = make([]int, n)
	}
	f.lu = f.lu[:n*n]
	f.pivot = f.pivot[:n]
	copy(f.lu, a.Data)

	for k := 0; k < n; k++ {
		p, big := k, 0.0
		for i := k; i < n; i++ {
			if v := cmplx.Abs(f.lu[i*n+k]); v > big {
				big, p = v, i
			}
		}
		if big < 1e-300 {
			return ErrSingular
		}
		if p != k {
			rk := f.lu[k*n : k*n+n]
			rp := f.lu[p*n : p*n+n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		f.pivot[k] = p
		inv := 1 / f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] * inv
			f.lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowi := f.lu[i*n+k+1 : i*n+n]
			rowk := f.lu[k*n+k+1 : k*n+n]
			for j := range rowi {
				rowi[j] -= l * rowk[j]
			}
		}
	}
	return nil
}

// Solve solves A·x = b; the result is freshly allocated.
func (f *CLU) Solve(b []complex128) []complex128 {
	if len(b) != f.n {
		panic("linalg: CLU.Solve dimension mismatch")
	}
	x := make([]complex128, f.n)
	copy(x, b)
	f.SolveInPlace(x)
	return x
}

// SolveInto solves A·x = b writing x into dst without allocating; dst
// may alias b.
func (f *CLU) SolveInto(dst, b []complex128) {
	if len(b) != f.n || len(dst) != f.n {
		panic("linalg: CLU.SolveInto dimension mismatch")
	}
	copy(dst, b)
	f.SolveInPlace(dst)
}

// SolveInPlace solves A·x = b overwriting b with x.
func (f *CLU) SolveInPlace(b []complex128) {
	n := f.n
	// Full row permutation first, then forward substitution (see the
	// real-valued LU for why the two loops must not be interleaved).
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	for k := 0; k < n; k++ {
		bk := b[k]
		if bk == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			b[i] -= f.lu[i*n+k] * bk
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := f.lu[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * b[j]
		}
		b[i] = s / row[i]
	}
}

// RootFinder finds all complex roots of a polynomial with the
// Aberth–Ehrlich simultaneous iteration, which is robust for the modest
// degrees (q ≤ 10) that AWE Padé reduction needs and converges
// cubically — a typical Padé characteristic polynomial finishes in
// under a dozen sweeps where Durand–Kerner needed several times that.
// The zero value is ready to use; after the first call, Roots allocates
// nothing for polynomials of the same or smaller degree.
type RootFinder struct {
	coef  []complex128
	roots []complex128
	done  []bool
	hullX []int
	hullY []float64
}

// Roots returns the roots of the polynomial
//
//	c[0] + c[1]·x + c[2]·x² + … + c[n]·xⁿ
//
// after trimming leading zero coefficients. It returns an error when
// the degree is below 1 or the iteration fails to converge. The
// returned slice aliases the finder's storage and is only valid until
// the next Roots call.
func (rf *RootFinder) Roots(c []complex128) ([]complex128, error) {
	// Trim leading (highest-degree) zeros.
	deg := len(c) - 1
	for deg > 0 && c[deg] == 0 {
		deg--
	}
	if deg <= 0 {
		return nil, fmt.Errorf("linalg: Roots: degree %d polynomial has no roots", deg)
	}
	// Normalize to monic to improve conditioning.
	if cap(rf.coef) < deg+1 {
		rf.coef = make([]complex128, deg+1)
		rf.roots = make([]complex128, deg)
		rf.done = make([]bool, deg)
		rf.hullX = make([]int, deg+1)
		rf.hullY = make([]float64, deg+1)
	}
	coef := rf.coef[:deg+1]
	lead := c[deg]
	for i := 0; i <= deg; i++ {
		coef[i] = c[i] / lead
	}
	roots := rf.roots[:deg]
	done := rf.done[:deg]
	rf.initialGuesses(coef, roots, deg)
	for i := range done {
		done[i] = false
	}

	// Aberth–Ehrlich: z_i ← z_i − w/(1 − w·β) with w = p(z_i)/p'(z_i)
	// and β = Σ_{j≠i} 1/(z_i − z_j). Updates are applied in place
	// (Gauss–Seidel style), which speeds convergence further. Division
	// is inlined as the naive quotient — the runtime's scaled complex
	// division was a measurable cost on this innermost synthesis path —
	// with a fallback when intermediates leave float64 range.
	const maxIter = 500
	for iter := 0; iter < maxIter; iter++ {
		maxStep2 := 0.0
		for i := range roots {
			if done[i] {
				continue // frozen: stays put, still seen in others' β sums
			}
			z := roots[i]
			// p and p' in one Horner pass over the monic polynomial.
			p := complex128(1)
			dp := complex128(0)
			for t := deg - 1; t >= 0; t-- {
				dp = dp*z + p
				p = p*z + coef[t]
			}
			if p == 0 {
				done[i] = true // exact root: zero step
				continue
			}
			// w = p/p'.
			wr, wi, ok := cdivInline(p, dp)
			if !ok {
				roots[i] += complex(1e-8, 1e-8) // p' ~ 0: perturb off the extremum
				continue
			}
			// β = Σ 1/(z − z_j), via conj(d)/|d|².
			br, bi := 0.0, 0.0
			coincident := false
			for j := range roots {
				if j == i {
					continue
				}
				dr := real(z) - real(roots[j])
				di := imag(z) - imag(roots[j])
				d2 := dr*dr + di*di
				if d2 == 0 {
					coincident = true
					break
				}
				br += dr / d2
				bi += -di / d2
			}
			if coincident {
				roots[i] += complex(1e-8, 1e-8)
				continue
			}
			// step = w / (1 − w·β).
			den := complex(1-(wr*br-wi*bi), -(wr*bi + wi*br))
			sr, si, ok := cdivInline(complex(wr, wi), den)
			if !ok {
				sr, si = wr, wi // degenerate denominator: plain Newton step
			}
			roots[i] = complex(real(z)-sr, imag(z)-si)
			a := sr*sr + si*si
			if a > maxStep2 {
				maxStep2 = a
			}
			// Freeze a root once its own step is below the convergence
			// tolerance at its own magnitude; later sweeps skip its
			// (dominant) Horner + β work. Frozen roots would contribute
			// nothing to maxStep2 anyway, so the global criterion is
			// unchanged.
			if a < 1e-26*math.Max(1, abs2(roots[i])) {
				done[i] = true
			}
		}
		scale2 := 1.0
		for _, r := range roots {
			if a := abs2(r); a > scale2 {
				scale2 = a
			}
		}
		// maxStep < 1e-13·scale, compared on squared magnitudes.
		if maxStep2 < 1e-26*scale2 {
			return roots, nil
		}
	}
	return roots, fmt.Errorf("linalg: Roots failed to converge for degree %d", deg)
}

// initialGuesses seeds the iteration using Bini's Newton-polygon
// construction (as in MPSolve): the upper convex hull of the points
// (i, log|coef_i|) partitions the roots into groups whose magnitudes
// the hull-segment slopes estimate. Padé characteristic polynomials
// have roots spread over many decades — parasitic poles sit far from
// the dominant one — and seeding every root on a single Cauchy-bound
// circle made the small ones spiral inward for dozens of sweeps.
// Per-segment radii start each root near its own magnitude scale, so
// the Aberth sweep converges in a handful of iterations regardless of
// spread. The construction is a pure function of the coefficients,
// keeping Roots deterministic for the golden eval values
// (internal/bench/testdata/eval_golden.json).
func (rf *RootFinder) initialGuesses(coef []complex128, roots []complex128, deg int) {
	hx := rf.hullX[:0]
	hy := rf.hullY[:0]
	for i := 0; i <= deg; i++ {
		if coef[i] == 0 {
			continue
		}
		y := math.Log(cmplx.Abs(coef[i]))
		// Monotone-chain upper hull: pop while the middle point lies on
		// or below the chord from hx[-2] to the new point.
		for len(hx) >= 2 {
			x1, y1 := hx[len(hx)-2], hy[len(hy)-2]
			x2, y2 := hx[len(hx)-1], hy[len(hy)-1]
			if (y2-y1)*float64(i-x1) >= (y-y1)*float64(x2-x1) {
				break
			}
			hx = hx[:len(hx)-1]
			hy = hy[:len(hy)-1]
		}
		hx = append(hx, i)
		hy = append(hy, y)
	}
	rf.hullX, rf.hullY = hx, hy
	idx := 0
	for s := 0; s+1 < len(hx); s++ {
		m := hx[s+1] - hx[s]
		r := math.Exp((hy[s] - hy[s+1]) / float64(m))
		for t := 0; t < m; t++ {
			theta := 2*math.Pi*float64(idx)/float64(deg) + 0.4
			roots[idx] = cmplx.Rect(r, theta)
			idx++
		}
	}
	// A zero constant term (hull starting above index 0) means the
	// remaining roots are exactly zero; p(0)=0 keeps them fixed there.
	for ; idx < deg; idx++ {
		roots[idx] = 0
	}
}

// cdivInline computes a/b as the naive quotient, reporting ok=false when
// the result is not finite (b ~ 0 or intermediates overflow); callers
// choose their own fallback. It first retries via the runtime's scaled
// complex division, which survives intermediate over/underflow.
func cdivInline(a, b complex128) (re, im float64, ok bool) {
	d2 := abs2(b)
	re = (real(a)*real(b) + imag(a)*imag(b)) / d2
	im = (imag(a)*real(b) - real(a)*imag(b)) / d2
	if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
		q := a / b
		re, im = real(q), imag(q)
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return re, im, false
		}
	}
	return re, im, true
}

// abs2 is |x|² without the square root (and without Hypot's
// over/underflow guards, which the convergence tests don't need).
func abs2(x complex128) float64 {
	re, im := real(x), imag(x)
	return re*re + im*im
}

// PolyEval evaluates the polynomial c[0] + c[1]x + … at x.
func PolyEval(c []complex128, x complex128) complex128 {
	s := complex128(0)
	for i := len(c) - 1; i >= 0; i-- {
		s = s*x + c[i]
	}
	return s
}
