package awe

import (
	"math"
	"math/cmplx"

	"astrx/internal/linalg"
)

// FitWorkspace holds every scratch buffer the scaled Padé fit needs, so
// a steady-state fit performs no heap allocation. The zero value is
// ready to use; one workspace serves one goroutine.
type FitWorkspace struct {
	scaled []float64

	// solveHankel and fitOrder scratch
	h      linalg.Matrix
	hscale []float64
	hpiv   []int
	acoef  []float64
	poly   []complex128
	rf     linalg.RootFinder
	v      linalg.CMatrix
	vlu    linalg.CLU
	mvec   []complex128
	cvec   []complex128
	lamPow []complex128

	// order-search candidates (value copies, not aliases, because the
	// try buffer is overwritten by the next order attempted)
	try, keepBest, keepVal TF
	// deferred lists, from high to low, the orders the top-down pass
	// left for later because they cannot be stable, and dcoef their
	// Hankel solutions, one after another.
	deferred []int
	dcoef    []float64

	// deriveZeros scratch
	num, term, tnext []complex128

	counts FitCounts
}

// FitCounts tallies a FitWorkspace's Padé order searches since it was
// created. Every fit ends in exactly one of the four outcomes, so they
// sum to Fits.
type FitCounts struct {
	// Fits counts FitMomentsInto calls.
	Fits uint64
	// Attempts counts the orders the searches fitted, in either pass.
	// An order whose Hankel system is singular counts.
	Attempts uint64
	// Deferred counts the orders the top-down pass deferred because
	// they cannot be stable and the search then never fitted.
	Deferred uint64
	// ValidatedStable counts fits that returned a stable order that
	// reproduces every moment; ValidatedUnstable fits where only
	// unstable orders did. Unvalidated counts fits that returned the
	// best-scoring order because no order reproduced every moment, and
	// Constant fits that returned the constant model because no order
	// fitted at all (or every moment was zero).
	ValidatedStable, ValidatedUnstable, Unvalidated, Constant uint64
}

// Counts returns the workspace's fit counts.
func (ws *FitWorkspace) Counts() FitCounts { return ws.counts }

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growC(s []complex128, n int) []complex128 {
	if cap(s) < n {
		return make([]complex128, n)
	}
	return s[:n]
}

func reuseMat[T linalg.Scalar](m *linalg.Dense[T], r, c int) {
	if cap(m.Data) < r*c {
		m.Data = make([]T, r*c)
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:r*c]
}

// copyInto overwrites dst's pole/residue/order fields with src's values,
// reusing dst's backing arrays.
func copyInto(dst, src *TF) {
	dst.Poles = append(dst.Poles[:0], src.Poles...)
	dst.Residues = append(dst.Residues[:0], src.Residues...)
	dst.Order = src.Order
}

// testHookFit, when set, sees every fit as FitMomentsInto returns: the
// moments, the order asked for and the model. Tests set it to replay a
// synthesis run's fits through a reference search.
var testHookFit func(mu []float64, q int, tf *TF)

// FitMomentsInto is FitMoments with caller-owned result and workspace
// storage: dst is fully overwritten (its slices are reused), and no
// allocation happens once the workspace has warmed up. The arithmetic is
// identical to the original allocating implementation, so results are
// bit-exact with FitMoments.
func (ws *FitWorkspace) FitMomentsInto(dst *TF, mu []float64, q int) {
	ws.fitMoments(dst, mu, q)
	if testHookFit != nil {
		testHookFit(mu, q, dst)
	}
}

// fitMoments is FitMomentsInto without the test hook.
func (ws *FitWorkspace) fitMoments(dst *TF, mu []float64, q int) {
	ws.counts.Fits++
	// Fewer than two moments determine no pole: the constant model.
	if len(mu) < 2 {
		ws.counts.Constant++
		dst.SetConstant(mu)
		return
	}
	if 2*q > len(mu) {
		q = len(mu) / 2
	}
	mu0 := mu[0]
	// A (near) zero DC value with zero higher moments is a dead output.
	allZero := true
	for _, m := range mu {
		if m != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		ws.counts.Constant++
		dst.SetConstant(mu)
		return
	}

	// Frequency scaling: μ'_k = μ_k / (μ_ref · β^k) keeps the Hankel
	// system well conditioned. β estimates the dominant time constant.
	beta := 1.0
	if mu0 != 0 && mu[1] != 0 {
		beta = math.Abs(mu[1] / mu0)
	} else {
		// Fall back to the first nonzero ratio.
		for k := 0; k+1 < len(mu); k++ {
			if mu[k] != 0 && mu[k+1] != 0 {
				beta = math.Abs(mu[k+1] / mu[k])
				break
			}
		}
	}
	if beta == 0 || math.IsInf(beta, 0) || math.IsNaN(beta) {
		beta = 1
	}
	ref := mu0
	if ref == 0 {
		ref = 1
	}
	ws.scaled = growF(ws.scaled, len(mu))
	scaled := ws.scaled
	bk := 1.0
	for k := range mu {
		scaled[k] = mu[k] / (ref * bk)
		bk *= beta
	}

	// Search orders from high to low and stop at the first *stable*
	// validated fit — equivalent to picking the highest validated stable
	// order, but the common case costs one or two fits instead of q. An
	// unstable validated fit wins only when no stable order reproduced
	// the moments (a genuinely unstable circuit): spurious RHP poles at
	// the edge of moment resolution are rejected in favor of the stable
	// fit one order down.
	//
	// An order whose characteristic polynomial has a negative
	// coefficient cannot give a stable model (cannotBeStable), so the
	// top-down pass defers it without finding its roots. Should the pass
	// end with no stable validated order, the deferred orders above the
	// highest validated one are fitted after all: such an order could
	// still be the answer as a higher unstable validated order or as the
	// best score. Either way the search returns the order the full
	// top-down search returns.
	s := orderSearch{bestScore: math.Inf(1)}
	ws.deferred, ws.dcoef = ws.deferred[:0], ws.dcoef[:0]
	for order := q; order >= 1 && !s.stable; order-- {
		ok := ws.solveHankel(scaled, order)
		if ok && cannotBeStable(ws.acoef) {
			ws.deferred = append(ws.deferred, order)
			ws.dcoef = append(ws.dcoef, ws.acoef...)
			continue
		}
		ws.counts.Attempts++
		if ok {
			ws.consider(&s, scaled, order)
		}
	}
	fitted, off := 0, 0
	for _, order := range ws.deferred {
		if s.stable || (s.validated != nil && order <= s.validated.Order) {
			break
		}
		fitted++
		ws.acoef = append(ws.acoef[:0], ws.dcoef[off:off+order]...)
		off += order
		ws.consider(&s, scaled, order)
	}
	ws.counts.Attempts += uint64(fitted)
	ws.counts.Deferred += uint64(len(ws.deferred) - fitted)
	best := s.best
	switch {
	case s.stable:
		ws.counts.ValidatedStable++
		best = s.validated
	case s.validated != nil:
		ws.counts.ValidatedUnstable++
		best = s.validated
	case best != nil:
		ws.counts.Unvalidated++
	default:
		// Purely resistive response (or numerically dead): constant TF.
		ws.counts.Constant++
		dst.SetConstant(mu)
		return
	}
	copyInto(dst, best)
	// Unscale: μ'_k = Σ(c_i/ref)(λ_i/β)^k, so λ = β·λ' and hence
	// p = 1/λ = p'/β; residues k = -c·p = (ref/β)·k'.
	for i := range dst.Poles {
		dst.Poles[i] /= complex(beta, 0)
		dst.Residues[i] *= complex(ref/beta, 0)
	}
	dst.Moments = append(dst.Moments[:0], mu...)
	ws.deriveZerosInto(dst)
}

// SetConstant overwrites tf with the order-0 (constant) model of the
// moments mu, reusing its slices: DCGain reads mu[0], and the model has
// no poles or zeros.
func (tf *TF) SetConstant(mu []float64) {
	tf.Poles = tf.Poles[:0]
	tf.Residues = tf.Residues[:0]
	tf.Zeros = tf.Zeros[:0]
	tf.Moments = append(tf.Moments[:0], mu...)
	tf.Order = 0
}

// orderSearch is the state of one order search: the best-scoring
// fitted order, the validated order and whether it is stable.
type orderSearch struct {
	best, validated *TF
	bestScore       float64
	stable          bool
}

// consider fits the order whose Hankel solution is in ws.acoef and
// merges it into the search.
func (ws *FitWorkspace) consider(s *orderSearch, mu []float64, order int) {
	if errMax, ok := ws.fitOrder(mu, order); ok {
		ws.try.Order = order
		s.merge(ws, errMax)
	}
}

// merge adds the fitted order in ws.try, whose worst relative moment
// error is errMax, to the search: the highest validated order wins, a
// stable one ending the search; without one, the lowest score wins,
// ties going to the higher order. Orders merged top-down, as the first
// pass merges them, end as they did when every order was fitted in
// turn; the rules also hold for the higher orders the second pass
// merges afterwards.
func (s *orderSearch) merge(ws *FitWorkspace, errMax float64) {
	tf := &ws.try
	score := errMax
	if !tf.Stable() {
		score *= 1e6 // strongly prefer stable fits in the fallback
	}
	if score < s.bestScore || (s.best != nil && score == s.bestScore && tf.Order > s.best.Order) {
		s.bestScore = score
		copyInto(&ws.keepBest, tf)
		s.best = &ws.keepBest
	}
	if errMax < 1e-9 {
		if tf.Stable() {
			copyInto(&ws.keepVal, tf)
			s.validated = &ws.keepVal
			s.stable = true
			return
		}
		if s.validated == nil || tf.Order > s.validated.Order {
			copyInto(&ws.keepVal, tf) // keep looking for a stable one below
			s.validated = &ws.keepVal
		}
	}
}

// cannotBeStable reports that the characteristic polynomial
// λ^q + a_{q-1}λ^{q-1} + … + a_0 of the coefficients a has a coefficient
// below −1e-8·(1 + Σ|a_k|). A real polynomial whose roots all lie in the
// open left half-plane has only positive coefficients (Hurwitz's
// necessary condition), and the model's poles are 1/(βλ) with the
// frequency scale β > 0, so such an order cannot give a stable model. The margin sits far above
// the coefficients' rounding: over the benchmark corpora, no stable
// validated order had a coefficient below −6e-26·(1 + Σ|a_k|). NaN and
// infinite coefficients never fail the test.
func cannotBeStable(a []float64) bool {
	sum := 1.0
	for _, c := range a {
		sum += math.Abs(c)
	}
	tol := -1e-8 * sum
	for _, c := range a {
		if c < tol {
			return true
		}
	}
	return false
}

// solveHankel solves the order-q Hankel system of the scaled moments mu,
// Σ_j a_j μ_{k+j} = -μ_{k+q} for k = 0..q-1, into ws.acoef. It reports
// false when the system is singular.
func (ws *FitWorkspace) solveHankel(mu []float64, q int) bool {
	reuseMat(&ws.h, q, q)
	ws.acoef = growF(ws.acoef, q)
	for k := 0; k < q; k++ {
		copy(ws.h.Data[k*q:k*q+q], mu[k:k+q])
		ws.acoef[k] = -mu[k+q]
	}
	ws.hscale = growF(ws.hscale, q)
	if cap(ws.hpiv) < q {
		ws.hpiv = make([]int, q)
	}
	return luSolve(ws.h.Data, q, ws.acoef, ws.hscale, ws.hpiv[:q])
}

// luSolve solves the n×n system a·x = b in place: a (row-major) is
// overwritten by its LU factors and b by x; scale and piv are n-long
// scratch. It reports false where linalg.LU.Factor returns ErrSingular.
//
// It is linalg.LU's arithmetic without that factorizer's bookkeeping:
// the same implicit row scaling and pivot rule, multipliers formed as
// x·(1/pivot), the row permutation applied before forward substitution,
// and the same zero skips in both solves, so every bit of x, signed
// zeros included, matches LU.Factor then LU.SolveInto. LU also scans
// for −0 and non-finite entries and records the factors' nonzero
// structure so that sparse MNA solves can skip structural zeros; the
// elimination here runs the plain loops, which LU's own comment shows
// give the same factors, and a dense Hankel system of order 8 or less
// has no structure worth recording.
func luSolve(a []float64, n int, b, scale []float64, piv []int) bool {
	for i := 0; i < n; i++ {
		big := 0.0
		for _, x := range a[i*n : i*n+n] {
			if v := math.Abs(x); v > big {
				big = v
			}
		}
		if big == 0 {
			return false
		}
		scale[i] = 1 / big
	}
	for k := 0; k < n; k++ {
		p, big := k, 0.0
		for i := k; i < n; i++ {
			if v := scale[i] * math.Abs(a[i*n+k]); v > big {
				big, p = v, i
			}
		}
		if p != k {
			rk, rp := a[k*n:k*n+n], a[p*n:p*n+n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			scale[k], scale[p] = scale[p], scale[k]
		}
		piv[k] = p
		pv := a[k*n+k]
		if math.Abs(pv) < 1e-300 {
			return false
		}
		inv := 1 / pv
		rowk := a[k*n+k+1 : k*n+n]
		for i := k + 1; i < n; i++ {
			l := a[i*n+k] * inv
			a[i*n+k] = l
			if l == 0 {
				continue
			}
			rowi := a[i*n+k+1 : i*n+n]
			for j, u := range rowk {
				rowi[j] -= l * u
			}
		}
	}
	for k, p := range piv {
		if p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	// Forward substitution skips a zero right-hand side and, unless it
	// is non-finite, the zero multipliers; back substitution skips the
	// zeros of U until a solved entry is non-finite. Subtracting a zero
	// product could turn a −0 target into +0.
	for k := 0; k < n; k++ {
		bk := b[k]
		if bk == 0 {
			continue
		}
		all := bk-bk != 0 // ±Inf or NaN
		for i := k + 1; i < n; i++ {
			if l := a[i*n+k]; l != 0 || all {
				b[i] -= l * bk
			}
		}
	}
	plain := false
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		row := a[i*n : i*n+n]
		for j := i + 1; j < n; j++ {
			if u := row[j]; u != 0 || plain {
				s -= u * b[j]
			}
		}
		x := s / row[i]
		b[i] = x
		if x-x != 0 {
			plain = true
		}
	}
	return true
}

// fitOrder completes the order-q Padé fit of the scaled moments mu from
// the Hankel solution in ws.acoef, using the first 2q
// moments for the fit and every available moment for validation. On
// success the candidate is left in ws.try and the worst relative
// moment-reproduction error is returned.
func (ws *FitWorkspace) fitOrder(mu []float64, q int) (float64, bool) {
	// Characteristic polynomial λ^q + a_{q-1} λ^{q-1} + … + a_0 = 0.
	ws.poly = growC(ws.poly, q+1)
	for j := 0; j < q; j++ {
		ws.poly[j] = complex(ws.acoef[j], 0)
	}
	ws.poly[q] = 1
	lambda, err := ws.rf.Roots(ws.poly)
	if err != nil {
		return 0, false
	}
	maxL := 0.0
	for _, l := range lambda {
		if l == 0 || cmplx.IsNaN(l) || cmplx.IsInf(l) {
			return 0, false
		}
		if a := cmplx.Abs(l); a > maxL {
			maxL = a
		}
	}
	// Rank-deficiency signatures: (a) duplicated characteristic roots —
	// a true root split in two plus arbitrary extras; (b) roots many
	// decades below the dominant one, i.e. "poles" far beyond what 2q
	// double-precision moments can resolve.
	for i := range lambda {
		if cmplx.Abs(lambda[i]) < 1e-9*maxL {
			return 0, false
		}
		for j := i + 1; j < len(lambda); j++ {
			if cmplx.Abs(lambda[i]-lambda[j]) < 1e-6*maxL {
				return 0, false
			}
		}
	}
	// Residue recovery: μ_k = Σ c_i λ_i^k for k = 0..q-1 (Vandermonde).
	reuseMat(&ws.v, q, q)
	for i := 0; i < q; i++ {
		p := complex128(1)
		for k := 0; k < q; k++ {
			ws.v.Set(k, i, p)
			p *= lambda[i]
		}
	}
	if err := ws.vlu.Factor(&ws.v); err != nil {
		return 0, false
	}
	ws.mvec = growC(ws.mvec, q)
	for k := 0; k < q; k++ {
		ws.mvec[k] = complex(mu[k], 0)
	}
	ws.cvec = growC(ws.cvec, q)
	ws.vlu.SolveInto(ws.cvec, ws.mvec)
	c := ws.cvec

	// Rank-deficiency guard: when the circuit has fewer than q observable
	// poles the Hankel system is (numerically) rank deficient and the
	// solver returns a recurrence whose extra characteristic roots are
	// arbitrary. Those spurious poles carry essentially zero residue, so
	// their presence is detected here and the order is reduced.
	maxC := 0.0
	for _, ci := range c {
		if a := cmplx.Abs(ci); a > maxC {
			maxC = a
		}
	}
	if maxC == 0 {
		return 0, false
	}
	for _, ci := range c {
		if cmplx.Abs(ci) < 1e-8*maxC {
			return 0, false
		}
	}
	// Massive residue cancellation (Σc must equal μ'_0, which is O(1)
	// after scaling) marks an ill-conditioned split of a true pole.
	if maxC > 1e6*(math.Abs(mu[0])+1e-12) {
		return 0, false
	}

	// Validate: the model must reproduce every available moment, not just
	// the 2q used for the fit. The worst relative error is the fit score.
	// (λ^k is carried multiplicatively — cmplx.Pow in this loop was a
	// measurable fraction of the whole synthesis runtime.)
	errMax := 0.0
	ws.lamPow = growC(ws.lamPow, q)
	lamPow := ws.lamPow
	for i := range lamPow {
		lamPow[i] = cmplx.Pow(lambda[i], complex(float64(q), 0))
	}
	for k := q; k < len(mu); k++ {
		pred := complex128(0)
		for i := 0; i < q; i++ {
			pred += c[i] * lamPow[i]
			lamPow[i] *= lambda[i]
		}
		scale := math.Abs(mu[0]) + math.Abs(mu[k]) + 1e-12
		if e := math.Abs(real(pred)-mu[k]) / scale; e > errMax {
			errMax = e
		}
	}

	ws.try.Poles = ws.try.Poles[:0]
	ws.try.Residues = ws.try.Residues[:0]
	for i := 0; i < q; i++ {
		// λ_i = 1/p_i, residue k_i = -c_i·p_i.
		p := 1 / lambda[i]
		ws.try.Poles = append(ws.try.Poles, p)
		ws.try.Residues = append(ws.try.Residues, -c[i]*p)
	}
	return errMax, true
}

// deriveZeros recomputes tf.Zeros from its poles and residues with
// throwaway scratch (tests use it directly; hot paths go through
// FitWorkspace.deriveZerosInto).
func (tf *TF) deriveZeros() {
	var ws FitWorkspace
	ws.deriveZerosInto(tf)
}

// deriveZerosInto expands the numerator polynomial
// N(s) = Σ k_i·Π_{j≠i}(s-p_j) in a frequency-normalized variable and
// roots it, writing tf.Zeros in place.
func (ws *FitWorkspace) deriveZerosInto(tf *TF) {
	q := len(tf.Poles)
	if q <= 1 {
		tf.Zeros = tf.Zeros[:0]
		return
	}
	// Normalize by the geometric mean pole magnitude for conditioning.
	w0 := 1.0
	prod := 1.0
	for _, p := range tf.Poles {
		prod *= cmplx.Abs(p)
	}
	if prod > 0 {
		w0 = math.Pow(prod, 1/float64(q))
	}
	// N(σ) with s = w0·σ: Σ (k_i/w0^{q-1}) Π_{j≠i}(σ - p_j/w0)
	ws.num = growC(ws.num, q) // degree q-1
	num := ws.num
	for t := range num {
		num[t] = 0
	}
	for i := 0; i < q; i++ {
		ws.term = append(ws.term[:0], tf.Residues[i])
		term := ws.term
		for j := 0; j < q; j++ {
			if j == i {
				continue
			}
			pj := tf.Poles[j] / complex(w0, 0)
			ws.tnext = growC(ws.tnext, len(term)+1)
			next := ws.tnext
			for t := range next {
				next[t] = 0
			}
			for t, co := range term {
				next[t+1] += co
				next[t] -= co * pj
			}
			ws.term, ws.tnext = next, term
			term = ws.term
		}
		for t := range term {
			num[t] += term[t]
		}
	}
	// Degenerate numerators (all ~0 relative to residues) → no zeros.
	mag := 0.0
	for _, co := range num {
		if a := cmplx.Abs(co); a > mag {
			mag = a
		}
	}
	if mag == 0 {
		tf.Zeros = tf.Zeros[:0]
		return
	}
	roots, err := ws.rf.Roots(num)
	if err != nil {
		tf.Zeros = tf.Zeros[:0]
		return
	}
	// Keep only zeros within a few decades of the pole cluster: roots
	// far outside are artifacts of a numerically tiny leading numerator
	// coefficient and carry no signal.
	maxPole := 0.0
	for _, p := range tf.Poles {
		if a := cmplx.Abs(p); a > maxPole {
			maxPole = a
		}
	}
	tf.Zeros = tf.Zeros[:0]
	for _, r := range roots {
		r *= complex(w0, 0)
		if cmplx.Abs(r) <= 1e4*maxPole {
			tf.Zeros = append(tf.Zeros, r)
		}
	}
}
