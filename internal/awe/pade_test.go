package awe

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"astrx/internal/linalg"
)

// refFitMomentsInto, refTryFit, refUGF and refBW3dB are the Padé order
// search, one order's fit, and the unity-gain and −3 dB searches as they
// were written before the search deferred orders that cannot be stable
// and before the frequency searches stopped at their fixed point, kept
// verbatim as the oracle the current code must reproduce bit for bit.
// refFitMomentsInto still indexes mu[0] and mu[1], so it takes at least
// two moments.

func (ws *FitWorkspace) refFitMomentsInto(dst *TF, mu []float64, q int) {
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
	var best, validated *TF
	bestScore := math.Inf(1)
	for order := q; order >= 1; order-- {
		errMax, ok := ws.refTryFit(scaled, order)
		if !ok {
			continue
		}
		tf := &ws.try
		tf.Order = order
		score := errMax
		if !tf.Stable() {
			score *= 1e6 // strongly prefer stable fits in the fallback
		}
		if score < bestScore {
			bestScore = score
			copyInto(&ws.keepBest, tf)
			best = &ws.keepBest
		}
		if errMax < 1e-9 {
			if tf.Stable() {
				copyInto(&ws.keepVal, tf)
				validated = &ws.keepVal
				break
			}
			if validated == nil {
				copyInto(&ws.keepVal, tf) // keep looking for a stable one below
				validated = &ws.keepVal
			}
		}
	}
	if validated != nil {
		best = validated
	}
	if best == nil {
		// Purely resistive response (or numerically dead): constant TF.
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

func (ws *FitWorkspace) refTryFit(mu []float64, q int) (float64, bool) {
	// Solve the Hankel system Σ_j a_j μ_{k+j} = -μ_{k+q}, k = 0..q-1.
	// The search itself solves with luSolve; the reference keeps
	// linalg.LU, in scratch of its own.
	reuseMat(&ws.h, q, q)
	rhs := make([]float64, q)
	for k := 0; k < q; k++ {
		for j := 0; j < q; j++ {
			ws.h.Set(k, j, mu[k+j])
		}
		rhs[k] = -mu[k+q]
	}
	var hlu linalg.LU
	if err := hlu.Factor(&ws.h); err != nil {
		return 0, false
	}
	ws.acoef = growF(ws.acoef, q)
	hlu.SolveInto(ws.acoef, rhs)
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

func (tf *TF) refUGF() float64 {
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
	prevW := wLo
	prevV := tf.GainMagAt(wLo) - 1
	if prevV < 0 {
		return 0 // already below unity at the low edge
	}
	const steps = 400
	ratio := math.Pow(wHi/wLo, 1.0/steps)
	w := wLo
	for i := 0; i < steps; i++ {
		w *= ratio
		v := tf.GainMagAt(w) - 1
		if v <= 0 {
			// Bisect [prevW, w].
			a, b := prevW, w
			for it := 0; it < 80; it++ {
				mid := math.Sqrt(a * b)
				if tf.GainMagAt(mid)-1 > 0 {
					a = mid
				} else {
					b = mid
				}
			}
			return math.Sqrt(a * b)
		}
		prevW, prevV = w, v
	}
	_ = prevV
	return 0
}

func (tf *TF) refBW3dB() float64 {
	g0 := math.Abs(tf.DCGain())
	if g0 == 0 || tf.Order == 0 {
		return 0
	}
	target := g0 / math.Sqrt2
	lo, hi := tf.poleFreqRange()
	wLo, wHi := lo/100, hi*100
	a, b := wLo, wLo
	found := false
	const steps = 400
	ratio := math.Pow(wHi/wLo, 1.0/steps)
	w := wLo
	for i := 0; i < steps; i++ {
		next := w * ratio
		if tf.GainMagAt(next) <= target {
			a, b = w, next
			found = true
			break
		}
		w = next
	}
	if !found {
		return 0
	}
	for it := 0; it < 80; it++ {
		mid := math.Sqrt(a * b)
		if tf.GainMagAt(mid) > target {
			a = mid
		} else {
			b = mid
		}
	}
	return math.Sqrt(a * b)
}

// tfBitsDiff names the first field where a and b differ, comparing
// floats by their bits; "" means identical.
func tfBitsDiff(a, b *TF) string {
	if a.Order != b.Order {
		return fmt.Sprintf("Order: %d vs %d", a.Order, b.Order)
	}
	for _, f := range []struct {
		name string
		a, b []complex128
	}{{"Poles", a.Poles, b.Poles}, {"Residues", a.Residues, b.Residues}, {"Zeros", a.Zeros, b.Zeros}} {
		if len(f.a) != len(f.b) {
			return fmt.Sprintf("%s: %d vs %d entries", f.name, len(f.a), len(f.b))
		}
		for i := range f.a {
			if !sameC(f.a[i], f.b[i]) {
				return fmt.Sprintf("%s[%d]: %v vs %v", f.name, i, f.a[i], f.b[i])
			}
		}
	}
	if len(a.Moments) != len(b.Moments) {
		return fmt.Sprintf("Moments: %d vs %d entries", len(a.Moments), len(b.Moments))
	}
	for i := range a.Moments {
		if !sameF(a.Moments[i], b.Moments[i]) {
			return fmt.Sprintf("Moments[%d]: %g vs %g", i, a.Moments[i], b.Moments[i])
		}
	}
	return ""
}

func sameF(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameC(a, b complex128) bool { return sameF(real(a), real(b)) && sameF(imag(a), imag(b)) }

// refDiff fits mu at order q with the reference search on ref and names
// the first difference from tf, in the model or in the unity-gain and
// −3 dB frequencies read off it; "" means none. Fewer than two moments
// must give the constant model (the reference cannot take them).
func refDiff(ref *FitWorkspace, tf *TF, mu []float64, q int) string {
	var want TF
	if len(mu) < 2 {
		want.SetConstant(mu)
	} else {
		ref.refFitMomentsInto(&want, mu, q)
	}
	if d := tfBitsDiff(tf, &want); d != "" {
		return d
	}
	if a, b := tf.UGF(), tf.refUGF(); !sameF(a, b) {
		return fmt.Sprintf("UGF %g, reference %g", a, b)
	}
	if a, b := tf.BW3dB(), tf.refBW3dB(); !sameF(a, b) {
		return fmt.Sprintf("BW3dB %g, reference %g", a, b)
	}
	return ""
}

// checkPadeSearch fits mu at order q with a fresh workspace and fails
// unless the fit matches the reference search's (refDiff).
func checkPadeSearch(t *testing.T, mu []float64, q int) {
	t.Helper()
	var ws, ref FitWorkspace
	var got TF
	ws.FitMomentsInto(&got, mu, q)
	if d := refDiff(&ref, &got, mu, q); d != "" {
		t.Fatalf("the fit of %v at order %d differs from the reference search: %s", mu, q, d)
	}
}

// TestMergeTiesGoToHigherOrder holds the search's merge rules when the
// second pass merges a deferred order after lower ones: among equal
// scores and among unstable validated orders, the higher order wins
// whatever order they arrive in, as it did top-down.
func TestMergeTiesGoToHigherOrder(t *testing.T) {
	var ws FitWorkspace
	s := orderSearch{bestScore: math.Inf(1)}
	unstable := func(order int, errMax float64) {
		ws.try = TF{Poles: make([]complex128, order), Residues: make([]complex128, order), Order: order}
		ws.try.Poles[0] = 1
		s.merge(&ws, errMax)
	}
	unstable(2, 1e-3)
	unstable(5, 1e-3) // deferred, merged after order 2
	unstable(4, 1e-3)
	if s.best == nil || s.best.Order != 5 || s.validated != nil {
		t.Fatalf("best after tied scores at orders 2, 5, 4: %+v, validated %+v; want order 5, none", s.best, s.validated)
	}
	unstable(1, 1e-12)
	unstable(3, 1e-12) // deferred, merged after order 1
	unstable(2, 1e-12)
	if s.validated == nil || s.validated.Order != 3 || s.stable {
		t.Fatalf("validated after unstable validated orders 1, 3, 2: %+v; want order 3", s.validated)
	}
}

// Fuzz input families: padeRaw reads the moments from the raw bytes;
// the pole families draw a pole/residue set from the seed and take its
// moments; padeSpecial draws raw moments from the seed with zero, −0,
// NaN and ±Inf entries.
const (
	padeRaw = iota
	padeStable
	padeUnstable
	padeNearAxis
	padeClustered
	padeSpread
	padeSpecial
	padeFamilies
)

// padeMoments builds the moment sequence of one fuzz input. The pole
// families take 2q moments plus up to three more, so validation also
// reads moments the fit did not use.
func padeMoments(raw []byte, q int, family uint8, seed int64) []float64 {
	fam := int(family) % padeFamilies
	if fam == padeRaw {
		mu := make([]float64, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw) && len(mu) < 24; i += 8 {
			mu = append(mu, math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])))
		}
		return mu
	}
	rng := rand.New(rand.NewSource(seed))
	n := 2*max(q, 1) + rng.Intn(4)
	mu := make([]float64, n)
	if fam == padeSpecial {
		special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
		for k := range mu {
			if rng.Intn(4) == 0 {
				mu[k] = special[rng.Intn(len(special))]
			} else {
				mu[k] = rng.NormFloat64() * math.Pow(10, 40*rng.Float64()-20)
			}
		}
		return mu
	}
	poles, res := padePoles(rng, fam, 1+rng.Intn(max(q, 1)+2))
	// μ_k = −Σ r_i / p_i^{k+1}, carried multiplicatively.
	inv := make([]complex128, len(poles))
	pow := make([]complex128, len(poles))
	for i, p := range poles {
		inv[i] = 1 / p
		pow[i] = inv[i]
	}
	for k := range mu {
		s := complex128(0)
		for i := range poles {
			s -= res[i] * pow[i]
			pow[i] *= inv[i]
		}
		mu[k] = real(s)
	}
	return mu
}

// padePoles draws about n poles of a family with their residues: real
// poles and conjugate pairs, magnitudes log-uniform over two decades
// (twelve for padeSpread) around a random scale, and residues over four
// decades with random signs, scaled so the DC gain spans decades too.
func padePoles(rng *rand.Rand, fam, n int) (poles, res []complex128) {
	scale := math.Pow(10, 16*rng.Float64()-2)
	gain := math.Pow(10, 8*rng.Float64()-4)
	for len(poles) < n {
		decades := 2.0
		if fam == padeSpread {
			decades = 12
		}
		mag := scale * math.Pow(10, decades*rng.Float64())
		if fam == padeClustered {
			mag = scale * (1 + math.Pow(10, -2-4*rng.Float64())*rng.NormFloat64())
		}
		r := complex(gain*mag*math.Pow(10, 4*rng.Float64()-2)*float64(1-2*rng.Intn(2)), 0)
		if rng.Intn(2) == 0 {
			p := complex(-mag, 0)
			if fam == padeUnstable && rng.Intn(2) == 0 {
				p = -p
			}
			poles, res = append(poles, p), append(res, r)
			continue
		}
		theta := math.Pi / 2 * rng.Float64()
		if fam == padeNearAxis {
			// 1e-3 to 1e-12 rad from the imaginary axis, one pair in
			// four on its right.
			d := math.Pow(10, -3-9*rng.Float64())
			if rng.Intn(4) == 0 {
				d = -d
			}
			theta = math.Pi/2 - d
		}
		p := cmplx.Rect(mag, math.Pi-theta)
		if fam == padeUnstable && rng.Intn(2) == 0 {
			p = complex(-real(p), imag(p))
		}
		r = complex(real(r), real(r)*rng.NormFloat64())
		poles = append(poles, p, cmplx.Conj(p))
		res = append(res, r, cmplx.Conj(r))
	}
	return poles, res
}

// FuzzPadeSearch holds the Padé order search to the reference search bit
// for bit: poles, residues, zeros, moments and order, and the unity-gain
// and −3 dB frequencies read off the model. Its inputs are moment
// sequences recorded from runs (testdata/run_moments.txt), raw moments
// with zero, −0, NaN and Inf entries, and moments of random pole/residue
// sets: stable, unstable, near-axis pairs, clustered, and spread over
// twelve decades.
func FuzzPadeSearch(f *testing.F) {
	for _, rm := range loadRunMoments(f) {
		f.Add(momentBytes(rm.mu), rm.q, uint8(padeRaw), int64(0))
	}
	f.Add(momentBytes(nil), 4, uint8(padeRaw), int64(0))
	f.Add(momentBytes([]float64{1}), 4, uint8(padeRaw), int64(0))
	f.Add(momentBytes([]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1)}), 2, uint8(padeRaw), int64(0))
	for fam := padeStable; fam < padeFamilies; fam++ {
		for seed := int64(1); seed <= 4; seed++ {
			f.Add([]byte(nil), int(2*seed), uint8(fam), seed)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, q int, family uint8, seed int64) {
		q %= 11
		checkPadeSearch(t, padeMoments(raw, q, family, seed), q)
	})
}

// TestPadeSeedsCover checks that the recorded fuzz seeds alone reach
// every way a search can end (a stable validated order, an unstable
// validated one, the best unvalidated one and the constant model), a
// deferred order the search never fits, and one it fits after all.
func TestPadeSeedsCover(t *testing.T) {
	var ws FitWorkspace
	var tf TF
	refitted := 0
	for _, rm := range loadRunMoments(t) {
		before := ws.Counts().Deferred
		ws.FitMomentsInto(&tf, rm.mu, rm.q)
		if uint64(len(ws.deferred)) > ws.Counts().Deferred-before {
			refitted++
		}
	}
	c := ws.Counts()
	if c.ValidatedStable == 0 || c.ValidatedUnstable == 0 || c.Unvalidated == 0 || c.Constant == 0 ||
		c.Deferred == 0 || refitted == 0 {
		t.Errorf("recorded seeds reach %+v with %d fits that fit a deferred order; want every outcome and both", c, refitted)
	}
}

// runMoments is one fit recorded from a synthesis run: the moments and
// the order the workspace asked for.
type runMoments struct {
	mu []float64
	q  int
}

const runMomentsPath = "testdata/run_moments.txt"

// loadRunMoments reads the recorded fits: one per line, the order and
// then the moments, space-separated, each float in Go's shortest
// round-tripping form; "#" starts a comment line.
func loadRunMoments(tb testing.TB) []runMoments {
	tb.Helper()
	f, err := os.Open(runMomentsPath)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var out []runMoments
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		fs := strings.Fields(line)
		q, err := strconv.Atoi(fs[0])
		if err != nil {
			tb.Fatalf("%s: %q: %v", runMomentsPath, line, err)
		}
		rm := runMoments{q: q}
		for _, s := range fs[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				tb.Fatalf("%s: %q: %v", runMomentsPath, line, err)
			}
			rm.mu = append(rm.mu, v)
		}
		out = append(out, rm)
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	if len(out) == 0 {
		tb.Fatalf("%s holds no fits", runMomentsPath)
	}
	return out
}

// momentBytes encodes moments as the raw family's little-endian bits.
func momentBytes(mu []float64) []byte {
	b := make([]byte, 8*len(mu))
	for i, v := range mu {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// TestLUSolveMatchesLinalgLU holds solveHankel's luSolve to linalg.LU
// (Factor, then SolveInto) bit for bit — verdict and every solution
// entry, signed zeros included — on random systems of order 1 to 8 whose
// entries mix ordinary values with 0, −0, subnormals, huge values, ±Inf
// and NaN, and whose rows sometimes repeat (singular systems). A NaN
// matches any NaN: which operand's payload an operation passes on
// depends on the compiled code, and no fit reads a payload.
func TestLUSolveMatchesLinalgLU(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{0, math.Copysign(0, -1), 5e-324, 1e-310, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(), 1, -1}
	entry := func(p float64) float64 {
		if rng.Float64() < p {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
	}
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(8)
		p := []float64{0, 0.05, 0.3}[trial%3]
		m := linalg.NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = entry(p)
		}
		if trial%7 == 0 && n > 1 {
			copy(m.Data[n:2*n], m.Data[:n]) // repeat a row
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = entry(p)
		}

		var lu linalg.LU
		want := make([]float64, n)
		wantOK := lu.Factor(m) == nil
		if wantOK {
			lu.SolveInto(want, b)
		}
		a := append([]float64(nil), m.Data...)
		got := append([]float64(nil), b...)
		gotOK := luSolve(a, n, got, make([]float64, n), make([]int, n))
		if gotOK != wantOK {
			t.Fatalf("trial %d: luSolve verdict %v, linalg.LU %v\nA = %v\nb = %v", trial, gotOK, wantOK, m.Data, b)
		}
		if !wantOK {
			continue
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("trial %d: x[%d] = %v (%#x), linalg.LU %v (%#x)\nA = %v\nb = %v",
					trial, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), m.Data, b)
			}
		}
	}
}
