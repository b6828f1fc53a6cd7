package linalg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// This file keeps the real and complex sparse factorizers as they stood
// before SparseLU and AutoLU became generic over the scalar type:
// refSparseLU/refAutoLU and refSparseCLU/refAutoCLU below are that code
// verbatim apart from their names (and the pattern scans, which were
// methods of Pattern). TestAutoLUMatchesReference holds AutoLU[float64]
// and AutoLU[complex128] to them bit for bit.

// refScan fills p with the nonzero positions of a.
func refScan(p *Pattern, a *Matrix) {
	if a.Rows != a.Cols {
		panic("linalg: Pattern.Scan requires a square matrix")
	}
	p.N = a.Rows
	p.Pos = p.Pos[:0]
	for i, v := range a.Data {
		if v != 0 {
			p.Pos = append(p.Pos, int32(i))
		}
	}
}

// refScanComplex fills p with the nonzero positions of a.
func refScanComplex(p *Pattern, a *CMatrix) {
	if a.Rows != a.Cols {
		panic("linalg: Pattern.ScanComplex requires a square matrix")
	}
	p.N = a.Rows
	p.Pos = p.Pos[:0]
	for i, v := range a.Data {
		if v != 0 {
			p.Pos = append(p.Pos, int32(i))
		}
	}
}

// refSparseLU replays a Symbolic's factor and solve programs over packed
// real numeric storage.
type refSparseLU struct {
	sym    *Symbolic
	v      []float64
	pivInv []float64
	w      []float64
}

// reset points the numeric storage at sym, reallocating only on growth.
func (f *refSparseLU) reset(sym *Symbolic) {
	f.sym = sym
	if cap(f.v) < sym.lunnz {
		f.v = make([]float64, sym.lunnz)
	}
	f.v = f.v[:sym.lunnz]
	if cap(f.pivInv) < sym.n {
		f.pivInv = make([]float64, sym.n)
		f.w = make([]float64, sym.n)
	}
	f.pivInv = f.pivInv[:sym.n]
	f.w = f.w[:sym.n]
}

// Factor scatters a's nonzeros (which must match the symbolic pattern)
// into packed storage and replays the factor program. It returns
// errSparseGuard when a numeric guard rejects the static pivot order.
func (f *refSparseLU) Factor(a *Matrix) error {
	s := f.sym
	v := f.v
	for i := range v {
		v[i] = 0
	}
	maxA := 0.0
	for t, pos := range s.pat.Pos {
		x := a.Data[pos]
		v[s.scatter[t]] = x
		if ax := math.Abs(x); ax > maxA {
			maxA = ax
		}
	}
	for k := 0; k < s.n; k++ {
		piv := v[s.pivIdx[k]]
		apiv := math.Abs(piv)
		if !(apiv >= sparseTinyPivot && apiv >= sparsePivRel*maxA) { // catches 0 and NaN
			return errSparseGuard
		}
		inv := 1 / piv
		f.pivInv[k] = inv
		for _, d := range s.lIdx[s.lPtr[k]:s.lPtr[k+1]] {
			v[d] *= inv
		}
		mt := s.mulT[s.mulPtr[k]:s.mulPtr[k+1]]
		ml := s.mulL[s.mulPtr[k]:s.mulPtr[k+1]]
		mu := s.mulU[s.mulPtr[k]:s.mulPtr[k+1]]
		for o, t := range mt {
			v[t] -= v[ml[o]] * v[mu[o]]
		}
	}
	// Element-growth guard: large growth means the static order was
	// numerically bad for these values (the negated comparison also
	// catches NaN); the caller falls back to dense partial pivoting.
	maxU := 0.0
	for _, x := range v {
		if ax := math.Abs(x); ax > maxU {
			maxU = ax
		}
	}
	if !(maxU <= sparseGrowthLimit*maxA) {
		return errSparseGuard
	}
	return nil
}

// SolveInPlace solves A·x = b overwriting b, replaying the substitution
// programs over the packed factors.
func (f *refSparseLU) SolveInPlace(b []float64) {
	s := f.sym
	w := f.w
	for k, r := range s.rowPerm {
		w[k] = b[r]
	}
	for k := 0; k < s.n; k++ {
		bk := w[k]
		if bk == 0 {
			continue
		}
		rows := s.lRow[s.lPtr[k]:s.lPtr[k+1]]
		idxs := s.lIdx[s.lPtr[k]:s.lPtr[k+1]]
		for o, r := range rows {
			w[r] -= f.v[idxs[o]] * bk
		}
	}
	for k := s.n - 1; k >= 0; k-- {
		sum := w[k]
		cols := s.uCol[s.uPtr[k]:s.uPtr[k+1]]
		idxs := s.uIdx[s.uPtr[k]:s.uPtr[k+1]]
		for o, c := range cols {
			sum -= f.v[idxs[o]] * w[c]
		}
		w[k] = sum * f.pivInv[k]
	}
	for k, c := range s.colPerm {
		b[c] = w[k]
	}
}

// refAutoLU is the adaptive real factorizer used on evaluation hot paths:
// each Factor scans the matrix pattern, reuses (or builds and caches)
// the matching symbolic analysis, and replays the sparse numeric
// program, falling back to dense partial-pivot LU when the pattern is
// structurally singular or a numeric guard trips. Solves dispatch to
// whichever factorization Factor produced, so refAutoLU is a drop-in
// replacement for LU in Factor/Solve call sites. Its API mirrors LU:
// after warm-up no call allocates.
type refAutoLU struct {
	dense  LU
	sp     refSparseLU
	scan   Pattern
	cache  symCache
	sparse bool // which factorization is current

	denseFactors  uint64
	sparseFactors uint64
}

// Factor factors a, choosing the sparse replay or the dense fallback.
// The choice is a deterministic function of a's values, so two solvers
// handed bit-identical matrices factor identically.
func (f *refAutoLU) Factor(a *Matrix) error {
	refScan(&f.scan, a)
	sym, ok := f.cache.lookup(&f.scan)
	if ok {
		f.sp.reset(sym)
		if err := f.sp.Factor(a); err == nil {
			f.sparse = true
			f.sparseFactors++
			return nil
		}
	}
	f.sparse = false
	f.denseFactors++
	return f.dense.Factor(a)
}

// SolveInPlace solves A·x = b overwriting b.
func (f *refAutoLU) SolveInPlace(b []float64) {
	if f.sparse {
		f.sp.SolveInPlace(b)
	} else {
		f.dense.SolveInPlace(b)
	}
}

// SolveInto solves A·x = b writing x into dst; dst may alias b.
func (f *refAutoLU) SolveInto(dst, b []float64) {
	if len(dst) != len(b) {
		panic("linalg: refAutoLU.SolveInto dimension mismatch")
	}
	copy(dst, b)
	f.SolveInPlace(dst)
}

// Sparse reports whether the last Factor used the sparse path.
func (f *refAutoLU) Sparse() bool { return f.sparse }

// Stats describes the last factorization.
func (f *refAutoLU) Stats() FactorStats {
	if f.sparse {
		return f.sp.sym.Stats()
	}
	n := f.scan.N
	return FactorStats{Rows: n, NNZ: len(f.scan.Pos), FillNNZ: n * n, Flops: n * n * n / 3}
}

// Counts returns how many factorizations took each path and how many
// symbolic analyses the cache missed on.
func (f *refAutoLU) Counts() FactorCounts {
	return FactorCounts{Sparse: f.sparseFactors, Dense: f.denseFactors, SymbolicMisses: f.cache.misses}
}

// refSparseCLU replays a Symbolic's programs over complex numeric storage
// (the AC-analysis (G + jωC) system shares one pattern across ω).
type refSparseCLU struct {
	sym    *Symbolic
	v      []complex128
	pivInv []complex128
	w      []complex128
}

func (f *refSparseCLU) reset(sym *Symbolic) {
	f.sym = sym
	if cap(f.v) < sym.lunnz {
		f.v = make([]complex128, sym.lunnz)
	}
	f.v = f.v[:sym.lunnz]
	if cap(f.pivInv) < sym.n {
		f.pivInv = make([]complex128, sym.n)
		f.w = make([]complex128, sym.n)
	}
	f.pivInv = f.pivInv[:sym.n]
	f.w = f.w[:sym.n]
}

// refCmag is a cheap complex magnitude for guard comparisons (within √2 of
// the 2-norm, which the order-of-magnitude guards don't care about).
func refCmag(z complex128) float64 { return math.Abs(real(z)) + math.Abs(imag(z)) }

// Factor is the complex counterpart of refSparseLU.Factor.
func (f *refSparseCLU) Factor(a *CMatrix) error {
	s := f.sym
	v := f.v
	for i := range v {
		v[i] = 0
	}
	maxA := 0.0
	for t, pos := range s.pat.Pos {
		x := a.Data[pos]
		v[s.scatter[t]] = x
		if ax := refCmag(x); ax > maxA {
			maxA = ax
		}
	}
	for k := 0; k < s.n; k++ {
		piv := v[s.pivIdx[k]]
		apiv := refCmag(piv)
		if !(apiv >= sparseTinyPivot && apiv >= sparsePivRel*maxA) {
			return errSparseGuard
		}
		inv := 1 / piv
		f.pivInv[k] = inv
		for _, d := range s.lIdx[s.lPtr[k]:s.lPtr[k+1]] {
			v[d] *= inv
		}
		mt := s.mulT[s.mulPtr[k]:s.mulPtr[k+1]]
		ml := s.mulL[s.mulPtr[k]:s.mulPtr[k+1]]
		mu := s.mulU[s.mulPtr[k]:s.mulPtr[k+1]]
		for o, t := range mt {
			v[t] -= v[ml[o]] * v[mu[o]]
		}
	}
	maxU := 0.0
	for _, x := range v {
		if ax := refCmag(x); ax > maxU {
			maxU = ax
		}
	}
	if !(maxU <= sparseGrowthLimit*maxA) {
		return errSparseGuard
	}
	return nil
}

// SolveInPlace solves A·x = b overwriting b.
func (f *refSparseCLU) SolveInPlace(b []complex128) {
	s := f.sym
	w := f.w
	for k, r := range s.rowPerm {
		w[k] = b[r]
	}
	for k := 0; k < s.n; k++ {
		bk := w[k]
		if bk == 0 {
			continue
		}
		rows := s.lRow[s.lPtr[k]:s.lPtr[k+1]]
		idxs := s.lIdx[s.lPtr[k]:s.lPtr[k+1]]
		for o, r := range rows {
			w[r] -= f.v[idxs[o]] * bk
		}
	}
	for k := s.n - 1; k >= 0; k-- {
		sum := w[k]
		cols := s.uCol[s.uPtr[k]:s.uPtr[k+1]]
		idxs := s.uIdx[s.uPtr[k]:s.uPtr[k+1]]
		for o, c := range cols {
			sum -= f.v[idxs[o]] * w[c]
		}
		w[k] = sum * f.pivInv[k]
	}
	for k, c := range s.colPerm {
		b[c] = w[k]
	}
}

// refAutoCLU is the complex counterpart of refAutoLU (AC sweeps factor
// (G + jωC) per frequency against one cached symbolic analysis).
type refAutoCLU struct {
	dense  CLU
	sp     refSparseCLU
	scan   Pattern
	cache  symCache
	sparse bool

	denseFactors  uint64
	sparseFactors uint64
}

// Factor factors a, preferring the sparse replay.
func (f *refAutoCLU) Factor(a *CMatrix) error {
	refScanComplex(&f.scan, a)
	sym, ok := f.cache.lookup(&f.scan)
	if ok {
		f.sp.reset(sym)
		if err := f.sp.Factor(a); err == nil {
			f.sparse = true
			f.sparseFactors++
			return nil
		}
	}
	f.sparse = false
	f.denseFactors++
	return f.dense.Factor(a)
}

// SolveInPlace solves A·x = b overwriting b.
func (f *refAutoCLU) SolveInPlace(b []complex128) {
	if f.sparse {
		f.sp.SolveInPlace(b)
	} else {
		f.dense.SolveInPlace(b)
	}
}

// SolveInto solves A·x = b writing x into dst; dst may alias b.
func (f *refAutoCLU) SolveInto(dst, b []complex128) {
	if len(dst) != len(b) {
		panic("linalg: refAutoCLU.SolveInto dimension mismatch")
	}
	copy(dst, b)
	f.SolveInPlace(dst)
}

// Sparse reports whether the last Factor used the sparse path.
func (f *refAutoCLU) Sparse() bool { return f.sparse }

// Counts returns how many factorizations took each path and how many
// symbolic analyses the cache missed on.
func (f *refAutoCLU) Counts() FactorCounts {
	return FactorCounts{Sparse: f.sparseFactors, Dense: f.denseFactors, SymbolicMisses: f.cache.misses}
}

// factorizer is the surface AutoLU and the reference factorizers share.
type factorizer[T Scalar] interface {
	Factor(a *Dense[T]) error
	SolveInPlace(b []T)
	Sparse() bool
	Counts() FactorCounts
}

// sameBits reports whether x and y are the same bits (both parts, for
// complex values).
func sameBits[T Scalar](x, y T) bool {
	switch x := any(x).(type) {
	case float64:
		return math.Float64bits(x) == math.Float64bits(any(y).(float64))
	case complex128:
		y := any(y).(complex128)
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	}
	panic("unreachable")
}

// refCoverage counts what a reference comparison exercised.
type refCoverage struct {
	sparse, guardTrips, structural, singular, nonFinite int
}

// matchReference factors every matrix from next on got and want, which
// keep their symbolic caches across trials, and demands the same
// verdict, path, counts (and Stats, where both have it) and solution
// bits; each factored matrix is solved against three right-hand sides
// from rhs.
func matchReference[T Scalar](t *testing.T, got, want factorizer[T], trials int, next func(trial int) *Dense[T], rhs func(n int) []T) refCoverage {
	t.Helper()
	var cov refCoverage
	var pat Pattern
	for trial := 0; trial < trials; trial++ {
		a := next(trial)
		errW := want.Factor(a)
		errG := got.Factor(a)
		if errG != errW {
			t.Fatalf("trial %d (n=%d): Factor error %v, reference %v", trial, a.Rows, errG, errW)
		}
		if got.Sparse() != want.Sparse() || got.Counts() != want.Counts() {
			t.Fatalf("trial %d: sparse %v counts %+v, reference %v %+v",
				trial, got.Sparse(), got.Counts(), want.Sparse(), want.Counts())
		}
		type statser interface{ Stats() FactorStats }
		if gs, ok := got.(statser); ok && errW == nil {
			if ws, ok := want.(statser); ok && gs.Stats() != ws.Stats() {
				t.Fatalf("trial %d: stats %+v, reference %+v", trial, gs.Stats(), ws.Stats())
			}
		}
		scanPattern(&pat, a)
		switch {
		case got.Sparse():
			cov.sparse++
		case NewSymbolic(&pat) == nil:
			cov.structural++
		default:
			cov.guardTrips++
		}
		if errW != nil {
			cov.singular++
			continue
		}
		for r := 0; r < 3; r++ {
			xw := rhs(a.Rows)
			xg := slices.Clone(xw)
			want.SolveInPlace(xw)
			got.SolveInPlace(xg)
			for i, w := range xw {
				if !sameBits(xg[i], w) {
					t.Fatalf("trial %d (n=%d sparse=%v) rhs %d: x[%d] = %v, reference %v",
						trial, a.Rows, got.Sparse(), r, i, xg[i], w)
				}
				if w != w || w-w != 0 {
					cov.nonFinite++
				}
			}
		}
	}
	return cov
}

// refMatrix returns a random MNA-shaped matrix for the reference
// comparison. The trial number picks a variant: as built, an emptied
// row or column (structurally singular), one entry scaled down by 1e-6
// to 1e-16 (tiny static pivots and growth-guard trips), the whole
// matrix scaled near the 1e-300 pivot floor, −0 entries, or a ±Inf or
// NaN entry.
func refMatrix(rng *rand.Rand, trial int) *Matrix {
	a := mnaRandom(rng, 2+rng.Intn(14), rng.Intn(4))
	n := a.Rows
	switch trial % 8 {
	case 1:
		r := rng.Intn(n)
		for j := 0; j < n; j++ {
			a.Set(r, j, 0)
		}
	case 2:
		c := rng.Intn(n)
		for i := 0; i < n; i++ {
			a.Set(i, c, 0)
		}
	case 3:
		for z := 0; z < 1+rng.Intn(2); z++ {
			i := rng.Intn(n)
			a.Set(i, i, a.At(i, i)*math.Pow(10, -6-10*rng.Float64()))
		}
	case 4:
		s := math.Pow(10, -296-5*rng.Float64())
		for i := range a.Data {
			a.Data[i] *= s
		}
	case 5:
		for z := 0; z <= n/3; z++ {
			a.Data[rng.Intn(n*n)] = math.Copysign(0, -1)
		}
	case 6:
		a.Data[rng.Intn(n*n)] = math.Inf(1 - 2*rng.Intn(2))
	case 7:
		a.Data[rng.Intn(n*n)] = math.NaN()
	}
	return a
}

// refRHS returns a right-hand side holding −0, zeros and normal values,
// and now and then a non-finite entry.
func refRHS(rng *rand.Rand, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		switch rng.Intn(4) {
		case 0:
			b[i] = math.Copysign(0, -1)
		case 1:
		default:
			b[i] = rng.NormFloat64()
		}
	}
	if rng.Intn(8) == 0 {
		b[rng.Intn(n)] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
	}
	return b
}

// TestAutoLUMatchesReference holds AutoLU[float64] and
// AutoLU[complex128] to the factorizers they replaced, bit for bit: the
// factor verdict, the path taken, the counts, and every solution entry.
// The complex matrices are the real ones with (G + jωC)-like imaginary
// parts, some of which are −0, ±Inf or NaN.
func TestAutoLUMatchesReference(t *testing.T) {
	const trials = 4000
	check := func(t *testing.T, cov refCoverage) {
		t.Logf("%+v", cov)
		if cov.sparse < trials/4 || cov.guardTrips < trials/40 || cov.structural < trials/8 ||
			cov.singular < trials/8 || cov.nonFinite < trials/10 {
			t.Fatalf("coverage too thin: %+v", cov)
		}
	}
	t.Run("float64", func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		var got AutoLU[float64]
		var want refAutoLU
		check(t, matchReference[float64](t, &got, &want, trials,
			func(trial int) *Matrix { return refMatrix(rng, trial) },
			func(n int) []float64 { return refRHS(rng, n) }))
	})
	t.Run("complex128", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		var got AutoLU[complex128]
		var want refAutoCLU
		odd := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN()}
		check(t, matchReference[complex128](t, &got, &want, trials,
			func(trial int) *CMatrix {
				ar := refMatrix(rng, trial)
				a := NewCMatrix(ar.Rows, ar.Cols)
				for i, v := range ar.Data {
					im := rng.NormFloat64() * math.Abs(v)
					switch rng.Intn(200) {
					case 0:
						im = odd[rng.Intn(len(odd))]
					case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10:
						im = 0
					}
					if v != 0 || rng.Intn(50) == 0 {
						a.Data[i] = complex(v, im)
					}
				}
				return a
			},
			func(n int) []complex128 {
				re, im := refRHS(rng, n), refRHS(rng, n)
				b := make([]complex128, n)
				for i := range b {
					b[i] = complex(re[i], im[i])
				}
				return b
			}))
	})
}
