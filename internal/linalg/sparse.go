package linalg

import (
	"errors"
	"math"
)

// This file implements the sparse symbolic-LU path described in
// DESIGN.md §4 (revised): circuit MNA matrices are tiny but sparse, and
// their sparsity *pattern* is fixed per deck while only the values change
// between evaluations. The analysis is therefore split KLU-style:
//
//   - Pattern captures the nonzero positions of a matrix.
//   - Symbolic runs a structural full-Markowitz elimination on a pattern
//     once, choosing a fill-reducing pivot order (row *and* column
//     permutations — MNA branch rows for V/E/H/L elements have
//     structurally zero diagonals, so diagonal pivoting is not enough)
//     and emitting flat replay programs: a scatter map from dense
//     storage into packed factor storage, per-step divide and
//     multiply-subtract index triples for the numeric factorization, and
//     forward/backward substitution programs for the solves.
//   - SparseLU / SparseCLU replay those programs over real or complex
//     numeric arrays with no branching on structure and no allocation
//     after warm-up.
//   - AutoLU / AutoCLU front the whole thing with a per-factor pattern
//     scan, a small symbolic cache, and numeric guards (tiny static
//     pivot, element growth) that fall back to the dense partial-pivot
//     factorization when the static ordering goes numerically bad.
//
// Determinism matters more than cleverness here: the symbolic analysis
// is a pure function of the scanned pattern, and the guards are pure
// functions of the matrix values, so two solvers handed bit-identical
// matrices always take the same path and produce bit-identical results.

// errSparseGuard is the internal signal that a numeric guard rejected
// the static ordering for this matrix; callers fall back to dense LU.
var errSparseGuard = errors.New("linalg: sparse factorization guard tripped")

const (
	// sparseTinyPivot rejects a static pivot too small to divide by.
	sparseTinyPivot = 1e-300
	// sparsePivRel rejects pivots at roundoff scale relative to the
	// matrix: a rank-deficient matrix eliminated in a different pivot
	// order leaves a ~eps·‖A‖ pivot instead of an exact zero, and the
	// dense partial-pivot code must issue the singularity verdict so
	// both paths agree. Legitimate MNA pivots (gmin ties ~1e-12 against
	// device conductances ~1e-3) sit many decades above this.
	sparsePivRel = 1e-14
	// sparseGrowthLimit rejects factorizations whose element growth says
	// the structural pivot order was numerically bad for these values.
	sparseGrowthLimit = 1e6
	// symCacheCap bounds the per-factorizer symbolic cache. Patterns per
	// deck number a handful (device conductances occasionally evaluate
	// to exactly zero and drop stamps), so a tiny MRU cache suffices.
	symCacheCap = 8
)

// Pattern is the set of nonzero positions of a square dense matrix,
// stored as sorted row-major flat indices. The zero value is ready to
// use; Scan reuses the backing array.
type Pattern struct {
	N   int
	Pos []int32
}

// Scan fills p with the nonzero positions of a.
func (p *Pattern) Scan(a *Matrix) {
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

// ScanComplex fills p with the nonzero positions of a.
func (p *Pattern) ScanComplex(a *CMatrix) {
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

// Equal reports whether p and q describe the same pattern.
func (p *Pattern) Equal(q *Pattern) bool {
	if p.N != q.N || len(p.Pos) != len(q.Pos) {
		return false
	}
	for i, v := range p.Pos {
		if q.Pos[i] != v {
			return false
		}
	}
	return true
}

// clone returns an independent copy (for cache keys).
func (p *Pattern) clone() Pattern {
	return Pattern{N: p.N, Pos: append([]int32(nil), p.Pos...)}
}

// FactorStats describes the last factorization a solver performed, for
// benchmark attribution (cmd/benchjson matrix stats).
type FactorStats struct {
	Rows    int  // matrix dimension
	NNZ     int  // structural nonzeros of A
	FillNNZ int  // nonzeros of L+U including fill-in
	Flops   int  // multiply-subtract ops per numeric factorization
	Sparse  bool // false → dense path (fallback or no symbolic)
}

// Symbolic is the result of structural elimination on one Pattern: a
// fill-reducing pivot order and the flat index programs that replay the
// numeric factorization and triangular solves. It is immutable after
// construction and safe to share between goroutines.
type Symbolic struct {
	n   int
	pat Pattern

	scatter []int32 // pattern nz t → packed factor index
	lunnz   int     // packed factor storage size (L+U incl fill)
	flops   int

	pivIdx []int32 // per step: packed index of the pivot

	// Factor program, per step k: first scale the L column by 1/pivot,
	// then apply every (target -= l·u) update.
	lIdx, lRow       []int32 // L column entries: packed index, permuted row
	lPtr             []int32 // n+1 offsets into lIdx/lRow
	uIdx, uCol       []int32 // U row entries: packed index, permuted col
	uPtr             []int32 // n+1 offsets into uIdx/uCol
	mulT, mulL, mulU []int32 // update triples
	mulPtr           []int32 // n+1 offsets into mulT/mulL/mulU

	rowPerm []int32 // step k eliminates original row rowPerm[k]
	colPerm []int32 // step k eliminates original col colPerm[k]
}

// NewSymbolic runs the structural full-Markowitz elimination on p and
// returns the replay programs, or nil when the pattern is structurally
// singular (no complete pivot sequence exists) and the caller must use
// dense factorization.
func NewSymbolic(p *Pattern) *Symbolic {
	n := p.N
	if n == 0 {
		return nil
	}
	occ := make([]bool, n*n)
	for _, pos := range p.Pos {
		occ[pos] = true
	}
	rowCnt := make([]int, n)
	colCnt := make([]int, n)
	for _, pos := range p.Pos {
		rowCnt[pos/int32(n)]++
		colCnt[pos%int32(n)]++
	}
	rowActive := make([]bool, n)
	colActive := make([]bool, n)
	for i := range rowActive {
		rowActive[i] = true
		colActive[i] = true
	}
	rowPerm := make([]int32, n)
	colPerm := make([]int32, n)

	for k := 0; k < n; k++ {
		// Markowitz pivot: minimize (rowCnt-1)·(colCnt-1) over active
		// nonzeros, ties broken by smallest (row, col) for determinism.
		bestR, bestC, bestM := -1, -1, 0
		for r := 0; r < n; r++ {
			if !rowActive[r] {
				continue
			}
			row := occ[r*n : r*n+n]
			for c := 0; c < n; c++ {
				if !colActive[c] || !row[c] {
					continue
				}
				m := (rowCnt[r] - 1) * (colCnt[c] - 1)
				if bestR < 0 || m < bestM {
					bestR, bestC, bestM = r, c, m
				}
			}
		}
		if bestR < 0 {
			return nil // structurally singular
		}
		r, c := bestR, bestC
		rowPerm[k], colPerm[k] = int32(r), int32(c)
		// Fill: every active (i, j) with A[i,c] and A[r,j] nonzero gains
		// an entry.
		for i := 0; i < n; i++ {
			if i == r || !rowActive[i] || !occ[i*n+c] {
				continue
			}
			for j := 0; j < n; j++ {
				if j == c || !colActive[j] || !occ[r*n+j] {
					continue
				}
				if !occ[i*n+j] {
					occ[i*n+j] = true
					rowCnt[i]++
					colCnt[j]++
				}
			}
		}
		// Retire the pivot row and column from the active submatrix.
		rowActive[r] = false
		colActive[c] = false
		for j := 0; j < n; j++ {
			if colActive[j] && occ[r*n+j] {
				colCnt[j]--
			}
			if rowActive[j] && occ[j*n+c] {
				rowCnt[j]--
			}
		}
	}

	// Pack the filled pattern in permuted row-major order.
	prow := make([]int32, n)
	pcol := make([]int32, n)
	for k := 0; k < n; k++ {
		prow[rowPerm[k]] = int32(k)
		pcol[colPerm[k]] = int32(k)
	}
	permIdx := make([]int32, n*n)
	for i := range permIdx {
		permIdx[i] = -1
	}
	idx := int32(0)
	for pk := 0; pk < n; pk++ {
		r := rowPerm[pk]
		for pj := 0; pj < n; pj++ {
			if occ[int(r)*n+int(colPerm[pj])] {
				permIdx[pk*n+pj] = idx
				idx++
			}
		}
	}

	s := &Symbolic{
		n:       n,
		pat:     p.clone(),
		lunnz:   int(idx),
		pivIdx:  make([]int32, n),
		lPtr:    make([]int32, n+1),
		uPtr:    make([]int32, n+1),
		mulPtr:  make([]int32, n+1),
		rowPerm: rowPerm,
		colPerm: colPerm,
		scatter: make([]int32, len(p.Pos)),
	}
	for t, pos := range p.Pos {
		i, j := int(pos)/n, int(pos)%n
		s.scatter[t] = permIdx[int(prow[i])*n+int(pcol[j])]
	}
	for k := 0; k < n; k++ {
		s.pivIdx[k] = permIdx[k*n+k]
		s.lPtr[k] = int32(len(s.lIdx))
		for i := k + 1; i < n; i++ {
			if fi := permIdx[i*n+k]; fi >= 0 {
				s.lIdx = append(s.lIdx, fi)
				s.lRow = append(s.lRow, int32(i))
			}
		}
		s.lPtr[k+1] = int32(len(s.lIdx))
		s.uPtr[k] = int32(len(s.uIdx))
		for j := k + 1; j < n; j++ {
			if fj := permIdx[k*n+j]; fj >= 0 {
				s.uIdx = append(s.uIdx, fj)
				s.uCol = append(s.uCol, int32(j))
			}
		}
		s.uPtr[k+1] = int32(len(s.uIdx))
		s.mulPtr[k] = int32(len(s.mulT))
		for li := s.lPtr[k]; li < s.lPtr[k+1]; li++ {
			i := int(s.lRow[li])
			lv := s.lIdx[li]
			for ui := s.uPtr[k]; ui < s.uPtr[k+1]; ui++ {
				j := int(s.uCol[ui])
				s.mulT = append(s.mulT, permIdx[i*n+j])
				s.mulL = append(s.mulL, lv)
				s.mulU = append(s.mulU, s.uIdx[ui])
			}
		}
		s.mulPtr[k+1] = int32(len(s.mulT))
	}
	s.flops = len(s.mulT)
	return s
}

// Stats describes the factorization this symbolic analysis produces.
func (s *Symbolic) Stats() FactorStats {
	return FactorStats{
		Rows:    s.n,
		NNZ:     len(s.pat.Pos),
		FillNNZ: s.lunnz,
		Flops:   s.flops,
		Sparse:  true,
	}
}

// symCache is a tiny MRU cache of symbolic analyses keyed by pattern.
type symCache struct {
	entries []symEntry
}

type symEntry struct {
	pat Pattern
	sym *Symbolic // nil: pattern known structurally singular → dense
}

// lookup returns the cached analysis for p, computing and caching it on
// a miss. ok is false when the pattern is structurally singular.
func (c *symCache) lookup(p *Pattern) (sym *Symbolic, ok bool) {
	for i := range c.entries {
		e := &c.entries[i]
		if e.pat.Equal(p) {
			return e.sym, e.sym != nil
		}
	}
	sym = NewSymbolic(p)
	if len(c.entries) >= symCacheCap {
		copy(c.entries, c.entries[1:])
		c.entries = c.entries[:symCacheCap-1]
	}
	c.entries = append(c.entries, symEntry{pat: p.clone(), sym: sym})
	return sym, sym != nil
}

// SparseLU replays a Symbolic's factor and solve programs over packed
// real numeric storage.
type SparseLU struct {
	sym    *Symbolic
	v      []float64
	pivInv []float64
	w      []float64
}

// reset points the numeric storage at sym, reallocating only on growth.
func (f *SparseLU) reset(sym *Symbolic) {
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
func (f *SparseLU) Factor(a *Matrix) error {
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
func (f *SparseLU) SolveInPlace(b []float64) {
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

// AutoLU is the adaptive real factorizer used on evaluation hot paths:
// each Factor scans the matrix pattern, reuses (or builds and caches)
// the matching symbolic analysis, and replays the sparse numeric
// program, falling back to dense partial-pivot LU when the pattern is
// structurally singular or a numeric guard trips. Solves dispatch to
// whichever factorization Factor produced, so AutoLU is a drop-in
// replacement for LU in Factor/Solve call sites. Its API mirrors LU:
// after warm-up no call allocates.
type AutoLU struct {
	dense  LU
	sp     SparseLU
	scan   Pattern
	cache  symCache
	sparse bool // which factorization is current

	denseFactors  uint64
	sparseFactors uint64
}

// Factor factors a, choosing the sparse replay or the dense fallback.
// The choice is a deterministic function of a's values, so two solvers
// handed bit-identical matrices factor identically.
func (f *AutoLU) Factor(a *Matrix) error {
	f.scan.Scan(a)
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
func (f *AutoLU) SolveInPlace(b []float64) {
	if f.sparse {
		f.sp.SolveInPlace(b)
	} else {
		f.dense.SolveInPlace(b)
	}
}

// SolveInto solves A·x = b writing x into dst; dst may alias b.
func (f *AutoLU) SolveInto(dst, b []float64) {
	if len(dst) != len(b) {
		panic("linalg: AutoLU.SolveInto dimension mismatch")
	}
	copy(dst, b)
	f.SolveInPlace(dst)
}

// Sparse reports whether the last Factor used the sparse path.
func (f *AutoLU) Sparse() bool { return f.sparse }

// Stats describes the last factorization.
func (f *AutoLU) Stats() FactorStats {
	if f.sparse {
		return f.sp.sym.Stats()
	}
	n := f.scan.N
	return FactorStats{Rows: n, NNZ: len(f.scan.Pos), FillNNZ: n * n, Flops: n * n * n / 3}
}

// Counts returns how many factorizations took each path.
func (f *AutoLU) Counts() (sparse, dense uint64) { return f.sparseFactors, f.denseFactors }

// SparseCLU replays a Symbolic's programs over complex numeric storage
// (the AC-analysis (G + jωC) system shares one pattern across ω).
type SparseCLU struct {
	sym    *Symbolic
	v      []complex128
	pivInv []complex128
	w      []complex128
}

func (f *SparseCLU) reset(sym *Symbolic) {
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

// cmag is a cheap complex magnitude for guard comparisons (within √2 of
// the 2-norm, which the order-of-magnitude guards don't care about).
func cmag(z complex128) float64 { return math.Abs(real(z)) + math.Abs(imag(z)) }

// Factor is the complex counterpart of SparseLU.Factor.
func (f *SparseCLU) Factor(a *CMatrix) error {
	s := f.sym
	v := f.v
	for i := range v {
		v[i] = 0
	}
	maxA := 0.0
	for t, pos := range s.pat.Pos {
		x := a.Data[pos]
		v[s.scatter[t]] = x
		if ax := cmag(x); ax > maxA {
			maxA = ax
		}
	}
	for k := 0; k < s.n; k++ {
		piv := v[s.pivIdx[k]]
		apiv := cmag(piv)
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
		if ax := cmag(x); ax > maxU {
			maxU = ax
		}
	}
	if !(maxU <= sparseGrowthLimit*maxA) {
		return errSparseGuard
	}
	return nil
}

// SolveInPlace solves A·x = b overwriting b.
func (f *SparseCLU) SolveInPlace(b []complex128) {
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

// AutoCLU is the complex counterpart of AutoLU (AC sweeps factor
// (G + jωC) per frequency against one cached symbolic analysis).
type AutoCLU struct {
	dense  CLU
	sp     SparseCLU
	scan   Pattern
	cache  symCache
	sparse bool

	denseFactors  uint64
	sparseFactors uint64
}

// Factor factors a, preferring the sparse replay.
func (f *AutoCLU) Factor(a *CMatrix) error {
	f.scan.ScanComplex(a)
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
func (f *AutoCLU) SolveInPlace(b []complex128) {
	if f.sparse {
		f.sp.SolveInPlace(b)
	} else {
		f.dense.SolveInPlace(b)
	}
}

// SolveInto solves A·x = b writing x into dst; dst may alias b.
func (f *AutoCLU) SolveInto(dst, b []complex128) {
	if len(dst) != len(b) {
		panic("linalg: AutoCLU.SolveInto dimension mismatch")
	}
	copy(dst, b)
	f.SolveInPlace(dst)
}

// Sparse reports whether the last Factor used the sparse path.
func (f *AutoCLU) Sparse() bool { return f.sparse }

// Counts returns how many factorizations took each path.
func (f *AutoCLU) Counts() (sparse, dense uint64) { return f.sparseFactors, f.denseFactors }
