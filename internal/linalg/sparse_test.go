package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
)

// mnaRandom builds a random MNA-patterned matrix: nNodes node rows with
// conductance stamps (symmetric pattern, dominant-ish diagonal) plus
// nBranch voltage-source branch rows (±1 couplings, structurally zero
// diagonal) — the shape the jig matrices actually have.
func mnaRandom(rng *rand.Rand, nNodes, nBranch int) *Matrix {
	n := nNodes + nBranch
	a := NewMatrix(n, n)
	// Conductance graph: each node gets a ground tie plus a few random
	// neighbor conductances. The spread is kept to a couple of decades so
	// the matrices stay well conditioned — 1e-12 agreement between two
	// pivot orders is only meaningful when cond(A)·eps is below it; the
	// genuinely ill-conditioned regime is covered by the singular-parity
	// and growth-guard tests.
	for i := 0; i < nNodes; i++ {
		a.Add(i, i, 0.1+rng.Float64()) // ground tie
		for e := 0; e < 2; e++ {
			j := rng.Intn(nNodes)
			if j == i {
				continue
			}
			g := math.Exp(0.8 * rng.NormFloat64())
			a.Add(i, i, g)
			a.Add(j, j, g)
			a.Add(i, j, -g)
			a.Add(j, i, -g)
		}
		// Occasional VCCS-style asymmetric stamp.
		if rng.Intn(3) == 0 {
			j := rng.Intn(nNodes)
			if j != i {
				a.Add(i, j, 0.3*rng.NormFloat64())
			}
		}
	}
	// Branch rows: v(p) - v(q) = 0 structure.
	for b := 0; b < nBranch; b++ {
		br := nNodes + b
		p := rng.Intn(nNodes)
		q := rng.Intn(nNodes)
		if q == p {
			q = (p + 1) % nNodes
		}
		a.Add(p, br, 1)
		a.Add(q, br, -1)
		a.Add(br, p, 1)
		a.Add(br, q, -1)
	}
	return a
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		s := math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i])))
		if d/s > m {
			m = d / s
		}
	}
	return m
}

// TestSparseMatchesDenseProperty factors random MNA-patterned matrices
// on both paths and demands 1e-12 agreement of the solutions.
func TestSparseMatchesDenseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var auto AutoLU[float64]
	var dense LU
	sparseRuns := 0
	for trial := 0; trial < 300; trial++ {
		nNodes := 2 + rng.Intn(12)
		nBranch := rng.Intn(3)
		a := mnaRandom(rng, nNodes, nBranch)
		n := a.Rows
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		errD := dense.Factor(a)
		errS := auto.Factor(a)
		if (errD == nil) != (errS == nil) {
			t.Fatalf("trial %d: dense err %v, auto err %v", trial, errD, errS)
		}
		if errD != nil {
			continue
		}
		xd := make([]float64, n)
		xs := make([]float64, n)
		dense.SolveInto(xd, b)
		auto.SolveInto(xs, b)
		if d := maxAbsDiff(xd, xs); d > 1e-12 {
			t.Fatalf("trial %d (n=%d sparse=%v): sparse vs dense diff %.3e", trial, n, auto.Sparse(), d)
		}
		if auto.Sparse() {
			sparseRuns++
			st := auto.Stats()
			if st.Rows != n || st.NNZ == 0 || st.FillNNZ < st.NNZ {
				t.Fatalf("trial %d: bad stats %+v", trial, st)
			}
		}
	}
	if sparseRuns < 200 {
		t.Fatalf("sparse path exercised only %d/300 trials", sparseRuns)
	}
}

// TestSparseSingularParity checks that structurally and numerically
// singular matrices report ErrSingular identically on both paths.
func TestSparseSingularParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var auto AutoLU[float64]
	var dense LU
	for trial := 0; trial < 100; trial++ {
		a := mnaRandom(rng, 2+rng.Intn(8), rng.Intn(2))
		n := a.Rows
		switch trial % 3 {
		case 0: // zero row
			r := rng.Intn(n)
			for j := 0; j < n; j++ {
				a.Set(r, j, 0)
			}
		case 1: // zero column
			c := rng.Intn(n)
			for i := 0; i < n; i++ {
				a.Set(i, c, 0)
			}
		case 2: // duplicated row (rank deficient)
			r1, r2 := rng.Intn(n), rng.Intn(n)
			if r1 == r2 {
				r2 = (r1 + 1) % n
			}
			for j := 0; j < n; j++ {
				a.Set(r2, j, a.At(r1, j))
			}
		}
		errD := dense.Factor(a)
		errS := auto.Factor(a)
		if (errD == nil) != (errS == nil) {
			t.Fatalf("trial %d: dense err %v, auto err %v", trial, errD, errS)
		}
		if errD != nil && errS != ErrSingular {
			// AutoLU's fallback must surface the dense verdict verbatim.
			t.Fatalf("trial %d: auto error %v, want ErrSingular", trial, errS)
		}
	}
}

// TestSparseGrowthFallback builds a matrix whose structural pivot order
// is numerically terrible (tiny leading pivot on a dense pattern) and
// checks the guard routes it to the dense path with correct results.
func TestSparseGrowthFallback(t *testing.T) {
	n := 4
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, 1+float64(i*n+j)/7)
		}
	}
	a.Set(0, 0, 1e-13) // structural order pivots here first → huge growth
	// Perturb to keep it nonsingular.
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(i)*0.37)
	}
	var sym Symbolic
	var pat Pattern
	scanPattern(&pat, a)
	s := NewSymbolic(&pat)
	if s == nil {
		t.Fatal("dense pattern should have a symbolic analysis")
	}
	sym = *s
	var slu SparseLU[float64]
	slu.reset(&sym)
	if err := slu.Factor(a); err != errSparseGuard {
		t.Fatalf("sparse factor error = %v, want guard trip", err)
	}
	var auto AutoLU[float64]
	if err := auto.Factor(a); err != nil {
		t.Fatalf("auto factor: %v", err)
	}
	if auto.Sparse() {
		t.Fatal("auto should have fallen back to dense")
	}
	b := []float64{1, 2, 3, 4}
	var dense LU
	if err := dense.Factor(a); err != nil {
		t.Fatalf("dense factor: %v", err)
	}
	xd := dense.Solve(b)
	xa := make([]float64, n)
	auto.SolveInto(xa, b)
	if d := maxAbsDiff(xd, xa); d != 0 {
		t.Fatalf("fallback solve differs from dense by %g", d)
	}
}

// TestSparseComplexMatchesDense runs the property suite on the complex
// variant with (G + jωC)-shaped values.
func TestSparseComplexMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var auto AutoLU[complex128]
	var dense CLU
	sparseRuns := 0
	for trial := 0; trial < 200; trial++ {
		ar := mnaRandom(rng, 2+rng.Intn(10), rng.Intn(3))
		n := ar.Rows
		a := NewCMatrix(n, n)
		for i, v := range ar.Data {
			if v != 0 {
				a.Data[i] = complex(v, rng.NormFloat64()*math.Abs(v))
			}
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		errD := dense.Factor(a)
		errS := auto.Factor(a)
		if (errD == nil) != (errS == nil) {
			t.Fatalf("trial %d: dense err %v, auto err %v", trial, errD, errS)
		}
		if errD != nil {
			continue
		}
		xd := make([]complex128, n)
		xs := make([]complex128, n)
		dense.SolveInto(xd, b)
		auto.SolveInto(xs, b)
		worst := 0.0
		for i := range xd {
			d := cmplx.Abs(xd[i] - xs[i])
			s := math.Max(1, math.Max(cmplx.Abs(xd[i]), cmplx.Abs(xs[i])))
			if d/s > worst {
				worst = d / s
			}
		}
		if worst > 1e-12 {
			t.Fatalf("trial %d (n=%d sparse=%v): diff %.3e", trial, n, auto.Sparse(), worst)
		}
		if auto.Sparse() {
			sparseRuns++
		}
	}
	if sparseRuns < 120 {
		t.Fatalf("sparse path exercised only %d/200 trials", sparseRuns)
	}
}

// TestSymbolicStructurallySingular checks empty rows are rejected at
// symbolic time.
func TestSymbolicStructurallySingular(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	// row 2 empty
	var pat Pattern
	scanPattern(&pat, a)
	if s := NewSymbolic(&pat); s != nil {
		t.Fatal("expected nil symbolic for structurally singular pattern")
	}
}

// TestAutoLUZeroAlloc pins the warm steady state of both
// instantiations: repeated factor+solve cycles with a stable pattern
// must not allocate.
func TestAutoLUZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ar := mnaRandom(rng, 10, 2)
	n := ar.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	t.Run("float64", func(t *testing.T) { autoLUZeroAlloc(t, ar, b) })
	ac := NewCMatrix(n, n)
	for i, v := range ar.Data {
		if v != 0 {
			ac.Data[i] = complex(v, rng.NormFloat64()*math.Abs(v))
		}
	}
	bc := make([]complex128, n)
	for i := range bc {
		bc[i] = complex(b[i], rng.NormFloat64())
	}
	t.Run("complex128", func(t *testing.T) { autoLUZeroAlloc(t, ac, bc) })
}

func autoLUZeroAlloc[T Scalar](t *testing.T, a *Dense[T], b []T) {
	var auto AutoLU[T]
	x := make([]T, len(b))
	if err := auto.Factor(a); err != nil {
		t.Fatalf("warmup factor: %v", err)
	}
	if !auto.Sparse() {
		t.Skip("pattern fell back to dense; alloc pin applies to the sparse path")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := auto.Factor(a); err != nil {
			t.Fatalf("factor: %v", err)
		}
		auto.SolveInto(x, b)
	})
	if allocs != 0 {
		t.Fatalf("AutoLU factor+solve allocates %v/op, want 0", allocs)
	}
}

// refNewSymbolic is NewSymbolic as it stood before the bitset analysis:
// O(n³) scans of an n×n []bool. It is kept verbatim as the reference
// the bitset analysis must reproduce exactly.
func refNewSymbolic(p *Pattern) *Symbolic {
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

// symDiff describes the first way got differs from the reference
// analysis want ("" when the two are identical).
func symDiff(got, want *Symbolic) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("nil mismatch: got %v, want %v", got == nil, want == nil)
	}
	if got == nil {
		return ""
	}
	if got.n != want.n || got.lunnz != want.lunnz || got.flops != want.flops {
		return fmt.Sprintf("shape n=%d lunnz=%d flops=%d, want n=%d lunnz=%d flops=%d",
			got.n, got.lunnz, got.flops, want.n, want.lunnz, want.flops)
	}
	if got.pat.N != want.pat.N || !slices.Equal(got.pat.Pos, want.pat.Pos) {
		return "pattern differs"
	}
	for _, f := range []struct {
		name      string
		got, want []int32
	}{
		{"rowPerm", got.rowPerm, want.rowPerm},
		{"colPerm", got.colPerm, want.colPerm},
		{"scatter", got.scatter, want.scatter},
		{"pivIdx", got.pivIdx, want.pivIdx},
		{"lIdx", got.lIdx, want.lIdx},
		{"lRow", got.lRow, want.lRow},
		{"lPtr", got.lPtr, want.lPtr},
		{"uIdx", got.uIdx, want.uIdx},
		{"uCol", got.uCol, want.uCol},
		{"uPtr", got.uPtr, want.uPtr},
		{"mulT", got.mulT, want.mulT},
		{"mulL", got.mulL, want.mulL},
		{"mulU", got.mulU, want.mulU},
		{"mulPtr", got.mulPtr, want.mulPtr},
	} {
		if !slices.Equal(f.got, f.want) {
			return fmt.Sprintf("%s differs:\n got  %v\n want %v", f.name, f.got, f.want)
		}
	}
	return ""
}

// randomMNAPattern scans a random MNA-shaped matrix of n = nNodes +
// nBranch rows, with some off-diagonal stamps dropped (a device that
// cuts off stops stamping) and, on request, one row or column emptied
// (structurally singular).
func randomMNAPattern(rng *rand.Rand, nNodes, nBranch int, empty int) *Pattern {
	a := mnaRandom(rng, nNodes, nBranch)
	n := a.Rows
	drop := rng.Float64() * 0.3
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < drop {
				a.Set(i, j, 0)
			}
		}
	}
	switch empty {
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
	}
	var p Pattern
	scanPattern(&p, a)
	return &p
}

// TestSymbolicMatchesReference holds the bitset analysis to the O(n³)
// reference on random MNA-shaped patterns up to n = 130 (a bitset row
// spans three words), through both entry points: NewSymbolic, and a
// cache whose misses recycle evicted entries and one scratch across
// sizes. Patterns with an emptied row or column must come back nil.
func TestSymbolicMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cache symCache
	singular := 0
	for trial := 0; trial < 2100; trial++ {
		var nNodes int
		switch trial % 3 {
		case 0:
			nNodes = 2 + rng.Intn(18)
		case 1:
			nNodes = 20 + rng.Intn(50)
		default:
			nNodes = 70 + rng.Intn(51)
		}
		nBranch := rng.Intn(11)
		empty := 0
		if trial%10 == 9 {
			empty = 1 + trial/10%2
		}
		p := randomMNAPattern(rng, nNodes, nBranch, empty)
		want := refNewSymbolic(p)
		if want == nil {
			singular++
		}
		if empty != 0 && want != nil {
			t.Fatalf("trial %d: reference analyzed a pattern with an empty line", trial)
		}
		if d := symDiff(NewSymbolic(p), want); d != "" {
			t.Fatalf("trial %d (n=%d): NewSymbolic: %s", trial, p.N, d)
		}
		got, ok := cache.lookup(p)
		if !ok {
			got = nil
		}
		if d := symDiff(got, want); d != "" {
			t.Fatalf("trial %d (n=%d): cached analysis: %s", trial, p.N, d)
		}
	}
	if singular < 200 {
		t.Fatalf("only %d structurally singular patterns; the empty-line cases are not exercised", singular)
	}
	if cache.misses < 2000 {
		t.Fatalf("cache saw %d misses over 2100 random patterns; recycling is not exercised", cache.misses)
	}
}

// TestSymCacheLRU pins the eviction order: a hit refreshes its entry,
// so after symCacheCap further patterns the refreshed one survives
// while the least recently used is re-analyzed on its next lookup.
func TestSymCacheLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var pats []*Pattern
	for len(pats) < symCacheCap+1 {
		p := randomMNAPattern(rng, 4+len(pats)%9, len(pats)%3, 0)
		if !slices.ContainsFunc(pats, p.Equal) {
			pats = append(pats, p)
		}
	}
	var c symCache
	for _, p := range pats[:symCacheCap] {
		c.lookup(p)
	}
	if c.misses != symCacheCap {
		t.Fatalf("%d misses filling the cache, want %d", c.misses, symCacheCap)
	}
	c.lookup(pats[0]) // hit: pats[0] becomes most recent, pats[1] least
	if c.misses != symCacheCap {
		t.Fatal("a cached pattern missed")
	}
	c.lookup(pats[symCacheCap]) // evicts pats[1]
	c.lookup(pats[0])
	if c.misses != symCacheCap+1 {
		t.Fatal("the refreshed entry was evicted")
	}
	c.lookup(pats[1])
	if c.misses != symCacheCap+2 {
		t.Fatal("the least recently used entry was not the one evicted")
	}
	for _, p := range pats {
		got, ok := c.lookup(p)
		if !ok {
			got = nil
		}
		if d := symDiff(got, refNewSymbolic(p)); d != "" {
			t.Fatalf("after recycling: %s", d)
		}
	}
}
