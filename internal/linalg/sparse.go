package linalg

import (
	"errors"
	"math"
	"math/bits"
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
//   - SparseLU replays those programs over real or complex numeric
//     arrays with no branching on structure and no allocation after
//     warm-up.
//   - AutoLU fronts the whole thing with a per-factor pattern scan, an
//     LRU cache of symbolic analyses, and numeric guards (tiny static
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
	// symCacheCap bounds the per-factorizer LRU symbolic cache. During
	// an anneal a device that cuts off stops stamping and changes the
	// pattern, so one jig engine meets hundreds of distinct patterns
	// over a run; a few dozen of them recur often enough to pay for
	// their slot. symTableSize is the hash table behind it: a power of
	// two at most half full.
	symCacheCap  = 64
	symTableSize = 2 * symCacheCap
)

// Pattern is the set of nonzero positions of a square dense matrix,
// stored as sorted row-major flat indices. The zero value is ready to
// use; Scan reuses the backing array.
type Pattern struct {
	N   int
	Pos []int32
}

// scanPattern fills p with the nonzero positions of a.
func scanPattern[T Scalar](p *Pattern, a *Dense[T]) {
	if a.Rows != a.Cols {
		panic("linalg: pattern scan requires a square matrix")
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

// FactorCounts tallies the paths a factorizer's Factor calls took.
type FactorCounts struct {
	Sparse uint64 // sparse replays that passed every pivot guard
	Dense  uint64 // dense partial-pivot factorizations (guard trip or structurally singular pattern)
	// SymbolicMisses counts symbolic analyses run because the scanned
	// pattern was not in the factorizer's cache.
	SymbolicMisses uint64
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
// numeric factorization and triangular solves. One returned by
// NewSymbolic is immutable and safe to share between goroutines; the
// factorizers' caches recycle the storage of the ones they evict.
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
	s := &Symbolic{pat: p.clone()}
	var sc symScratch
	if !s.analyze(&sc) {
		return nil
	}
	return s
}

// symScratch is the working storage of one symbolic analysis, kept by
// each cache so a miss allocates only when a pattern outgrows it.
type symScratch struct {
	w          int      // uint64 words per bitset row
	rows, cols []uint64 // occupancy: row r is rows[r*w:], column c is cols[c*w:]
	rowAct     []uint64 // rows not yet eliminated
	colAct     []uint64 // columns not yet eliminated
	rowCnt     []int    // occupied active columns per row
	colCnt     []int    // occupied active rows per column
	pr, pc     []uint64 // filled pattern by permuted row / permuted column
	wbase      []int32  // packed index of the first entry in each word of pr
}

func (sc *symScratch) reset(n int) {
	w := (n + 63) >> 6
	sc.w = w
	sc.rows = zeroed(sc.rows, n*w)
	sc.cols = zeroed(sc.cols, n*w)
	sc.rowAct = zeroed(sc.rowAct, w)
	sc.colAct = zeroed(sc.colAct, w)
	for i := 0; i < n; i++ {
		sc.rowAct[i>>6] |= 1 << (i & 63)
	}
	copy(sc.colAct, sc.rowAct)
	sc.rowCnt = zeroed(sc.rowCnt, n)
	sc.colCnt = zeroed(sc.colCnt, n)
	sc.pr = zeroed(sc.pr, n*w)
	sc.pc = zeroed(sc.pc, n*w)
	sc.wbase = zeroed(sc.wbase, n*w)
}

// zeroed returns b resized to n zero elements, reusing its storage
// when it fits.
func zeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// analyze runs the structural elimination on s.pat, overwriting s's
// programs in place (reusing their storage), and reports false when the
// pattern is structurally singular. The pivot rule is the full
// Markowitz rule: minimize (rowCnt-1)·(colCnt-1) over the active
// nonzeros, ties broken by the smallest (row, col). The active
// submatrix is held as per-row and per-column uint64 bitsets, so each
// step visits only occupied entries instead of scanning n² booleans.
func (s *Symbolic) analyze(sc *symScratch) bool {
	p := &s.pat
	n := p.N
	s.n = n
	if n == 0 {
		return false
	}
	sc.reset(n)
	w := sc.w
	rows, cols := sc.rows, sc.cols
	rowAct, colAct := sc.rowAct, sc.colAct
	rowCnt, colCnt := sc.rowCnt, sc.colCnt
	for _, pos := range p.Pos {
		r, c := int(pos)/n, int(pos)%n
		rows[r*w+c>>6] |= 1 << (c & 63)
		cols[c*w+r>>6] |= 1 << (r & 63)
		rowCnt[r]++
		colCnt[c]++
	}
	s.rowPerm = zeroed(s.rowPerm, n)
	s.colPerm = zeroed(s.colPerm, n)

	for k := 0; k < n; k++ {
		// Rows and columns ascend, so the first strict minimum is the
		// smallest (row, col) among the ties, and a zero cost cannot be
		// beaten. minC bounds every active column's colCnt-1 from below,
		// so a row whose rc·minC reaches the best cost so far holds no
		// entry that could replace it.
		minC := n
		for wc, act := range colAct {
			for ca := act; ca != 0; ca &= ca - 1 {
				minC = min(minC, colCnt[wc<<6+bits.TrailingZeros64(ca)]-1)
			}
		}
		minC = max(minC, 0)
		bestR, bestC, bestM := -1, -1, 0
	search:
		for wr, act := range rowAct {
			for ra := act; ra != 0; ra &= ra - 1 {
				r := wr<<6 + bits.TrailingZeros64(ra)
				rc := rowCnt[r] - 1
				if bestR >= 0 && rc*minC >= bestM {
					continue
				}
				row := rows[r*w : r*w+w]
				for wc, cw := range row {
					for ca := cw & colAct[wc]; ca != 0; ca &= ca - 1 {
						c := wc<<6 + bits.TrailingZeros64(ca)
						m := rc * (colCnt[c] - 1)
						if bestR < 0 || m < bestM {
							bestR, bestC, bestM = r, c, m
							if m == 0 {
								break search
							}
						}
					}
				}
			}
		}
		if bestR < 0 {
			return false // structurally singular
		}
		r, c := bestR, bestC
		s.rowPerm[k], s.colPerm[k] = int32(r), int32(c)
		rowR := rows[r*w : r*w+w]
		colC := cols[c*w : c*w+w]
		// Fill: every active row i ≠ r with A[i,c] gains the active
		// entries of row r it lacks. Column c is already set in row i,
		// so the mask excludes it.
		for wi, cw := range colC {
			for ia := cw & rowAct[wi]; ia != 0; ia &= ia - 1 {
				i := wi<<6 + bits.TrailingZeros64(ia)
				if i == r {
					continue
				}
				rowI := rows[i*w : i*w+w]
				for wj, rw := range rowR {
					fill := rw & colAct[wj] &^ rowI[wj]
					if fill == 0 {
						continue
					}
					rowI[wj] |= fill
					rowCnt[i] += bits.OnesCount64(fill)
					for ; fill != 0; fill &= fill - 1 {
						j := wj<<6 + bits.TrailingZeros64(fill)
						colCnt[j]++
						cols[j*w+i>>6] |= 1 << (i & 63)
					}
				}
			}
		}
		// Retire the pivot row and column from the active submatrix.
		rowAct[r>>6] &^= 1 << (r & 63)
		colAct[c>>6] &^= 1 << (c & 63)
		for x := 0; x < w; x++ {
			for ja := rowR[x] & colAct[x]; ja != 0; ja &= ja - 1 {
				colCnt[x<<6+bits.TrailingZeros64(ja)]--
			}
			for ia := colC[x] & rowAct[x]; ia != 0; ia &= ia - 1 {
				rowCnt[x<<6+bits.TrailingZeros64(ia)]--
			}
		}
	}

	// Pack the filled pattern in permuted row-major order. prow/pcol
	// invert the permutations (borrowing the count scratch, which the
	// elimination no longer needs); pr and pc re-index the filled
	// pattern by permuted row and permuted column; the packed index of
	// an entry is its rank in pr.
	prow, pcol := rowCnt, colCnt
	for k := 0; k < n; k++ {
		prow[s.rowPerm[k]] = k
		pcol[s.colPerm[k]] = k
	}
	pr, pc := sc.pr, sc.pc
	for r := 0; r < n; r++ {
		pk := prow[r]
		for x, bw := range rows[r*w : r*w+w] {
			for ; bw != 0; bw &= bw - 1 {
				pj := pcol[x<<6+bits.TrailingZeros64(bw)]
				pr[pk*w+pj>>6] |= 1 << (pj & 63)
				pc[pj*w+pk>>6] |= 1 << (pk & 63)
			}
		}
	}
	idx := int32(0)
	for x, bw := range pr {
		sc.wbase[x] = idx
		idx += int32(bits.OnesCount64(bw))
	}
	rank := func(pi, pj int) int32 {
		x := pi*w + pj>>6
		return sc.wbase[x] + int32(bits.OnesCount64(pr[x]&(1<<(pj&63)-1)))
	}

	s.lunnz = int(idx)
	s.pivIdx = zeroed(s.pivIdx, n)
	s.lPtr = zeroed(s.lPtr, n+1)
	s.uPtr = zeroed(s.uPtr, n+1)
	s.mulPtr = zeroed(s.mulPtr, n+1)
	s.scatter = zeroed(s.scatter, len(p.Pos))
	for t, pos := range p.Pos {
		s.scatter[t] = rank(prow[int(pos)/n], pcol[int(pos)%n])
	}
	s.lIdx, s.lRow = s.lIdx[:0], s.lRow[:0]
	s.uIdx, s.uCol = s.uIdx[:0], s.uCol[:0]
	s.mulT, s.mulL, s.mulU = s.mulT[:0], s.mulL[:0], s.mulU[:0]
	for k := 0; k < n; k++ {
		s.pivIdx[k] = rank(k, k)
		// L column k holds the permuted rows below k, U row k the
		// permuted columns right of k, both ascending.
		above := ^(uint64(2)<<(k&63) - 1) // bits > k&63 of word k>>6
		s.lPtr[k] = int32(len(s.lIdx))
		for x := k >> 6; x < w; x++ {
			bw := pc[k*w+x]
			if x == k>>6 {
				bw &= above
			}
			for ; bw != 0; bw &= bw - 1 {
				i := x<<6 + bits.TrailingZeros64(bw)
				s.lIdx = append(s.lIdx, rank(i, k))
				s.lRow = append(s.lRow, int32(i))
			}
		}
		s.lPtr[k+1] = int32(len(s.lIdx))
		s.uPtr[k] = int32(len(s.uIdx))
		for x := k >> 6; x < w; x++ {
			bw := pr[k*w+x]
			if x == k>>6 {
				bw &= above
			}
			for ; bw != 0; bw &= bw - 1 {
				j := x<<6 + bits.TrailingZeros64(bw)
				s.uIdx = append(s.uIdx, rank(k, j))
				s.uCol = append(s.uCol, int32(j))
			}
		}
		s.uPtr[k+1] = int32(len(s.uIdx))
		s.mulPtr[k] = int32(len(s.mulT))
		for li := s.lPtr[k]; li < s.lPtr[k+1]; li++ {
			i := int(s.lRow[li])
			lv := s.lIdx[li]
			for ui := s.uPtr[k]; ui < s.uPtr[k+1]; ui++ {
				s.mulT = append(s.mulT, rank(i, int(s.uCol[ui])))
				s.mulL = append(s.mulL, lv)
				s.mulU = append(s.mulU, s.uIdx[ui])
			}
		}
		s.mulPtr[k+1] = int32(len(s.mulT))
	}
	s.flops = len(s.mulT)
	return true
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

// symCache is a fixed-capacity LRU cache of symbolic analyses keyed by
// pattern, indexed by an open-addressing hash table. The most recently
// used entry is checked before any hashing, so a factorizer whose
// pattern holds still (every start-point evaluation) pays one pattern
// comparison per lookup. A miss re-analyzes into the least recently
// used entry's storage.
type symCache struct {
	ents       []symEntry // at most symCacheCap, allocated on first use
	slots      []int16    // hash table of ents indices, -1 when empty
	head, tail int16      // LRU list ends: head most, tail least recent
	misses     uint64
	scratch    symScratch
}

type symEntry struct {
	hash       uint64
	sym        Symbolic // keyed by sym.pat
	ok         bool     // false: pattern known structurally singular → dense
	prev, next int16    // LRU list links, -1 at the ends
}

// symbolicMissHook, when set, sees every pattern a cache misses on. It
// exists for the equivalence tests, which check the analysis of every
// pattern a real synthesis run produces; production code leaves it nil.
var symbolicMissHook func(*Pattern)

// hash mixes the pattern's dimension and positions (FNV-1a over 32-bit
// words, then a final avalanche so the table index sees every bit).
func (p *Pattern) hash() uint64 {
	h := uint64(14695981039346656037) ^ uint64(p.N)
	for _, v := range p.Pos {
		h = (h ^ uint64(uint32(v))) * 1099511628211
	}
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// lookup returns the cached analysis for p, computing and caching it on
// a miss. ok is false when the pattern is structurally singular.
func (c *symCache) lookup(p *Pattern) (sym *Symbolic, ok bool) {
	if len(c.ents) > 0 {
		if e := &c.ents[c.head]; e.sym.pat.Equal(p) {
			return &e.sym, e.ok
		}
	}
	if c.ents == nil {
		c.ents = make([]symEntry, 0, symCacheCap)
		c.slots = make([]int16, symTableSize)
		for i := range c.slots {
			c.slots[i] = -1
		}
		c.head, c.tail = -1, -1
	}
	h := p.hash()
	mask := len(c.slots) - 1
	for i := int(h) & mask; c.slots[i] >= 0; i = (i + 1) & mask {
		idx := c.slots[i]
		if e := &c.ents[idx]; e.hash == h && e.sym.pat.Equal(p) {
			c.unlink(idx)
			c.pushFront(idx)
			return &e.sym, e.ok
		}
	}
	c.misses++
	if symbolicMissHook != nil {
		symbolicMissHook(p)
	}
	var idx int16
	if len(c.ents) < symCacheCap {
		idx = int16(len(c.ents))
		c.ents = c.ents[:idx+1]
	} else {
		idx = c.tail
		c.unlink(idx)
		c.reindex(idx)
	}
	e := &c.ents[idx]
	e.hash = h
	e.sym.pat.N = p.N
	e.sym.pat.Pos = append(e.sym.pat.Pos[:0], p.Pos...)
	e.ok = e.sym.analyze(&c.scratch)
	c.place(idx)
	c.pushFront(idx)
	return &e.sym, e.ok
}

// place puts entry idx in the first free slot of its probe chain.
func (c *symCache) place(idx int16) {
	mask := len(c.slots) - 1
	i := int(c.ents[idx].hash) & mask
	for c.slots[i] >= 0 {
		i = (i + 1) & mask
	}
	c.slots[i] = idx
}

// reindex rebuilds the hash table without entry skip (the eviction
// victim). Rebuilding costs far less than the analysis the miss runs
// anyway, and keeps every probe chain intact without tombstones.
func (c *symCache) reindex(skip int16) {
	for i := range c.slots {
		c.slots[i] = -1
	}
	for idx := range c.ents {
		if int16(idx) != skip {
			c.place(int16(idx))
		}
	}
}

func (c *symCache) unlink(idx int16) {
	e := &c.ents[idx]
	if e.prev >= 0 {
		c.ents[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.ents[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}

func (c *symCache) pushFront(idx int16) {
	e := &c.ents[idx]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.ents[c.head].prev = idx
	} else {
		c.tail = idx
	}
	c.head = idx
}

// SparseLU replays a Symbolic's factor and solve programs over packed
// numeric storage: real for AWE and the Newton moves, complex for the
// AC sweep's (G + jωC), whose pattern is shared across ω.
type SparseLU[T Scalar] struct {
	sym    *Symbolic
	v      []T
	pivInv []T
	w      []T
}

// reset points the numeric storage at sym, reallocating only on growth.
func (f *SparseLU[T]) reset(sym *Symbolic) {
	f.sym = sym
	if cap(f.v) < sym.lunnz {
		f.v = make([]T, sym.lunnz)
	}
	f.v = f.v[:sym.lunnz]
	if cap(f.pivInv) < sym.n {
		f.pivInv = make([]T, sym.n)
		f.w = make([]T, sym.n)
	}
	f.pivInv = f.pivInv[:sym.n]
	f.w = f.w[:sym.n]
}

// The guards compare magnitudes: |x| for real entries, |re| + |im| for
// complex ones (within √2 of the modulus, which order-of-magnitude
// guards do not care about). Generic code cannot call math.Abs or real
// on a T, so mag, maxMag and scatter switch on the type; the last two
// switch once per slice, since a switch per element would double their
// loops.

// mag returns the guard magnitude of x.
func mag[T Scalar](x T) float64 {
	switch x := any(x).(type) {
	case float64:
		return math.Abs(x)
	case complex128:
		return math.Abs(real(x)) + math.Abs(imag(x))
	}
	panic("unreachable")
}

// maxMag returns the largest guard magnitude in v, skipping NaN (0 for
// an empty or all-NaN slice).
func maxMag[T Scalar](v []T) float64 {
	m := 0.0
	switch v := any(v).(type) {
	case []float64:
		for _, x := range v {
			if a := math.Abs(x); a > m {
				m = a
			}
		}
	case []complex128:
		for _, x := range v {
			if a := math.Abs(real(x)) + math.Abs(imag(x)); a > m {
				m = a
			}
		}
	}
	return m
}

// scatter copies the entries of a at the pattern positions pos into v
// at the packed slots slot and returns their largest guard magnitude,
// skipping NaN.
func scatter[T Scalar](v, a []T, pos, slot []int32) float64 {
	m := 0.0
	switch v := any(v).(type) {
	case []float64:
		a := any(a).([]float64)
		for t, p := range pos {
			x := a[p]
			v[slot[t]] = x
			if ax := math.Abs(x); ax > m {
				m = ax
			}
		}
	case []complex128:
		a := any(a).([]complex128)
		for t, p := range pos {
			x := a[p]
			v[slot[t]] = x
			if ax := math.Abs(real(x)) + math.Abs(imag(x)); ax > m {
				m = ax
			}
		}
	}
	return m
}

// Factor scatters a's nonzeros (which must match the symbolic pattern)
// into packed storage and replays the factor program. It returns
// errSparseGuard when a numeric guard rejects the static pivot order.
func (f *SparseLU[T]) Factor(a *Dense[T]) error {
	s := f.sym
	v := f.v
	clear(v)
	maxA := scatter(v, a.Data, s.pat.Pos, s.scatter)
	minPiv := max(sparseTinyPivot, sparsePivRel*maxA)
	for k := 0; k < s.n; k++ {
		piv := v[s.pivIdx[k]]
		if !(mag(piv) >= minPiv) { // catches 0 and NaN
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
	if !(maxMag(v) <= sparseGrowthLimit*maxA) {
		return errSparseGuard
	}
	return nil
}

// SolveInPlace solves A·x = b overwriting b, replaying the substitution
// programs over the packed factors.
func (f *SparseLU[T]) SolveInPlace(b []T) {
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

// denseLU is the dense partial-pivot factorization an AutoLU falls back
// on: LU for real systems, CLU for complex ones. They are different
// algorithms (LU pivots on row-scaled magnitudes and skips structural
// zeros, CLU pivots on the modulus), so they stay two types.
type denseLU[T Scalar] interface {
	Factor(a *Dense[T]) error
	SolveInPlace(b []T)
}

// newDenseLU returns the dense fallback for T.
func newDenseLU[T Scalar]() denseLU[T] {
	var d any = new(LU)
	if _, ok := any(*new(T)).(complex128); ok {
		d = new(CLU)
	}
	return d.(denseLU[T])
}

// AutoLU is the adaptive factorizer used on evaluation hot paths:
// AutoLU[float64] for AWE and the Newton moves, AutoLU[complex128] for
// the AC sweep. Each Factor scans the matrix pattern, reuses (or builds
// and caches) the matching symbolic analysis, and replays the sparse
// numeric program, falling back to dense partial-pivot LU when the
// pattern is structurally singular or a numeric guard trips. Solves
// dispatch to whichever factorization Factor produced. The zero value
// is ready to use; after warm-up no call allocates.
type AutoLU[T Scalar] struct {
	dense  denseLU[T] // created on the first fallback
	sp     SparseLU[T]
	scan   Pattern
	cache  symCache
	sparse bool // which factorization is current

	denseFactors  uint64
	sparseFactors uint64
}

// Factor factors a, choosing the sparse replay or the dense fallback.
// The choice is a deterministic function of a's values, so two solvers
// handed bit-identical matrices factor identically.
func (f *AutoLU[T]) Factor(a *Dense[T]) error {
	scanPattern(&f.scan, a)
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
	if f.dense == nil {
		f.dense = newDenseLU[T]()
	}
	return f.dense.Factor(a)
}

// SolveInPlace solves A·x = b overwriting b.
func (f *AutoLU[T]) SolveInPlace(b []T) {
	if f.sparse {
		f.sp.SolveInPlace(b)
	} else {
		f.dense.SolveInPlace(b)
	}
}

// SolveInto solves A·x = b writing x into dst; dst may alias b.
func (f *AutoLU[T]) SolveInto(dst, b []T) {
	if len(dst) != len(b) {
		panic("linalg: AutoLU.SolveInto dimension mismatch")
	}
	copy(dst, b)
	f.SolveInPlace(dst)
}

// Sparse reports whether the last Factor used the sparse path.
func (f *AutoLU[T]) Sparse() bool { return f.sparse }

// Stats describes the last factorization.
func (f *AutoLU[T]) Stats() FactorStats {
	if f.sparse {
		return f.sp.sym.Stats()
	}
	n := f.scan.N
	return FactorStats{Rows: n, NNZ: len(f.scan.Pos), FillNNZ: n * n, Flops: n * n * n / 3}
}

// Counts returns how many factorizations took each path and how many
// symbolic analyses the cache missed on.
func (f *AutoLU[T]) Counts() FactorCounts {
	return FactorCounts{Sparse: f.sparseFactors, Dense: f.denseFactors, SymbolicMisses: f.cache.misses}
}
