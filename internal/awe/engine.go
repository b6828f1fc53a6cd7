package awe

import (
	"fmt"
	"math"

	"astrx/internal/linalg"
	"astrx/internal/telemetry"
)

// Engine runs the AWE moment recursion against an externally assembled
// (G, C) matrix pair whose storage the caller owns and reuses between
// evaluations. It is the allocation-free core behind Analyzer: the
// synthesis hot path re-stamps G and C in place, calls Refactor, and
// reads moments off precomputed excitation vectors and output indices,
// with no per-evaluation allocation after warm-up.
//
// Refactor skips the factorization when the stamped pair equals, bit for
// bit, the pair the current factors came from: the factors, and every
// moment computed from them, would come out the same. Gen numbers the
// factors, so a caller can keep results computed from them for as long
// as Gen stays the same.
type Engine struct {
	G, C *linalg.Matrix

	// Clock, when non-nil, splits each MomentsInto call into solve time
	// (triangular substitutions) and moment time (RHS assembly) for the
	// sampled per-stage timers. A nil clock costs a single branch.
	Clock *telemetry.Clock

	lu       linalg.AutoLU[float64]
	cur, nxt []float64 // moment recursion scratch
	cnz      []cEntry  // nonzero entries of C, row-major

	// fG and fC hold the (G, C) values the current factors came from.
	// gen numbers those factors (0: none to reuse); last is the highest
	// number issued, so a number is never issued twice.
	fG, fC    []float64
	gen, last uint64
	reused    uint64
}

// cEntry is one nonzero of the C matrix. Circuit C matrices are sparse
// (a handful of capacitances against n² entries), so the moment
// recursion applies C through this list instead of a dense
// matrix-vector product.
type cEntry struct {
	i, j int
	v    float64
}

// FactorStats reports the shape of the most recent factorization
// (rows, pattern nonzeros, fill-in, and whether the sparse path ran).
func (e *Engine) FactorStats() linalg.FactorStats { return e.lu.Stats() }

// FactorCounts reports how many factorizations took the sparse path
// versus fell back to dense, and how many symbolic analyses missed the
// cache, since the engine was created.
func (e *Engine) FactorCounts() linalg.FactorCounts { return e.lu.Counts() }

// Reused reports how many Refactor calls kept the current factors
// because the stamped pair repeated, since the engine was created.
func (e *Engine) Reused() uint64 { return e.reused }

// Gen returns the number of the current factors: it changes whenever
// Refactor factors again, and is 0 while there are none (before the
// first Refactor and after a failed one).
func (e *Engine) Gen() uint64 { return e.gen }

// Refactor brings the LU factorization up to date with G and C, reusing
// the engine's factor storage. It must be called after every re-stamp
// of G or C and before MomentsInto. When the pair repeats the one the
// current factors came from, bit for bit, the factors stay as they are
// and Gen does not change.
func (e *Engine) Refactor() error {
	if e.gen != 0 && sameBits(e.fG, e.G.Data) && sameBits(e.fC, e.C.Data) {
		e.reused++
		return nil
	}
	// A failed factorization has partly overwritten the factors, so
	// nothing is left to reuse until one succeeds.
	e.gen = 0
	if err := e.lu.Factor(e.G); err != nil {
		return fmt.Errorf("%w: %v", ErrNoDCPath, err)
	}
	e.fG = append(e.fG[:0], e.G.Data...)
	e.fC = append(e.fC[:0], e.C.Data...)
	e.last++
	e.gen = e.last
	n := e.G.Rows
	if cap(e.cur) < n {
		e.cur = make([]float64, n)
		e.nxt = make([]float64, n)
	}
	e.cur = e.cur[:n]
	e.nxt = e.nxt[:n]

	// Collect C's sparsity for the recursion. The row-major scan order
	// keeps the per-row accumulation order of a dense product.
	e.cnz = e.cnz[:0]
	for i := 0; i < n; i++ {
		row := e.C.Data[i*e.C.Cols : i*e.C.Cols+n]
		for j, v := range row {
			if v != 0 {
				e.cnz = append(e.cnz, cEntry{i: i, j: j, v: v})
			}
		}
	}
	return nil
}

// sameBits reports whether a and b hold the same float64 bit patterns.
// Comparing bits, not values, makes -0 differ from +0 (the dense LU
// treats them differently) and a NaN equal to itself.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// MomentsInto fills mu with the first len(mu) output moments for the
// excitation vector b and the differential output v[ip] - v[in]; in < 0
// selects a single-ended measurement. b must have length G.Rows and is
// not modified.
func (e *Engine) MomentsInto(mu, b []float64, ip, in int) {
	n := len(mu)
	copy(e.cur, b)
	e.Clock.Mark(telemetry.StageMoments)
	e.lu.SolveInPlace(e.cur) // m_0
	e.Clock.Mark(telemetry.StageSolve)
	for k := 0; k < n; k++ {
		mu[k] = e.cur[ip]
		if in >= 0 {
			mu[k] -= e.cur[in]
		}
		if k == n-1 {
			break
		}
		// m_{k+1} = -G⁻¹ C m_k (allocation-free: the recursion runs
		// hundreds of thousands of times per synthesis). C is applied
		// through its nonzero list — identical accumulation order to the
		// dense product, minus the zero terms.
		for i := range e.nxt {
			e.nxt[i] = 0
		}
		for _, t := range e.cnz {
			e.nxt[t.i] += t.v * e.cur[t.j]
		}
		for i := range e.nxt {
			e.nxt[i] = -e.nxt[i]
		}
		e.Clock.Mark(telemetry.StageMoments)
		e.lu.SolveInPlace(e.nxt)
		e.Clock.Mark(telemetry.StageSolve)
		e.cur, e.nxt = e.nxt, e.cur
	}
}
