package awe

import (
	"fmt"

	"astrx/internal/linalg"
	"astrx/internal/telemetry"
)

// Engine runs the AWE moment recursion against an externally assembled
// (G, C) matrix pair whose storage the caller owns and reuses between
// evaluations. It is the allocation-free core behind Analyzer: the
// synthesis hot path re-stamps G and C in place, calls Refactor, and
// reads moments off precomputed excitation vectors and output indices,
// with no per-evaluation allocation after warm-up.
type Engine struct {
	G, C *linalg.Matrix

	// Clock, when non-nil, splits each MomentsInto call into solve time
	// (triangular substitutions) and moment time (RHS assembly) for the
	// sampled per-stage timers. A nil clock costs a single branch.
	Clock *telemetry.Clock

	lu       linalg.AutoLU
	cur, nxt []float64 // moment recursion scratch
	cnz      []cEntry  // nonzero entries of C, row-major
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
// versus fell back to dense since the engine was created.
func (e *Engine) FactorCounts() (sparse, dense uint64) { return e.lu.Counts() }

// Refactor recomputes the LU factorization of G, reusing the engine's
// factor storage. It must be called after every re-stamp of G and
// before MomentsInto.
func (e *Engine) Refactor() error {
	if err := e.lu.Factor(e.G); err != nil {
		return fmt.Errorf("%w: %v", ErrNoDCPath, err)
	}
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
