// Package dcsolve implements a damped Newton-Raphson solver for nonlinear
// DC operating points. OBLX uses it two ways, following §V-A of the
// paper: as full and partial *moves* inside the annealing (gradient-
// directed steps toward dc-correctness on the relaxed-dc formulation),
// and — in package verify — as the reference simulator's bias solver for
// checking finished designs. Gmin stepping provides the continuation
// safety net a detailed circuit simulator would have.
package dcsolve

import (
	"context"
	"errors"
	"fmt"
	"math"

	"astrx/internal/linalg"
)

// Problem is a nonlinear nodal system F(v) = 0 with Jacobian.
type Problem interface {
	// N returns the number of unknowns.
	N() int
	// Residual fills f with F(v).
	Residual(v, f []float64) error
	// Jacobian fills j (N×N) with ∂F/∂v.
	Jacobian(v []float64, j *linalg.Matrix) error
}

// The solver's fixed tolerances and limits.
const (
	absTol    = 1e-12 // residual tolerance, A
	relTol    = 1e-9  // per-unknown relative step tolerance
	maxStep   = 1.0   // voltage-step limit per iteration, V
	finalGmin = 1e-12 // final diagonal conductance, S
)

// Options tunes the solve.
type Options struct {
	MaxIter int // 0 → 120
	// GminSteps enables continuation: the solver first solves with a
	// large diagonal conductance and re-solves while stepping it down to
	// finalGmin over this many decades (0 → direct solve only).
	GminSteps int
	// BestEffort makes Solve return the last iterate (with a non-nil
	// *Result alongside ErrNoConvergence) instead of discarding partial
	// progress — what OBLX's gradient-directed moves want.
	BestEffort bool
	// FailHook, when set, is polled once per Newton iteration; returning
	// true aborts the solve immediately with ErrNoConvergence (no
	// best-effort iterate — a simulated catastrophic failure). It exists
	// for fault injection; see internal/faults.
	FailHook func() bool
	// Work, when set, supplies reusable iteration storage so repeated
	// solves on same-sized problems allocate nothing (OBLX performs one
	// small solve per Newton annealing move). With Work set, the Result,
	// Step's return and a non-convergence error alias the workspace and
	// are only valid until the next solve that uses it — copy what must
	// be kept.
	Work *Workspace
}

// Workspace holds the per-solve scratch of the Newton iteration: the
// iterate, residual and trial vectors, the Jacobian, and its LU factor.
// The zero value is ready to use; buffers grow to the largest problem
// seen. It is single-goroutine state.
type Workspace struct {
	v, f, dv, trial, ftrial []float64
	j                       linalg.Matrix
	// lu routes through the sparse path when the Jacobian's scanned
	// pattern has a cached symbolic analysis — after the first move on a
	// reused Workspace, every subsequent factor is a sparse replay — and
	// falls back to dense partial pivoting when a pivot guard trips, so
	// singular-Jacobian verdicts are identical to the dense-only solver.
	lu linalg.AutoLU[float64]
	// res and noConv hold newton's result and non-convergence error, so
	// a solve returns them without allocating.
	res    Result
	noConv convergenceError
}

// size readies every buffer for an n-unknown solve.
func (w *Workspace) size(n int) {
	if cap(w.v) < n {
		w.v = make([]float64, n)
		w.f = make([]float64, n)
		w.dv = make([]float64, n)
		w.trial = make([]float64, n)
		w.ftrial = make([]float64, n)
	}
	w.v, w.f, w.dv = w.v[:n], w.f[:n], w.dv[:n]
	w.trial, w.ftrial = w.trial[:n], w.ftrial[:n]
	if w.j.Rows != n || w.j.Cols != n {
		w.j = *linalg.NewMatrix(n, n)
	}
}

func (o *Options) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 120
	}
}

// ErrNoConvergence is returned when Newton iteration fails to converge.
var ErrNoConvergence = errors.New("dcsolve: no convergence")

// ErrNonFinite is returned when the starting vector contains NaN or ±Inf
// — a poisoned input must be rejected at the boundary, not propagated
// through the Jacobian where it corrupts every unknown.
var ErrNonFinite = errors.New("dcsolve: non-finite value in input vector")

// checkFinite returns a wrapped ErrNonFinite for the first bad entry.
func checkFinite(v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: v[%d] = %g", ErrNonFinite, i, x)
		}
	}
	return nil
}

// Result reports a solve.
type Result struct {
	V          []float64
	Iterations int
	ResidNorm  float64
}

// result records a solve's outcome in the workspace and returns it.
func (w *Workspace) result(v []float64, iters int, norm float64) *Result {
	w.res = Result{V: v, Iterations: iters, ResidNorm: norm}
	return &w.res
}

// convergenceError is newton's ErrNoConvergence with the residual norm
// and iteration count it gave up at. It formats its text only when read,
// so a best-effort caller that discards it allocates nothing.
type convergenceError struct {
	stalled bool // no backtracking step improved the residual
	norm    float64
	iters   int
}

func (e *convergenceError) Error() string {
	if e.stalled {
		return fmt.Sprintf("%v: stalled at |F| = %g after %d iterations", ErrNoConvergence, e.norm, e.iters)
	}
	return fmt.Sprintf("%v: |F| = %g after %d iterations", ErrNoConvergence, e.norm, e.iters)
}

func (e *convergenceError) Unwrap() error { return ErrNoConvergence }

// noConvergence records a non-convergence error in the workspace and
// returns it.
func (w *Workspace) noConvergence(stalled bool, norm float64, iters int) error {
	w.noConv = convergenceError{stalled: stalled, norm: norm, iters: iters}
	return &w.noConv
}

// Solve runs (optionally gmin-stepped) damped Newton-Raphson from v0.
// Cancelling ctx aborts the solve between iterations; with BestEffort
// the last iterate is returned alongside the context error.
func Solve(ctx context.Context, p Problem, v0 []float64, opt Options) (*Result, error) {
	opt.defaults()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkFinite(v0); err != nil {
		return nil, err
	}
	// newton copies its input into the workspace and never mutates it,
	// so v0 can be handed over directly.
	v := v0
	if opt.GminSteps > 0 {
		// Continuation from a heavily loaded system down to finalGmin.
		g := 1e-3
		steps := opt.GminSteps
		factor := math.Pow(finalGmin/g, 1/float64(steps))
		for i := 0; i < steps; i++ {
			if ctx.Err() != nil {
				break
			}
			r, err := newton(ctx, p, v, g, opt)
			if err == nil || (opt.BestEffort && r != nil) {
				v = r.V
			}
			g *= factor
		}
	}
	return newton(ctx, p, v, finalGmin, opt)
}

// Step performs exactly one damped Newton iteration from v0 and returns
// the stepped vector (used by OBLX's partial-Newton move class). A nil
// error reports that a usable step was produced; a poisoned input
// returns ErrNonFinite.
func Step(p Problem, v0 []float64, opt Options) ([]float64, error) {
	opt.defaults()
	if err := checkFinite(v0); err != nil {
		return nil, err
	}
	if opt.FailHook != nil && opt.FailHook() {
		return nil, fmt.Errorf("%w (injected)", ErrNoConvergence)
	}
	n := p.N()
	w := opt.Work
	if w == nil {
		w = new(Workspace)
	}
	w.size(n)
	f := w.f
	if err := p.Residual(v0, f); err != nil {
		return nil, fmt.Errorf("dcsolve: %w", err)
	}
	j := &w.j
	j.Zero()
	if err := p.Jacobian(v0, j); err != nil {
		return nil, fmt.Errorf("dcsolve: %w", err)
	}
	for i := 0; i < n; i++ {
		j.Add(i, i, finalGmin)
	}
	if err := w.lu.Factor(j); err != nil {
		return nil, fmt.Errorf("dcsolve: singular Jacobian: %w", err)
	}
	w.lu.SolveInto(w.dv, f)
	dv := w.dv
	out := append(w.trial[:0], v0...)
	for i := range out {
		out[i] -= math.Max(-maxStep, math.Min(dv[i], maxStep))
	}
	return out, nil
}

func newton(ctx context.Context, p Problem, v0 []float64, gmin float64, opt Options) (*Result, error) {
	n := p.N()
	w := opt.Work
	if w == nil {
		w = new(Workspace)
	}
	w.size(n)
	// v0 may alias w.v (Solve's continuation loop feeds each stage's
	// result back in); the append is then an identity copy with no
	// growth, so the self-alias is harmless.
	v := append(w.v[:0], v0...)
	f := w.f
	j := &w.j
	trial := w.trial
	ftrial := w.ftrial

	if err := p.Residual(v, f); err != nil {
		return nil, fmt.Errorf("dcsolve: %w", err)
	}
	norm := residNorm(v, f, gmin)

	for it := 1; it <= opt.MaxIter; it++ {
		if norm < absTol {
			return w.result(v, it-1, norm), nil
		}
		select {
		case <-ctx.Done():
			err := fmt.Errorf("dcsolve: %w", ctx.Err())
			if opt.BestEffort {
				return w.result(v, it-1, norm), err
			}
			return nil, err
		default:
		}
		if opt.FailHook != nil && opt.FailHook() {
			return nil, fmt.Errorf("%w (injected)", ErrNoConvergence)
		}
		j.Zero()
		if err := p.Jacobian(v, j); err != nil {
			return nil, fmt.Errorf("dcsolve: %w", err)
		}
		for i := 0; i < n; i++ {
			j.Add(i, i, gmin)
		}
		if err := w.lu.Factor(j); err != nil {
			return nil, fmt.Errorf("dcsolve: singular Jacobian: %w", err)
		}
		// Residual including the gmin load.
		for i := 0; i < n; i++ {
			f[i] += gmin * v[i]
		}
		w.lu.SolveInto(w.dv, f)
		dv := w.dv

		// Voltage-step limiting.
		maxdv := linalg.VecNormInf(dv)
		scale := 1.0
		if maxdv > maxStep {
			scale = maxStep / maxdv
		}

		// Backtracking line search on the residual norm.
		alpha := scale
		improved := false
		var bestNorm float64
		for bt := 0; bt < 12; bt++ {
			for i := range v {
				trial[i] = v[i] - alpha*dv[i]
			}
			if err := p.Residual(trial, ftrial); err != nil {
				alpha /= 2
				continue
			}
			tn := residNorm(trial, ftrial, gmin)
			if tn < norm || tn < absTol {
				copy(v, trial)
				copy(f, ftrial)
				bestNorm = tn
				improved = true
				break
			}
			alpha /= 2
		}
		if !improved {
			// Accept the tiny step anyway — near machine precision the
			// norm can stagnate while still being acceptable.
			if norm < 1e3*absTol {
				return w.result(v, it, norm), nil
			}
			err := w.noConvergence(true, norm, it)
			if opt.BestEffort {
				return w.result(v, it, norm), err
			}
			return nil, err
		}
		norm = bestNorm
		// Relative step convergence.
		stepMax := 0.0
		for i := range dv {
			s := math.Abs(alpha * dv[i])
			if s > stepMax {
				stepMax = s
			}
		}
		if stepMax < relTol && norm < 1e6*absTol {
			return w.result(v, it, norm), nil
		}
	}
	if norm < 1e3*absTol {
		return w.result(v, opt.MaxIter, norm), nil
	}
	err := w.noConvergence(false, norm, opt.MaxIter)
	if opt.BestEffort {
		return w.result(v, opt.MaxIter, norm), err
	}
	return nil, err
}

// residNorm is the infinity norm of F(v) + gmin·v.
func residNorm(v, f []float64, gmin float64) float64 {
	m := 0.0
	for i := range f {
		r := math.Abs(f[i] + gmin*v[i])
		if r > m {
			m = r
		}
	}
	return m
}
