package dcsolve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"astrx/internal/linalg"
)

func linProblem() *scalarProblem {
	return &scalarProblem{
		n: 1,
		f: func(v, f []float64) { f[0] = 2*v[0] - 4 },
		jf: func(v []float64, j *linalg.Matrix) {
			j.Set(0, 0, 2)
		},
	}
}

func TestSolveRejectsNonFiniteInput(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := Solve(context.Background(), linProblem(), []float64{bad}, Options{})
		if !errors.Is(err, ErrNonFinite) {
			t.Errorf("Solve(v0=%g): err = %v, want ErrNonFinite", bad, err)
		}
	}
}

func TestStepRejectsNonFiniteInput(t *testing.T) {
	_, err := Step(linProblem(), []float64{0, math.NaN()}, Options{})
	if !errors.Is(err, ErrNonFinite) {
		t.Errorf("err = %v, want ErrNonFinite", err)
	}
}

func TestSolveCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Solve(ctx, linProblem(), []float64{0}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestSolveCancelledBestEffort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := Solve(ctx, linProblem(), []float64{0}, Options{BestEffort: true})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if r == nil || len(r.V) != 1 {
		t.Error("best-effort cancellation must still return the last iterate")
	}
}

func TestFailHookAbortsSolve(t *testing.T) {
	hook := func() bool { return true }
	_, err := Solve(context.Background(), linProblem(), []float64{0}, Options{FailHook: hook})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
	if _, err := Step(linProblem(), []float64{0}, Options{FailHook: hook}); !errors.Is(err, ErrNoConvergence) {
		t.Errorf("Step err = %v, want ErrNoConvergence", err)
	}
}

func TestFailHookRateZeroEquivalent(t *testing.T) {
	// A hook that never fires must not change the solve.
	calls := 0
	hook := func() bool { calls++; return false }
	r, err := Solve(context.Background(), linProblem(), []float64{0}, Options{FailHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.V[0]-2) > 1e-9 {
		t.Errorf("v = %g, want 2", r.V[0])
	}
	if calls == 0 {
		t.Error("hook was never polled")
	}
}

// TestNoConvergenceErrorText pins the texts of the two non-convergence
// errors, which verify wraps into its report, and that both still match
// ErrNoConvergence: a stall (no backtracking step improves the
// residual of v² + 1, which has no root) and an exhausted iteration
// budget (a linear problem given one iteration, whose step is held to
// maxStep).
func TestNoConvergenceErrorText(t *testing.T) {
	noRoot := &scalarProblem{
		n:  1,
		f:  func(v, f []float64) { f[0] = v[0]*v[0] + 1 },
		jf: func(v []float64, j *linalg.Matrix) { j.Set(0, 0, 2*v[0]) },
	}
	cases := []struct {
		name   string
		p      Problem
		opt    Options
		format string
	}{
		{"stalled", noRoot, Options{BestEffort: true}, "dcsolve: no convergence: stalled at |F| = %g after %d iterations"},
		{"budget", linProblem(), Options{BestEffort: true, MaxIter: 1}, "dcsolve: no convergence: |F| = %g after %d iterations"},
	}
	for _, c := range cases {
		for _, work := range []*Workspace{nil, new(Workspace)} {
			opt := c.opt
			opt.Work = work
			r, err := Solve(context.Background(), c.p, []float64{0}, opt)
			if r == nil || err == nil {
				t.Fatalf("%s: result %v, error %v; want a best-effort result and an error", c.name, r, err)
			}
			if !errors.Is(err, ErrNoConvergence) {
				t.Errorf("%s: %v does not match ErrNoConvergence", c.name, err)
			}
			if want := fmt.Sprintf(c.format, r.ResidNorm, r.Iterations); err.Error() != want {
				t.Errorf("%s: error %q, want %q", c.name, err, want)
			}
		}
	}
}
