package astrx_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"astrx/internal/astrx"
	"astrx/internal/bench"
	"astrx/internal/dcsolve"
	"astrx/internal/devices"
	"astrx/internal/linalg"
)

// A DCProblem's residual replay evaluates device currents only, and a
// Jacobian at exactly the residual's point adds the conductances to that
// replay instead of replaying again. These tests pin the guard that
// decides when that is allowed, and check that no reader outside the
// Newton problem sees the current-only operating points.

// newtonPoint returns a design vector of deck ckt whose node voltages
// come from a short best-effort Newton solve at the start point, so the
// devices conduct and their conductances depend on the point.
func newtonPoint(t *testing.T, ckt bench.Circuit) []float64 {
	t.Helper()
	c := compileSrc(t, bench.DeckSource(ckt))
	x := make([]float64, len(c.VarList))
	for i, v := range c.VarList {
		x[i] = v.Start()
	}
	r, _ := dcsolve.Solve(context.Background(), c.NewWorkspace().DCProblem(x), x[c.NUser:],
		dcsolve.Options{MaxIter: 20, BestEffort: true})
	if r == nil {
		t.Fatalf("%s: no start bias", ckt)
	}
	copy(x[c.NUser:], r.V)
	return x
}

// jacResult is one Jacobian call's outcome: the matrix and the error.
type jacResult struct {
	j   *linalg.Matrix
	err error
}

// jacobianOf computes the Jacobian of p at v into a zeroed matrix.
func jacobianOf(p *astrx.DCProblem, v []float64) jacResult {
	j := linalg.NewMatrix(p.N(), p.N())
	err := p.Jacobian(v, j)
	return jacResult{j, err}
}

// freshJacobian computes the Jacobian at (x's design variables, v) on a
// new workspace of a newly compiled deck.
func freshJacobian(t *testing.T, ckt bench.Circuit, x, v []float64) jacResult {
	t.Helper()
	return jacobianOf(compileSrc(t, bench.DeckSource(ckt)).NewWorkspace().DCProblem(x), v)
}

// jacDiff describes how two Jacobian results differ, comparing matrix
// entries by their bits; "" means identical.
func jacDiff(got, want jacResult) string {
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		return fmt.Sprintf("error %v, want %v", got.err, want.err)
	}
	n := want.j.Rows
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			a, b := got.j.At(r, c), want.j.At(r, c)
			if math.Float64bits(a) != math.Float64bits(b) {
				return fmt.Sprintf("J[%d][%d] = %g, want %g", r, c, a, b)
			}
		}
	}
	return ""
}

// shifted returns v with every entry moved by d volts.
func shifted(v []float64, d float64) []float64 {
	out := append([]float64(nil), v...)
	for i := range out {
		out[i] += d
	}
	return out
}

func TestJacobianReuseGuard(t *testing.T) {
	for _, ckt := range bench.Table2Suite {
		t.Run(string(ckt), func(t *testing.T) {
			x1 := newtonPoint(t, ckt)
			c0 := compileSrc(t, bench.DeckSource(ckt))
			nu := c0.NUser
			v1 := append([]float64(nil), x1[nu:]...)
			v2 := shifted(v1, 0.05)
			x2 := append([]float64(nil), x1...)
			for i := 0; i < nu; i++ {
				x2[i] *= 1.25
			}
			bad := append([]float64(nil), x1...)
			for i := 0; i < nu; i++ {
				bad[i] = -1e-6 // nonpositive geometry: the replay fails
			}
			// Each re-run case is meaningful only if reusing the stale
			// replay would give a different Jacobian.
			at11 := freshJacobian(t, ckt, x1, v1)
			if at11.err != nil {
				t.Fatal(at11.err)
			}
			for name, other := range map[string]jacResult{
				"x2, v1": freshJacobian(t, ckt, x2, v1),
				"x1, v2": freshJacobian(t, ckt, x1, v2),
			} {
				if jacDiff(other, at11) == "" {
					t.Fatalf("Jacobian at (%s) equals the one at (x1, v1); the case cannot tell reuse from re-run", name)
				}
			}

			cases := []struct {
				name  string
				reuse bool
				// seq leaves the workspace in the case's state and
				// returns the problem and point for the Jacobian.
				seq  func(t *testing.T, ws *astrx.EvalWorkspace) (*astrx.DCProblem, []float64)
				want jacResult
			}{
				{"a/residual-then-jacobian", true, func(t *testing.T, ws *astrx.EvalWorkspace) (*astrx.DCProblem, []float64) {
					p := ws.DCProblem(x1)
					mustResidual(t, p, v1)
					return p, v1
				}, at11},
				{"b/cost-between", false, func(t *testing.T, ws *astrx.EvalWorkspace) (*astrx.DCProblem, []float64) {
					p := ws.DCProblem(x1)
					mustResidual(t, p, v1)
					ws.Cost(append(x2[:nu:nu], v2...))
					return p, v1
				}, at11},
				{"c/other-design-variables", false, func(t *testing.T, ws *astrx.EvalWorkspace) (*astrx.DCProblem, []float64) {
					mustResidual(t, ws.DCProblem(x1), v1)
					return ws.DCProblem(x2), v1
				}, freshJacobian(t, ckt, x2, v1)},
				{"d/other-point", false, func(t *testing.T, ws *astrx.EvalWorkspace) (*astrx.DCProblem, []float64) {
					p := ws.DCProblem(x1)
					mustResidual(t, p, v1)
					return p, v2
				}, freshJacobian(t, ckt, x1, v2)},
				{"e/failed-residual", false, func(t *testing.T, ws *astrx.EvalWorkspace) (*astrx.DCProblem, []float64) {
					mustResidual(t, ws.DCProblem(x1), v1)
					p := ws.DCProblem(bad)
					if err := p.Residual(v1, make([]float64, p.N())); err == nil {
						t.Fatal("residual at nonpositive geometry succeeded")
					}
					return p, v1
				}, freshJacobian(t, ckt, bad, v1)},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					ws := compileSrc(t, bench.DeckSource(ckt)).NewWorkspace()
					p, v := tc.seq(t, ws)
					before := ws.Counts()
					got := jacobianOf(p, v)
					if d := jacDiff(got, tc.want); d != "" {
						t.Errorf("Jacobian differs from a fresh workspace's: %s", d)
					}
					after := ws.Counts()
					if after[astrx.NewtonJacobians] != before[astrx.NewtonJacobians]+1 {
						t.Errorf("Jacobians counted %d → %d, want one more", before[astrx.NewtonJacobians], after[astrx.NewtonJacobians])
					}
					if reused := after[astrx.NewtonJacobiansReused] > before[astrx.NewtonJacobiansReused]; reused != tc.reuse {
						t.Errorf("Jacobian reused the residual's replay: %v, want %v", reused, tc.reuse)
					}
				})
			}
		})
	}
}

func mustResidual(t *testing.T, p *astrx.DCProblem, v []float64) {
	t.Helper()
	if err := p.Residual(v, make([]float64, p.N())); err != nil {
		t.Fatal(err)
	}
}

// mosOpsDiff compares two name-keyed operating-point maps field by
// field, floats by their bits; "" means identical.
func mosOpsDiff(got, want map[string]devices.MOSOp) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d operating points, want %d", len(got), len(want))
	}
	for name, w := range want {
		if d := astrx.DiffMOSOp(got[name], w); d != "" {
			return name + ": " + d
		}
	}
	return ""
}

// TestNewtonLeavesCompleteOps solves the bias on a workspace, as a
// Newton move does on its lane's, and requires State and EvaluateBias
// there to report the operating points a fresh workspace's EvaluateBias
// gives, conductances and capacitances included.
func TestNewtonLeavesCompleteOps(t *testing.T) {
	for _, ckt := range bench.Table2Suite {
		t.Run(string(ckt), func(t *testing.T) {
			c := compileSrc(t, bench.DeckSource(ckt))
			x := newtonPoint(t, ckt)
			ws := c.NewWorkspace()
			p := ws.DCProblem(x)
			r, _ := dcsolve.Solve(context.Background(), p, x[c.NUser:],
				dcsolve.Options{MaxIter: 10, BestEffort: true})
			if r == nil {
				t.Fatal("solve failed")
			}
			xr := append(x[:c.NUser:c.NUser], r.V...)
			want := compileSrc(t, bench.DeckSource(ckt)).NewWorkspace().EvaluateBias(xr).MOSOps
			if len(want) == 0 {
				t.Fatal("deck has no MOS devices")
			}
			// A full evaluation computes its operating points in one
			// piece, so it checks the on-demand completion too.
			if d := mosOpsDiff(want, compileSrc(t, bench.DeckSource(ckt)).NewWorkspace().Evaluate(xr).MOSOps); d != "" {
				t.Errorf("fresh EvaluateBias vs fresh Evaluate: %s", d)
			}
			// After a residual replay (currents only), after a Jacobian
			// at its point (no capacitances yet), and from EvaluateBias.
			mustResidual(t, p, r.V)
			if d := mosOpsDiff(ws.State().MOSOps, want); d != "" {
				t.Errorf("State after a residual: %s", d)
			}
			mustResidual(t, p, r.V)
			if res := jacobianOf(p, r.V); res.err != nil {
				t.Fatal(res.err)
			}
			if d := mosOpsDiff(ws.State().MOSOps, want); d != "" {
				t.Errorf("State after a Jacobian: %s", d)
			}
			if d := mosOpsDiff(ws.EvaluateBias(xr).MOSOps, want); d != "" {
				t.Errorf("EvaluateBias: %s", d)
			}
		})
	}
}

// TestDCProblemZeroAlloc pins a Newton iteration's bias work — one
// residual replay plus one Jacobian at its point — to zero heap
// allocations on a warmed problem.
func TestDCProblemZeroAlloc(t *testing.T) {
	for _, ckt := range bench.Table2Suite {
		c := compileSrc(t, bench.DeckSource(ckt))
		x := newtonPoint(t, ckt)
		p := c.NewWorkspace().DCProblem(x)
		v := x[c.NUser:]
		f := make([]float64, p.N())
		j := linalg.NewMatrix(p.N(), p.N())
		step := func() {
			if err := p.Residual(v, f); err != nil {
				t.Fatal(err)
			}
			j.Zero()
			if err := p.Jacobian(v, j); err != nil {
				t.Fatal(err)
			}
		}
		step()
		if n := testing.AllocsPerRun(100, step); n != 0 {
			t.Errorf("%s: %v allocs per residual + Jacobian, want 0", ckt, n)
		}
	}
}
