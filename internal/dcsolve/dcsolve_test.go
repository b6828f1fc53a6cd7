package dcsolve

import (
	"context"
	"math"
	"testing"

	"astrx/internal/linalg"
)

// scalarProblem solves f(v) = 0 for simple closed-form systems.
type scalarProblem struct {
	f  func(v []float64, out []float64)
	jf func(v []float64, j *linalg.Matrix)
	n  int
}

func (p *scalarProblem) N() int { return p.n }
func (p *scalarProblem) Residual(v, f []float64) error {
	p.f(v, f)
	return nil
}
func (p *scalarProblem) Jacobian(v []float64, j *linalg.Matrix) error {
	p.jf(v, j)
	return nil
}

func TestNewtonLinear(t *testing.T) {
	// f = 2v - 4 → v = 2 in one step.
	p := &scalarProblem{
		n: 1,
		f: func(v, f []float64) { f[0] = 2*v[0] - 4 },
		jf: func(v []float64, j *linalg.Matrix) {
			j.Set(0, 0, 2)
		},
	}
	r, err := Solve(context.Background(), p, []float64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.V[0]-2) > 1e-9 {
		t.Errorf("v = %v, want 2", r.V[0])
	}
}

func TestNewtonDiodeLike(t *testing.T) {
	// Diode + resistor: (v-1)/1k + 1e-15(exp(v/0.026)-1) = 0 shifted:
	// source 1V through 1k into a diode to ground.
	is, vt := 1e-15, 0.02585
	p := &scalarProblem{
		n: 1,
		f: func(v, f []float64) {
			f[0] = (v[0]-1)/1000 + is*(math.Exp(v[0]/vt)-1)
		},
		jf: func(v []float64, j *linalg.Matrix) {
			j.Set(0, 0, 1.0/1000+is/vt*math.Exp(v[0]/vt))
		},
	}
	r, err := Solve(context.Background(), p, []float64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Residual is the true test.
	f := make([]float64, 1)
	_ = p.Residual(r.V, f)
	if math.Abs(f[0]) > 1e-10 {
		t.Errorf("diode residual = %g", f[0])
	}
	if r.V[0] < 0.5 || r.V[0] > 0.9 {
		t.Errorf("diode voltage = %g, want ≈ 0.7", r.V[0])
	}
}

func TestNewtonTwoDim(t *testing.T) {
	// f1 = v0 + v1 - 3; f2 = v0 - v1 - 1 → (2, 1)
	p := &scalarProblem{
		n: 2,
		f: func(v, f []float64) {
			f[0] = v[0] + v[1] - 3
			f[1] = v[0] - v[1] - 1
		},
		jf: func(v []float64, j *linalg.Matrix) {
			j.Set(0, 0, 1)
			j.Set(0, 1, 1)
			j.Set(1, 0, 1)
			j.Set(1, 1, -1)
		},
	}
	r, err := Solve(context.Background(), p, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.V[0]-2) > 1e-8 || math.Abs(r.V[1]-1) > 1e-8 {
		t.Errorf("v = %v, want [2 1]", r.V)
	}
}

func TestGminStepping(t *testing.T) {
	// A steep exponential that plain Newton from 0 handles only with
	// damping; gmin stepping must also find it.
	is, vt := 1e-16, 0.02585
	p := &scalarProblem{
		n: 1,
		f: func(v, f []float64) {
			f[0] = (v[0]-5)/100 + is*(math.Exp(v[0]/vt)-1)
		},
		jf: func(v []float64, j *linalg.Matrix) {
			j.Set(0, 0, 1.0/100+is/vt*math.Exp(v[0]/vt))
		},
	}
	r, err := Solve(context.Background(), p, []float64{0}, Options{GminSteps: 6})
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, 1)
	_ = p.Residual(r.V, f)
	if math.Abs(f[0]) > 1e-9 {
		t.Errorf("gmin-stepped residual = %g", f[0])
	}
}

func TestStepSingle(t *testing.T) {
	p := &scalarProblem{
		n: 1,
		f: func(v, f []float64) { f[0] = v[0] - 3 },
		jf: func(v []float64, j *linalg.Matrix) {
			j.Set(0, 0, 1)
		},
	}
	v, err := Step(p, []float64{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Step limiting: |Δ| ≤ maxStep.
	if math.Abs(v[0]) > 1.0+1e-12 {
		t.Errorf("step exceeded limit: %v", v)
	}
	// A second step gets closer.
	v2, _ := Step(p, v, Options{})
	if math.Abs(v2[0]-3) >= math.Abs(v[0]-3) {
		t.Error("second step did not approach the solution")
	}
}

func TestSingularJacobian(t *testing.T) {
	p := &scalarProblem{
		n: 2,
		f: func(v, f []float64) {
			f[0] = v[0] + v[1] - 1
			f[1] = v[0] + v[1] + 1 // inconsistent
		},
		jf: func(v []float64, j *linalg.Matrix) {
			j.Set(0, 0, 1)
			j.Set(0, 1, 1)
			j.Set(1, 0, 1)
			j.Set(1, 1, 1)
		},
	}
	// gmin regularizes the matrix, but the system has no solution: the
	// solver must report failure rather than hang.
	if _, err := Solve(context.Background(), p, []float64{0, 0}, Options{MaxIter: 30}); err == nil {
		t.Error("inconsistent system should not converge")
	}
}

func TestResidualErrorPropagates(t *testing.T) {
	p := &errProblem{}
	if _, err := Solve(context.Background(), p, []float64{0}, Options{}); err == nil {
		t.Error("residual error must propagate")
	}
	if _, err := Step(p, []float64{0}, Options{}); err == nil {
		t.Error("step must fail on residual error")
	}
}

type errProblem struct{}

func (p *errProblem) N() int { return 1 }
func (p *errProblem) Residual(v, f []float64) error {
	return errTest
}
func (p *errProblem) Jacobian(v []float64, j *linalg.Matrix) error {
	return errTest
}

var errTest = errorString("boom")

type errorString string

func (e errorString) Error() string { return string(e) }
