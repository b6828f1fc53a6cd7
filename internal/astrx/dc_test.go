package astrx

import (
	"context"
	"math"
	"testing"

	"astrx/internal/dcsolve"
	"astrx/internal/linalg"
)

func TestDCProblemDivider(t *testing.T) {
	c := compileDeck(t, dividerDeck)
	p := c.DCProblem([]float64{1000})
	if p.N() != 1 {
		t.Fatalf("N = %d", p.N())
	}
	r, err := dcsolve.Solve(context.Background(), p, []float64{0}, dcsolve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.V[0]-0.5) > 1e-9 {
		t.Errorf("divider node = %g, want 0.5", r.V[0])
	}
}

func TestDCProblemJacobianMatchesFD(t *testing.T) {
	// The analytic Jacobian must match finite differences of the
	// residual — including MOS rows with possible source/drain swaps.
	c := compileDeck(t, diffAmpDeck)
	_, st, _ := evalDiffAmp(t, c)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	x := make([]float64, len(c.VarList))
	for i, v := range c.VarList {
		x[i] = v.Start()
	}
	p := c.DCProblem(x)
	n := p.N()
	v := make([]float64, n)
	for i := range v {
		v[i] = -0.3 + 0.17*float64(i%5) // deliberately scattered
	}
	j := linalg.NewMatrix(n, n)
	if err := p.Jacobian(v, j); err != nil {
		t.Fatal(err)
	}
	f0 := make([]float64, n)
	if err := p.Residual(v, f0); err != nil {
		t.Fatal(err)
	}
	const dv = 1e-6
	f1 := make([]float64, n)
	for col := 0; col < n; col++ {
		v[col] += dv
		if err := p.Residual(v, f1); err != nil {
			t.Fatal(err)
		}
		v[col] -= dv
		for row := 0; row < n; row++ {
			fd := (f1[row] - f0[row]) / dv
			an := j.At(row, col)
			scale := math.Abs(fd) + math.Abs(an) + 1e-9
			if math.Abs(fd-an)/scale > 2e-2 {
				t.Errorf("J[%d][%d] (d res(%s)/d v(%s)): analytic %g vs FD %g",
					row, col, c.Bias.FreeNodes[row], c.Bias.FreeNodes[col], an, fd)
			}
		}
	}
}

func TestDCProblemSolvesDiffAmpBias(t *testing.T) {
	c := compileDeck(t, diffAmpDeck)
	x := make([]float64, len(c.VarList))
	for i, v := range c.VarList {
		x[i] = v.Start()
	}
	// Reasonable design-variable values: W=50u, L=2u, I=50u, Vb=1.2.
	x[0], x[1], x[2], x[3] = 50e-6, 2e-6, 50e-6, 1.2
	p := c.DCProblem(x)
	n := p.N()
	v0 := make([]float64, n)
	r, err := dcsolve.Solve(context.Background(), p, v0, dcsolve.Options{GminSteps: 8, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Residuals essentially zero.
	f := make([]float64, n)
	if err := p.Residual(r.V, f); err != nil {
		t.Fatal(err)
	}
	if linalg.VecNormInf(f) > 1e-9 {
		t.Errorf("KCL residual after Newton = %g", linalg.VecNormInf(f))
	}

	// Inject the solved voltages and check the full state.
	copy(x[c.NUser:], r.V)
	st := c.NewWorkspace().Evaluate(x)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if st.MaxKCLError() > 1e-6 {
		t.Errorf("relative KCL error = %g", st.MaxKCLError())
	}
	// Physical sanity: the tail node sits below the inputs (NMOS pair
	// needs vgs > vth ≈ 0.8), outputs between the rails.
	tail := st.NodeV["xamp.a"]
	if tail > -0.6 || tail < -2.5 {
		t.Errorf("tail voltage = %g, want in (-2.5, -0.6)", tail)
	}
	outP := st.NodeV["out+"]
	if outP < -2.5 || outP > 2.5 {
		t.Errorf("out+ = %g outside rails", outP)
	}
	// The mirror devices conduct: tail current splits between m1/m2.
	i1 := st.MOSOps["xamp.m1"].Ids
	i2 := st.MOSOps["xamp.m2"].Ids
	if i1 <= 0 || i2 <= 0 {
		t.Errorf("pair currents = %g, %g; want positive", i1, i2)
	}
	if math.Abs(i1+i2-50e-6)/50e-6 > 0.05 {
		t.Errorf("tail sum = %g, want ≈ 50µA", i1+i2)
	}
	// With a dc-correct bias the differential gain is above unity even
	// though the hand-picked Vb leaves the loads mismatched (finding the
	// Vb that maximizes gain is the annealer's job, not this test's).
	gain := st.SpecVals["adm"]
	if gain < 3 {
		t.Errorf("adm = %g dB, want > 3 dB at a dc-correct bias", gain)
	}
}
