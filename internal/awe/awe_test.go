package awe

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"astrx/internal/acsim"
	"astrx/internal/ckttest"
	"astrx/internal/expr"
	"astrx/internal/mna"
)

func mustTF(t *testing.T, a *Analyzer, src, op, on string, q int) *TF {
	t.Helper()
	tf, err := a.TransferFunction(src, op, on, q)
	if err != nil {
		t.Fatal(err)
	}
	return tf
}

func TestSingleRCPole(t *testing.T) {
	// R=1k, C=1n → pole at -1e6 rad/s, DC gain 1.
	nl := ckttest.RCLadder(1, 1e3, 1e-9)
	sys, err := mna.Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(sys)
	if err != nil {
		t.Fatal(err)
	}
	tf := mustTF(t, a, "vin", "n1", "", 4)
	if tf.Order != 1 {
		t.Fatalf("Order = %d, want 1 (exact single pole)", tf.Order)
	}
	if math.Abs(tf.DCGain()-1) > 1e-9 {
		t.Errorf("DCGain = %v, want 1", tf.DCGain())
	}
	p := tf.Poles[0]
	if cmplx.Abs(p-complex(-1e6, 0)) > 1e-3*1e6 {
		t.Errorf("pole = %v, want -1e6", p)
	}
	if bw := tf.BW3dB(); math.Abs(bw-1e6)/1e6 > 1e-3 {
		t.Errorf("BW3dB = %v, want ~1e6", bw)
	}
	if !tf.Stable() {
		t.Error("single RC pole should be stable")
	}
	// Phase at the pole frequency is -45°.
	if ph := tf.PhaseDegAt(1e6); math.Abs(ph+45) > 0.1 {
		t.Errorf("phase at pole = %v, want -45", ph)
	}
}

func TestMomentsRC(t *testing.T) {
	// Analytic: H = 1/(1+sRC) = Σ (-RC)^k s^k, so μ_k = (-RC)^k.
	nl := ckttest.RCLadder(1, 1e3, 1e-9)
	sys, err := mna.Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(sys)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := a.Moments("vin", "n1", "", 5)
	if err != nil {
		t.Fatal(err)
	}
	rc := 1e-6
	for k, m := range mu {
		want := math.Pow(-rc, float64(k))
		if math.Abs(m-want) > 1e-9*math.Abs(want) {
			t.Errorf("μ_%d = %g, want %g", k, m, want)
		}
	}
}

func TestVCCSAmpUGFAndPM(t *testing.T) {
	// Single-pole transconductance amp (non-inverting measurement):
	// gm = 1mS into R = 100k ∥ C = 1pF. A0 = 100, pole = 1/(RC) = 1e7,
	// GBW = gm/C = 1e9 rad/s, PM ≈ 90°.
	g1 := ckttest.E("g1", []string{"0", "out", "in", "0"}, "1m") // current into out
	nl := ckttest.Netlist(
		ckttest.V("vin", "in", "0", "0", 1),
		g1,
		ckttest.E("r1", []string{"out", "0"}, "100k"),
		ckttest.E("c1", []string{"out", "0"}, "1p"),
	)
	sys, err := mna.Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(sys)
	if err != nil {
		t.Fatal(err)
	}
	tf := mustTF(t, a, "vin", "out", "", 4)
	if math.Abs(tf.DCGain()-100) > 1e-6 {
		t.Fatalf("DCGain = %v, want 100", tf.DCGain())
	}
	wu := tf.UGF()
	want := 1e7 * math.Sqrt(100*100-1) // exact single-pole crossover
	if math.Abs(wu-want)/want > 1e-3 {
		t.Errorf("UGF = %g, want %g", wu, want)
	}
	pm := tf.PhaseMarginDeg()
	wantPM := 180 - math.Atan2(wu, 1e7)*180/math.Pi
	if math.Abs(pm-wantPM) > 0.5 {
		t.Errorf("PM = %v, want %v", pm, wantPM)
	}
}

func TestLadderMatchesACSweep(t *testing.T) {
	// 6-stage RC ladder: AWE q=6 must match exact AC within 1% up to
	// well past the first pole cluster.
	nl := ckttest.RCLadder(6, 1e3, 1e-9)
	sys, err := mna.Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(sys)
	if err != nil {
		t.Fatal(err)
	}
	tf := mustTF(t, a, "vin", "n6", "", 6)
	ac := acsim.NewAnalyzer(sys)
	for _, w := range []float64{1e3, 1e4, 1e5, 3e5, 1e6} {
		exact, err := ac.TransferAt("vin", "n6", "", w)
		if err != nil {
			t.Fatal(err)
		}
		approx := tf.Eval(complex(0, w))
		rel := cmplx.Abs(approx-exact) / (cmplx.Abs(exact) + 1e-30)
		if rel > 0.01 {
			t.Errorf("ω=%g: AWE %v vs AC %v (rel err %g)", w, approx, exact, rel)
		}
	}
}

func TestOrderReduction(t *testing.T) {
	// A 2-node circuit has at most 2 poles; asking for 4 must back off.
	nl := ckttest.RCLadder(2, 1e3, 1e-9)
	sys, err := mna.Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(sys)
	if err != nil {
		t.Fatal(err)
	}
	tf := mustTF(t, a, "vin", "n2", "", 4)
	if tf.Order > 2 {
		t.Errorf("Order = %d, want ≤ 2", tf.Order)
	}
	if tf.Order < 2 {
		t.Errorf("Order = %d, want 2 (two real poles present)", tf.Order)
	}
}

func TestResistiveCircuitConstantTF(t *testing.T) {
	nl := ckttest.Netlist(
		ckttest.V("vin", "in", "0", "0", 1),
		ckttest.E("r1", []string{"in", "out"}, "1k"),
		ckttest.E("r2", []string{"out", "0"}, "1k"),
	)
	sys, err := mna.Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(sys)
	if err != nil {
		t.Fatal(err)
	}
	tf := mustTF(t, a, "vin", "out", "", 4)
	if tf.Order != 0 {
		t.Fatalf("Order = %d, want 0 for resistive circuit", tf.Order)
	}
	if math.Abs(tf.DCGain()-0.5) > 1e-12 {
		t.Errorf("DCGain = %v, want 0.5", tf.DCGain())
	}
	if tf.UGF() != 0 || tf.BW3dB() != 0 {
		t.Error("constant TF has no UGF or bandwidth")
	}
	if got := tf.Eval(complex(0, 1e9)); math.Abs(real(got)-0.5) > 1e-12 {
		t.Errorf("Eval = %v, want 0.5 at all frequencies", got)
	}
}

func TestDifferentialOutput(t *testing.T) {
	// Two identical dividers driven oppositely: differential gain doubles.
	e1 := ckttest.E("e1", []string{"mid", "0", "in", "0"}, "-1")
	nl := ckttest.Netlist(
		ckttest.V("vin", "in", "0", "0", 1),
		e1, // mid = -in
		ckttest.E("r1", []string{"in", "op"}, "1k"),
		ckttest.E("r2", []string{"op", "0"}, "1k"),
		ckttest.E("r3", []string{"mid", "on"}, "1k"),
		ckttest.E("r4", []string{"on", "0"}, "1k"),
	)
	sys, err := mna.Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(sys)
	if err != nil {
		t.Fatal(err)
	}
	tf := mustTF(t, a, "vin", "op", "on", 2)
	if math.Abs(tf.DCGain()-1.0) > 1e-9 {
		t.Errorf("differential DCGain = %v, want 1.0", tf.DCGain())
	}
}

func TestFitMomentsSyntheticPoles(t *testing.T) {
	// Build moments from known poles/residues, fit, and compare. The
	// pole spread (~1.5 decades) reflects what double-precision moment
	// matching can resolve — AWE's documented practical limit.
	poles := []complex128{-1e6, -3e6, complex(-2e7, 1.5e7), complex(-2e7, -1.5e7)}
	res := []complex128{-1e9, 5e8, complex(2e8, 1e8), complex(2e8, -1e8)}
	q := len(poles)
	mu := make([]float64, 2*q)
	for k := range mu {
		s := complex128(0)
		for i := range poles {
			s += -res[i] / cmplx.Pow(poles[i], complex(float64(k+1), 0))
		}
		mu[k] = real(s)
	}
	tf, err := FitMoments(mu, q)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Order != q {
		t.Fatalf("Order = %d, want %d", tf.Order, q)
	}
	// Every true pole must be recovered (match within 0.1%).
	for _, p := range poles {
		found := false
		for _, g := range tf.Poles {
			if cmplx.Abs(g-p)/cmplx.Abs(p) < 1e-3 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("pole %v not recovered; got %v", p, tf.Poles)
		}
	}
}

func TestFitMomentsZeroSequence(t *testing.T) {
	tf, err := FitMoments(make([]float64, 8), 4)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Order != 0 || tf.DCGain() != 0 {
		t.Errorf("zero moments: Order=%d DCGain=%v", tf.Order, tf.DCGain())
	}
}

// TestFitMomentsShortSequences: fewer than two moments determine no
// pole, so FitMoments returns the constant model of the moments it has,
// whatever order is asked for.
func TestFitMomentsShortSequences(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		mu   []float64
		q    int
		dc   float64
	}{
		{"nil", nil, 4, 0},
		{"empty", []float64{}, 1, 0},
		{"one moment", []float64{2.5}, 4, 2.5},
		{"one moment, order 0", []float64{-3}, 0, -3},
		{"one zero moment", []float64{0}, 8, 0},
		{"one NaN moment", []float64{nan}, 2, nan},
	} {
		tf, err := FitMoments(tc.mu, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tf.Order != 0 || len(tf.Poles)+len(tf.Residues)+len(tf.Zeros) != 0 || len(tf.Moments) != len(tc.mu) {
			t.Errorf("%s: got %+v, want the constant model of %v", tc.name, tf, tc.mu)
		}
		if dc := tf.DCGain(); dc != tc.dc && !(math.IsNaN(dc) && math.IsNaN(tc.dc)) {
			t.Errorf("%s: DCGain = %g, want %g", tc.name, dc, tc.dc)
		}
	}
}

func TestDeriveZerosTwoPole(t *testing.T) {
	// H = k1/(s-p1) + k2/(s-p2) has one zero at (k1 p2 + k2 p1)/(k1+k2).
	tf := &TF{
		Poles:    []complex128{-1e5, -1e7},
		Residues: []complex128{-1e6, -2e7},
		Order:    2,
	}
	tf.deriveZeros()
	if len(tf.Zeros) != 1 {
		t.Fatalf("zeros = %v, want 1 zero", tf.Zeros)
	}
	want := (complex128(-1e6)*complex128(-1e7) + complex128(-2e7)*complex128(-1e5)) /
		(complex128(-1e6) + complex128(-2e7))
	if cmplx.Abs(tf.Zeros[0]-want)/cmplx.Abs(want) > 1e-9 {
		t.Errorf("zero = %v, want %v", tf.Zeros[0], want)
	}
}

func TestUGFBelowUnityGain(t *testing.T) {
	nl := ckttest.RCLadder(1, 1e3, 1e-9) // DC gain 1 exactly: no crossing
	sys, _ := mna.Build(nl, expr.MapEnv{})
	a, err := NewAnalyzer(sys)
	if err != nil {
		t.Fatal(err)
	}
	tf := mustTF(t, a, "vin", "n1", "", 2)
	if tf.UGF() != 0 {
		t.Errorf("UGF = %v, want 0 for unity DC gain", tf.UGF())
	}
	if tf.PhaseMarginDeg() != 0 {
		t.Errorf("PM must be 0 when no UGF exists")
	}
}

func TestDominantPole(t *testing.T) {
	tf := &TF{Poles: []complex128{-1e8, -1e4, -1e6}, Order: 3}
	if got := tf.DominantPole(); got != -1e4 {
		t.Errorf("DominantPole = %v, want -1e4", got)
	}
	empty := &TF{}
	if got := empty.DominantPole(); got != 0 {
		t.Errorf("DominantPole on empty = %v, want 0", got)
	}
}

func TestAnalyzerErrors(t *testing.T) {
	// Floating node (only capacitor to ground) → singular G.
	nl := ckttest.Netlist(
		ckttest.V("vin", "in", "0", "0", 1),
		ckttest.E("c1", []string{"in", "float"}, "1p"),
		ckttest.E("c2", []string{"float", "0"}, "1p"),
	)
	sys, err := mna.Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAnalyzer(sys); err == nil {
		t.Error("floating node should produce ErrNoDCPath")
	}

	nl2 := ckttest.RCLadder(1, 1e3, 1e-9)
	sys2, _ := mna.Build(nl2, expr.MapEnv{})
	a, err := NewAnalyzer(sys2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.TransferFunction("nope", "n1", "", 2); err == nil {
		t.Error("unknown source must error")
	}
	if _, err := a.TransferFunction("vin", "nope", "", 2); err == nil {
		t.Error("unknown output node must error")
	}
	if _, err := a.TransferFunction("vin", "n1", "nope", 2); err == nil {
		t.Error("unknown negative output node must error")
	}
}

// Property: random stable RC ladders — AWE DC gain equals exact DC gain,
// and the reduced model matches the exact response at the dominant pole
// frequency within 2%.
func TestLadderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		n := rng.Intn(5) + 2
		r := math.Pow(10, 2+3*rng.Float64())   // 100Ω..100kΩ
		c := math.Pow(10, -12+2*rng.Float64()) // 1pF..100pF
		nl := ckttest.RCLadder(n, r, c)
		sys, err := mna.Build(nl, expr.MapEnv{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAnalyzer(sys)
		if err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("n%d", n)
		tf := mustTF(t, a, "vin", out, "", 6)
		if math.Abs(tf.DCGain()-1) > 1e-6 {
			t.Fatalf("trial %d: ladder DC gain %v ≠ 1", trial, tf.DCGain())
		}
		if !tf.Stable() {
			t.Fatalf("trial %d: RC ladder fitted unstable: %v", trial, tf.Poles)
		}
		ac := acsim.NewAnalyzer(sys)
		w := 1 / (r * c) // in the interesting band
		exact, err := ac.TransferAt("vin", out, "", w)
		if err != nil {
			t.Fatal(err)
		}
		approx := tf.Eval(complex(0, w))
		if rel := cmplx.Abs(approx-exact) / cmplx.Abs(exact); rel > 0.02 {
			t.Errorf("trial %d (n=%d): rel err %g at ω=%g", trial, n, rel, w)
		}
	}
}
