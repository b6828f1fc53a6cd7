package yield

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"astrx/internal/astrx"
	"astrx/internal/netlist"
)

const dividerDeck = `
.jig main
vin in 0 0 ac 1
r1 in out 1k
r2 out 0 R2
cl out 0 1p
.pz tf v(out) vin
.ends

.bias
vb in 0 1
r1 in out 1k
r2 out 0 R2
.ends

.var R2 min=100 max=100k grid
.obj gain 'dc_gain(tf)' good=0.99 bad=0.1
.spec bw 'bw3db(tf)' good=1Meg bad=10k
`

const otaDeck = `
.lib c2u

.module amp (inp inn out vdd vss)
m1 n1  inp ntail ntail nmos3 w=W1 l=4u
m2 out inn ntail ntail nmos3 w=W1 l=4u
m3 n1  n1  vdd  vdd  pmos3 w=W3 l=4u
m4 out n1  vdd  vdd  pmos3 w=W3 l=4u
m5 ntail nbias vss vss nmos3 w=W5 l=4u
m6 nbias nbias vss vss nmos3 w=W5 l=4u
ib vdd nbias Ib
.ends

.var W1 min=2u max=500u grid
.var W3 min=2u max=500u grid
.var W5 min=2u max=500u grid
.var Ib min=2u max=250u cont

.const Cl 1p

.jig main
xamp inp inn out nvdd nvss amp
vdd nvdd 0 2.5
vss nvss 0 -2.5
vin inp 0 0 ac 1
vcm inn 0 0
cl1 out 0 Cl
.pz tf v(out) vin
.ends

.bias
xamp inp inn out nvdd nvss amp
vdd nvdd 0 2.5
vss nvss 0 -2.5
vi1 inp 0 0
vi2 inn 0 0
.ends

.obj  adm 'db(dc_gain(tf))' good=40 bad=10
.spec gbw 'ugf(tf)' good=1Meg bad=10k
`

func compileAt(t *testing.T, src string) (*astrx.Compiled, []float64) {
	t.Helper()
	d, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := astrx.Compile(d, astrx.CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, len(c.Vars()))
	for i, v := range c.Vars() {
		x[i] = v.Start()
	}
	return c, x
}

func TestSensitivitiesDivider(t *testing.T) {
	c, x := compileAt(t, dividerDeck)
	x[0] = 9000 // gain = 0.9
	ss, err := Sensitivities(context.Background(), c, x)
	if err != nil {
		t.Fatal(err)
	}
	// For gain = R2/(R1+R2): d(gain)/gain ÷ d(R2)/R2 = R1/(R1+R2) = 0.1.
	var gainSens *Sensitivity
	for i := range ss {
		if ss[i].Spec == "gain" && ss[i].Var == "R2" {
			gainSens = &ss[i]
		}
	}
	if gainSens == nil {
		t.Fatal("gain/R2 sensitivity missing")
	}
	if math.Abs(gainSens.Rel-0.1) > 0.01 {
		t.Errorf("gain sensitivity = %g, want ≈ 0.1", gainSens.Rel)
	}
	// Bandwidth falls with R2: negative sensitivity.
	for i := range ss {
		if ss[i].Spec == "bw" && ss[i].Var == "R2" && ss[i].Rel >= 0 {
			t.Errorf("bw/R2 sensitivity = %g, want negative", ss[i].Rel)
		}
	}
	top := TopSensitivities(ss, 1)
	if len(top) != 1 {
		t.Fatalf("top = %v", top)
	}
	if math.Abs(top[0].Rel) < math.Abs(gainSens.Rel)-1e-12 {
		t.Error("TopSensitivities did not sort by magnitude")
	}
}

func TestSensitivitiesOTA(t *testing.T) {
	c, x := compileAt(t, otaDeck)
	x[3] = 40e-6 // Ib
	ss, err := Sensitivities(context.Background(), c, x)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) == 0 {
		t.Fatal("no sensitivities computed")
	}
	// GBW must respond to the input-pair width (gm ∝ sqrt(W1)).
	found := false
	for _, s := range ss {
		if s.Spec == "gbw" && s.Var == "W1" {
			found = true
			if s.Rel <= 0 {
				t.Errorf("gbw/W1 sensitivity = %g, want positive", s.Rel)
			}
		}
	}
	if !found {
		t.Error("gbw/W1 sensitivity missing")
	}
}

func TestMonteCarloDivider(t *testing.T) {
	// Resistor-only circuit: no MOS mismatch applies, so all samples are
	// identical — yield is 0 or 1 depending on the nominal point.
	_, x := compileAt(t, dividerDeck)
	x[0] = 9000
	res, err := MonteCarlo(context.Background(), dividerDeck, x, 10, MismatchModel{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 10 || res.Failed != 0 {
		t.Fatalf("samples/failed = %d/%d", res.Samples, res.Failed)
	}
	// bw at R2=9k is ≈177 MHz wait — 1/(2π·900·1p) ≈ 177 MHz > 1 MHz: met.
	if res.Yield != 1 {
		t.Errorf("yield = %g, want 1 for a deterministic passing circuit", res.Yield)
	}
	for _, st := range res.Specs {
		if st.Spec == "bw" && st.Std > 1e-6*st.Mean {
			t.Errorf("bw spread = %g on a mismatch-free circuit", st.Std)
		}
	}
}

func TestMonteCarloOTA(t *testing.T) {
	if testing.Short() {
		t.Skip("MC in -short mode")
	}
	c, x := compileAt(t, otaDeck)
	x[0], x[1], x[2], x[3] = 60e-6, 30e-6, 20e-6, 40e-6
	_ = c
	res, err := MonteCarlo(context.Background(), otaDeck, x, 24, MismatchModel{VthSigma: 0.03}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > res.Samples/2 {
		t.Fatalf("too many failed samples: %d", res.Failed)
	}
	// The gain must show real spread under Vth mismatch.
	for _, st := range res.Specs {
		if st.Spec == "adm" {
			if st.SampleSize == 0 {
				t.Fatal("no adm samples")
			}
			if st.Std == 0 {
				t.Error("no adm spread under mismatch")
			}
			if st.Min > st.Mean || st.Max < st.Mean {
				t.Error("min/max inconsistent")
			}
		}
	}
	if res.Yield < 0 || res.Yield > 1 {
		t.Errorf("yield = %g", res.Yield)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	if _, err := MonteCarlo(context.Background(), "garbage (", nil, 5, MismatchModel{}, 1); err == nil {
		t.Error("bad deck must error")
	}
	if _, err := MonteCarlo(context.Background(), dividerDeck, []float64{}, 5, MismatchModel{}, 1); err == nil {
		t.Error("short x must error")
	}
}

// TestMonteCarloDeterministic checks that one seed gives one answer: on
// a deck with two MOS model cards, the per-model shifts must not depend
// on map iteration order.
func TestMonteCarloDeterministic(t *testing.T) {
	src := strings.Replace(otaDeck, ".lib c2u", `
.model nmos3 nmos level=1 vto=0.8 u0=620 gamma=0.45 phi=0.66 lambda=0.04 tox=40n
.model pmos3 pmos level=1 vto=0.9 u0=240 gamma=0.55 phi=0.62 lambda=0.05 tox=40n
`, 1)
	_, x := compileAt(t, src)
	x[0], x[1], x[2], x[3] = 60e-6, 30e-6, 20e-6, 40e-6
	first, err := MonteCarlo(context.Background(), src, x, 6, MismatchModel{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if first.Failed == first.Samples {
		t.Fatalf("every sample failed: %+v", first)
	}
	for i := 0; i < 4; i++ {
		again, err := MonteCarlo(context.Background(), src, x, 6, MismatchModel{}, 11)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("call %d: same seed, different result:\n%+v\n%+v", i+2, first, again)
		}
	}
}
