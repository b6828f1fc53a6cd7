package verify

import (
	"context"
	"math"
	"testing"

	"astrx/internal/astrx"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
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

const diffAmpDeck = `
.lib c2u

.module amp (in+ in- out+ out- vdd vss oa)
m1 out- in+ a a nmos3 w=W l=L
m2 out+ in- a a nmos3 w=W l=L
m3 out- nb  vdd vdd pmos3 w=Wp l=2u
m4 out+ nb  vdd vdd pmos3 w=Wp l=2u
vb  nb vdd '0-Vb'
ib  a vss I
.ends

.var W  min=2u  max=500u grid
.var Wp min=2u  max=500u grid
.var L  min=2u  max=20u  grid
.var I  min=2u  max=500u cont
.var Vb min=0.5 max=2.2  cont

.const Cl 1p

.jig main
xamp in+ in- out+ out- nvdd nvss oa amp
vdd  nvdd 0 2.5
vss  nvss 0 -2.5
vin  in+ 0 0 ac 1
ein  in- 0 in+ 0 -1
cl1  out+ 0 Cl
cl2  out- 0 Cl
.pz tf v(out+,out-) vin
.ends

.bias
xamp in+ in- out+ out- nvdd nvss oa amp
vdd  nvdd 0 2.5
vss  nvss 0 -2.5
vi1  in+ 0 0
vi2  in- 0 0
.ends

.obj  adm 'db(dc_gain(tf))'  good=40 bad=5
.spec ugf 'ugf(tf)'          good=1Meg bad=10k
.spec pm  'phase_margin(tf)' good=60 bad=20
.region xamp.m1 sat margin=0.05
.region xamp.m2 sat margin=0.05
.region xamp.m3 sat margin=0.05
.region xamp.m4 sat margin=0.05
`

func TestVerifyDivider(t *testing.T) {
	d, err := netlist.Parse(dividerDeck)
	if err != nil {
		t.Fatal(err)
	}
	c, err := astrx.Compile(d, astrx.CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// R2 = 9k → gain 0.9 exactly; BW = 1/(2π·(1k∥9k)·1p).
	x := []float64{9000, 0.9}
	st := c.NewWorkspace().Evaluate(x)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	rep, err := Design(c, x, st.SpecVals)
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Spec("gain")
	if g == nil {
		t.Fatal("gain row missing")
	}
	if math.Abs(g.Simulated-0.9) > 1e-9 {
		t.Errorf("simulated gain = %g, want 0.9", g.Simulated)
	}
	// AWE-predicted and AC-simulated must agree almost exactly (this is
	// the paper's central accuracy claim).
	if g.RelErr > 1e-6 {
		t.Errorf("gain prediction error = %g", g.RelErr)
	}
	bw := rep.Spec("bw")
	wantBW := 1 / (2 * math.Pi * 900 * 1e-12) // (1k∥9k)·1p
	if math.Abs(bw.Simulated-wantBW)/wantBW > 0.01 {
		t.Errorf("simulated BW = %g, want %g", bw.Simulated, wantBW)
	}
	if bw.RelErr > 0.01 {
		t.Errorf("BW prediction error = %g", bw.RelErr)
	}
	if !g.Met { // 0.9 < 0.99 → objective not at Good
		t.Log("gain objective not met at 0.9 — expected")
	}
	if rep.MaxKCL > 1e-12 {
		t.Errorf("reference bias residual = %g", rep.MaxKCL)
	}
}

func TestVerifySynthesizedDiffAmp(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis in -short mode")
	}
	d, err := netlist.Parse(diffAmpDeck)
	if err != nil {
		t.Fatal(err)
	}
	res, err := oblx.Run(context.Background(), d, oblx.Options{Seed: 5, MaxMoves: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Design(res.Compiled, res.X, res.State.SpecVals)
	if err != nil {
		t.Fatal(err)
	}
	// The reference Newton solve reaches simulator-grade residuals.
	if rep.MaxKCL > 1e-10 {
		t.Errorf("reference bias residual = %g A", rep.MaxKCL)
	}
	// Small-signal predictions match simulation almost exactly — the
	// Table 2 "OBLX / Simulation" agreement. The paper reports near-zero
	// discrepancy for AWE-measured specs; allow 2%.
	for _, row := range rep.Specs {
		if row.Name == "pm" && row.Simulated == 0 {
			continue // no crossing found is a legitimate degenerate case
		}
		if row.RelErr > 0.02 {
			t.Errorf("spec %s: predicted %g vs simulated %g (rel %g)",
				row.Name, row.Predicted, row.Simulated, row.RelErr)
		}
	}
	// The synthesized design meets its constraint specs in simulation.
	for _, row := range rep.Specs {
		if !row.Objective && !row.Met {
			t.Errorf("constraint %s not met in simulation: %g (good %g)",
				row.Name, row.Simulated, row.Good)
		}
	}
}

func TestACBackendPoleFallsBackToAWE(t *testing.T) {
	// pole(tf, 1) has no AC-sweep implementation; the backend must defer
	// to the AWE reduced model rather than failing.
	d, err := netlist.Parse(`
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
.spec p1 'pole(tf, 1)' good=100k bad=100Meg
`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := astrx.Compile(d, astrx.CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{9000, 0.9}
	st := c.NewWorkspace().Evaluate(x)
	rep, err := Design(c, x, st.SpecVals)
	if err != nil {
		t.Fatal(err)
	}
	p1 := rep.Spec("p1")
	if p1 == nil || p1.Simulated <= 0 {
		t.Fatalf("pole fallback broken: %+v", p1)
	}
	// Must equal the AWE pole (1/(2π·900Ω·1pF)).
	want := 1 / (2 * math.Pi * 900 * 1e-12)
	if math.Abs(p1.Simulated-want)/want > 0.01 {
		t.Errorf("pole = %g, want %g", p1.Simulated, want)
	}
}

func TestReportAccessors(t *testing.T) {
	r := &Report{Specs: []SpecResult{{Name: "b"}, {Name: "a"}}}
	if r.Spec("a") == nil || r.Spec("zz") != nil {
		t.Error("Spec accessor broken")
	}
	names := r.SortedSpecNames()
	if len(names) != 2 || names[0] != "a" {
		t.Errorf("sorted names = %v", names)
	}
}
