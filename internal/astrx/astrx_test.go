package astrx

import (
	"math"
	"strings"
	"testing"

	"astrx/internal/expr"
	"astrx/internal/netlist"
)

// dividerDeck is a device-free problem: size R2 so the divider gain is
// high. It exercises the relaxed-dc machinery in isolation.
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
`

const diffAmpDeck = `
.lib c2u

.module amp (in+ in- out+ out- vdd vss oa)
m1 out- in+ a a nmos3 w=W l=L
m2 out+ in- a a nmos3 w=W l=L
m3 out- nb  vdd vdd pmos3 w=50u l=2u
m4 out+ nb  vdd vdd pmos3 w=50u l=2u
vb  nb vdd '0-Vb'
ib  a vss I
.ends

.var W  min=2u  max=500u grid
.var L  min=2u  max=20u  grid
.var I  min=1u  max=1m   cont
.var Vb min=0.5 max=4    cont

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
.spec sr  'I/(2*(Cl+xamp.m1.cdb))' good=1Meg bad=10k
.spec pwr 'power()'          good=1m  bad=20m
.spec area 'active_area()'   good=5n  bad=100n
.region xamp.m1 sat
.region xamp.m3 sat
`

func compileDeck(t *testing.T, src string) *Compiled {
	t.Helper()
	d, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(d, CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompileDivider(t *testing.T) {
	c := compileDeck(t, dividerDeck)
	if c.NUser != 1 {
		t.Fatalf("NUser = %d, want 1", c.NUser)
	}
	// "in" is determined by vb; "out" is the single free node.
	if len(c.Bias.FreeNodes) != 1 || c.Bias.FreeNodes[0] != "out" {
		t.Fatalf("FreeNodes = %v, want [out]", c.Bias.FreeNodes)
	}
	if len(c.VarList) != 2 {
		t.Fatalf("VarList = %d, want 2", len(c.VarList))
	}
	if !c.VarList[1].Continuous || !strings.Contains(c.VarList[1].Name, "out") {
		t.Errorf("node var = %+v", c.VarList[1])
	}

	// KCL-correct point: R2 = 1k → v(out) = 0.5.
	ws := c.NewWorkspace()
	cb1 := ws.CostDetail([]float64{1000, 0.5})
	st := ws.State()
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if math.Abs(st.KCL["out"]) > 1e-12 {
		t.Errorf("KCL residual at balanced point = %g, want ≈ 0", st.KCL["out"])
	}
	if math.Abs(st.SpecVals["gain"]-0.5) > 1e-6 {
		t.Errorf("divider gain = %g, want 0.5", st.SpecVals["gain"])
	}

	// Off-balance point has a residual and a higher cost.
	cb2 := ws.CostDetail([]float64{1000, 0.9})
	st2 := ws.State()
	if math.Abs(st2.KCL["out"]) < 1e-6 {
		t.Error("off-balance KCL residual should be significant")
	}
	if cb2.DC <= cb1.DC {
		t.Errorf("DC penalty: balanced %g vs off %g", cb1.DC, cb2.DC)
	}

	// Max KCL error metric.
	if st2.MaxKCLError() <= st.MaxKCLError() {
		t.Error("MaxKCLError ordering wrong")
	}
}

func TestCompileDiffAmp(t *testing.T) {
	c := compileDeck(t, diffAmpDeck)
	if c.NUser != 4 {
		t.Fatalf("NUser = %d, want 4", c.NUser)
	}
	// Devices: 4 MOS.
	if len(c.Bias.DevOrder) != 4 {
		t.Fatalf("devices = %v", c.Bias.DevOrder)
	}
	// Free nodes: out+, out-, tail a, plus 2 internal nodes per device.
	wantFree := 3 + 8
	if len(c.Bias.FreeNodes) != wantFree {
		t.Errorf("free nodes = %d (%v), want %d", len(c.Bias.FreeNodes), c.Bias.FreeNodes, wantFree)
	}
	// Node voltages must outnumber user variables (the paper's Table 1
	// phenomenon).
	if len(c.Bias.FreeNodes) <= c.NUser {
		t.Error("relaxed-dc variables should outnumber user variables")
	}
	// xamp.nb is determined via the vb chain from vdd.
	for _, st := range c.Bias.Determined {
		if st.Node == "xamp.nb" && st.From != "nvdd" {
			t.Errorf("xamp.nb determined from %q, want nvdd", st.From)
		}
	}

	_, st, cb := evalDiffAmp(t, c)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	// Devices evaluated.
	if len(st.MOSOps) != 4 {
		t.Fatalf("MOS ops = %d", len(st.MOSOps))
	}
	// TF present and the differential gain positive (measured out+ vs
	// out- with anti-phase drive).
	tf := st.TFs["tf"]
	if tf == nil {
		t.Fatal("tf missing")
	}
	if st.SpecVals["adm"] == 0 {
		t.Error("adm spec not evaluated")
	}
	// Spec expressions saw device caps and bias functions.
	if st.SpecVals["sr"] <= 0 {
		t.Errorf("sr = %g, want > 0", st.SpecVals["sr"])
	}
	if st.SpecVals["pwr"] <= 0 {
		t.Errorf("power = %g, want > 0", st.SpecVals["pwr"])
	}
	if st.SpecVals["area"] <= 0 {
		t.Errorf("area = %g, want > 0", st.SpecVals["area"])
	}

	if cb.Failed {
		t.Fatal("cost evaluation failed")
	}
	if cb.Total == 0 {
		t.Error("cost should not be exactly zero at an arbitrary point")
	}
}

// evalDiffAmp evaluates a plausible starting state on a fresh
// workspace — variables at their starting values, node voltages at rough
// hand-picked values — and returns the workspace, its state and cost.
func evalDiffAmp(t *testing.T, c *Compiled) (*EvalWorkspace, *EvalState, CostBreakdown) {
	t.Helper()
	x := make([]float64, len(c.VarList))
	for i, v := range c.VarList {
		x[i] = v.Start()
	}
	// Hand-pick a conducting operating region: outputs near mid-supply,
	// NMOS sources (tail side) low so vgs > vth, PMOS internals at the
	// top rail.
	for i := c.NUser; i < len(c.VarList); i++ {
		name := c.VarList[i].Name
		pmos := strings.Contains(name, "m3") || strings.Contains(name, "m4")
		switch {
		case strings.Contains(name, "#s") && pmos:
			x[i] = 2.5
		case strings.Contains(name, "#d") && pmos:
			x[i] = 0.5
		case strings.Contains(name, "#s"):
			x[i] = -1.2
		case strings.Contains(name, "#d"):
			x[i] = 0.5
		case strings.Contains(name, "out"):
			x[i] = 0.5
		case strings.Contains(name, ".a"):
			x[i] = -1.2
		}
	}
	ws := c.NewWorkspace()
	cb := ws.CostDetail(x)
	return ws, ws.State(), cb
}

func TestStatsTable1Shape(t *testing.T) {
	c := compileDeck(t, diffAmpDeck)
	s := c.Stats()
	if s.UserVars != 4 {
		t.Errorf("UserVars = %d", s.UserVars)
	}
	if s.NodeVoltVars != 11 {
		t.Errorf("NodeVoltVars = %d, want 11", s.NodeVoltVars)
	}
	if s.CostTerms <= 0 || s.EstCLines <= 600 {
		t.Errorf("terms/lines = %d/%d", s.CostTerms, s.EstCLines)
	}
	if s.BiasNodes == 0 || s.BiasElements == 0 {
		t.Error("bias stats empty")
	}
	if len(s.JigCircuits) != 1 || s.JigCircuits[0].Nodes == 0 {
		t.Errorf("jig stats = %+v", s.JigCircuits)
	}
	if s.NetlistLines == 0 || s.SynthLines == 0 {
		t.Error("line counts missing")
	}
}

func TestCompileErrors(t *testing.T) {
	parse := func(src string) *netlist.Deck {
		d, err := netlist.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		name string
		src  string
	}{
		{"noBias", ".jig j\nvin a 0 0 ac 1\nr1 a 0 1\n.pz tf v(a) vin\n.ends\n.var R min=1 max=2\n"},
		{"noJig", ".bias\nr1 a 0 1\n.ends\n.var R min=1 max=2\n"},
		{"noVars", dividerNoVars},
		{"unknownModel", `
.module m (a b)
m1 a b 0 0 nosuchmodel w=1u l=1u
.ends
.var W min=1u max=2u
.jig j
xm a b m
vin a 0 0 ac 1
.pz tf v(b) vin
.ends
.bias
xm a b m
vb a 0 1
.ends
`},
		{"jigDeviceNotInBias", `
.lib c2u
.module m (a b)
m1 b a 0 0 nmos3 w=W l=2u
.ends
.var W min=1u max=2u
.jig j
xj a b m
vin a 0 0 ac 1
.pz tf v(b) vin
.ends
.bias
vb a 0 1
rb b 0 1k
.ends
`},
		{"pzUnknownSource", `
.jig j
vin a 0 0 ac 1
r1 a b 1k
r2 b 0 1k
.pz tf v(b) nosrc
.ends
.bias
vb a 0 1
.ends
.var R min=1 max=2
`},
		{"pzUnknownNode", `
.jig j
vin a 0 0 ac 1
r1 a b 1k
r2 b 0 1k
.pz tf v(zzz) vin
.ends
.bias
vb a 0 1
.ends
.var R min=1 max=2
`},
		{"regionUnknownDevice", `
.jig j
vin a 0 0 ac 1
r1 a b 1k
.pz tf v(b) vin
.ends
.bias
vb a 0 1
.ends
.var R min=1 max=2
.region xamp.m9 sat
`},
		{"inductorInBias", `
.jig j
vin a 0 0 ac 1
r1 a b 1k
.pz tf v(b) vin
.ends
.bias
vb a 0 1
l1 a b 1m
.ends
.var R min=1 max=2
`},
	}
	for _, cse := range cases {
		if _, err := Compile(parse(cse.src), CostOptions{}); err == nil {
			t.Errorf("%s: Compile succeeded, want error", cse.name)
		}
	}
}

const dividerNoVars = `
.jig main
vin in 0 0 ac 1
r1 in out 1k
.pz tf v(out) vin
.ends
.bias
vb in 0 1
.ends
`

func TestCostFailurePath(t *testing.T) {
	c := compileDeck(t, dividerDeck)
	// Wrong length vector → failed evaluation → failCost.
	cb := c.NewWorkspace().CostDetail([]float64{1})
	if !cb.Failed || cb.Total != failCost {
		t.Errorf("bad-length cost = %+v", cb)
	}
}

func TestNormalizeDirections(t *testing.T) {
	up := &netlist.Spec{Name: "up", Good: 100, Bad: 10}
	if Normalize(up, 100) != 0 {
		t.Error("Normalize at good must be 0")
	}
	if Normalize(up, 10) != 1 {
		t.Error("Normalize at bad must be 1")
	}
	if Normalize(up, 190) >= 0 {
		t.Error("beyond good must be negative")
	}
	dn := &netlist.Spec{Name: "dn", Good: 1, Bad: 10}
	if Normalize(dn, 1) != 0 || Normalize(dn, 10) != 1 {
		t.Error("minimize direction broken")
	}
	if Normalize(dn, 20) <= 1 {
		t.Error("worse than bad must exceed 1")
	}
}

func TestAdaptiveWeights(t *testing.T) {
	c := compileDeck(t, dividerDeck)
	d, _ := netlist.Parse(dividerDeck)
	_ = d
	// Force the KCL EMA high, then adapt.
	c.Weights.emaKCL = 1
	w0 := c.Weights.KCL
	c.Weights.Adapt(c.Deck)
	if c.Weights.KCL <= w0 {
		t.Error("KCL weight should grow under persistent violation")
	}
	// Satisfied constraints do not grow.
	c.Weights.emaKCL = 0
	w1 := c.Weights.KCL
	c.Weights.Adapt(c.Deck)
	if c.Weights.KCL != w1 {
		t.Error("satisfied KCL weight must stay put")
	}
}

func TestRegionPenalty(t *testing.T) {
	c := compileDeck(t, diffAmpDeck)
	ws, st, _ := evalDiffAmp(t, c)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	// Build a state that forces m1 deep into triode by collapsing its
	// drain voltage; penalty must not decrease.
	x := make([]float64, len(c.VarList))
	for i, v := range c.VarList {
		x[i] = v.Start()
	}
	for i := c.NUser; i < len(c.VarList); i++ {
		x[i] = -2.4 // everything at the bottom rail
	}
	cb2 := ws.CostDetail(x)
	if err := ws.Err(); err != nil {
		t.Fatal(err)
	}
	if cb2.Dev < 0 {
		t.Error("region penalty must be nonnegative")
	}
}

func TestSpecEnvDeviceParams(t *testing.T) {
	c := compileDeck(t, diffAmpDeck)
	ws, st, _ := evalDiffAmp(t, c)
	env := &wsSpecEnv{ws: ws}
	// The plan precompiles every dotted path a spec reads (the sr spec
	// reads xamp.m1.cdb); mosParam is the table behind each one.
	if v, ok := env.Var("xamp.m1.cdb"); !ok || v != st.MOSOps["xamp.m1"].Caps.Cdb {
		t.Errorf("xamp.m1.cdb = %g, %v; want the operating point's Cdb", v, ok)
	}
	for _, p := range []string{"gm", "gds", "id", "vth", "vdsat", "vgs", "vds", "cgs", "cdb", "region", "vov"} {
		if _, ok := mosParam(st.MOSOps["xamp.m1"], p); !ok {
			t.Errorf("device param %s not resolvable", p)
		}
	}
	if _, ok := env.Var("xamp.m9.gm"); ok {
		t.Error("unknown device must not resolve")
	}
	if _, ok := env.Var("xamp.m1.bogus"); ok {
		t.Error("unknown param must not resolve")
	}
	// v(node) on bias nodes.
	if _, err := env.Call("v", nil); err == nil {
		t.Error("v() without args must error")
	}
	v, err := env.Call("v", []expr.Arg{{IsName: true, Name: "nvdd"}})
	if err != nil || v != 2.5 {
		t.Errorf("v(nvdd) = %g, %v; want 2.5", v, err)
	}
	if _, err := env.Call("v", []expr.Arg{{IsName: true, Name: "zzz"}}); err == nil {
		t.Error("v(unknown) must error")
	}
	// TF measurement dispatch.
	if _, err := env.Call("dc_gain", []expr.Arg{{IsName: true, Name: "tf"}}); err != nil {
		t.Errorf("dc_gain(tf): %v", err)
	}
	if _, err := env.Call("dc_gain", []expr.Arg{{IsName: true, Name: "zz"}}); err == nil {
		t.Error("dc_gain(unknown tf) must error")
	}
	if _, err := env.Call("pole", []expr.Arg{{IsName: true, Name: "tf"}, {Value: 1}}); err != nil {
		t.Errorf("pole(tf,1): %v", err)
	}
	if _, err := env.Call("pole", []expr.Arg{{IsName: true, Name: "tf"}, {Value: 99}}); err == nil {
		t.Error("pole index out of range must error")
	}
	// Math fallthrough still works.
	if got, err := env.Call("abs", []expr.Arg{{Value: -3}}); err != nil || got != 3 {
		t.Errorf("abs via the spec env = %g, %v", got, err)
	}
}

func TestFloatingVSourceChain(t *testing.T) {
	// A voltage source floating between two non-ground nodes (battery
	// between a and b, both otherwise only resistively connected): the
	// tree-link analysis keeps one node free and derives the other.
	c := compileDeck(t, `
.jig main
vin in 0 0 ac 1
r1 in out 1k
r2 out 0 1k
.pz tf v(out) vin
.ends
.bias
vb in 0 1
r1 in a 1k
vf a b 0.5
r2 b 0 1k
rload out 0 1k
r3 in out R
.ends
.var R min=100 max=10k grid
.obj g 'dc_gain(tf)' good=0.9 bad=0.1
`)
	// Exactly one of {a, b} is free, the other determined, plus "out".
	freeAB := 0
	for _, n := range c.Bias.FreeNodes {
		if n == "a" || n == "b" {
			freeAB++
		}
	}
	if freeAB != 1 {
		t.Errorf("free nodes = %v, want exactly one of a/b free", c.Bias.FreeNodes)
	}
	determined := map[string]bool{}
	for _, st := range c.Bias.Determined {
		determined[st.Node] = true
	}
	if !(determined["a"] || determined["b"]) {
		t.Error("one of a/b must be determined relative to the other")
	}
	// The chain evaluates consistently: v(a) - v(b) = 0.5 at any x.
	x := make([]float64, len(c.VarList))
	for i, v := range c.VarList {
		x[i] = v.Start()
	}
	st := c.NewWorkspace().Evaluate(x)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if diff := st.NodeV["a"] - st.NodeV["b"]; math.Abs(diff-0.5) > 1e-12 {
		t.Errorf("v(a)-v(b) = %g, want 0.5", diff)
	}
}

func TestEvaluateBiasLightweight(t *testing.T) {
	c := compileDeck(t, dividerDeck)
	ws := c.NewWorkspace()
	// A full evaluation first: the bias-only state that follows must not
	// report its transfer functions or specs.
	if st := ws.Evaluate([]float64{1000, 0.5}); len(st.TFs) == 0 || len(st.SpecVals) == 0 {
		t.Fatal("Evaluate must run AWE and specs")
	}
	st := ws.EvaluateBias([]float64{1000, 0.5})
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if len(st.TFs) != 0 || len(st.SpecVals) != 0 {
		t.Error("EvaluateBias must not run AWE or specs")
	}
	if math.Abs(st.KCL["out"]) > 1e-12 {
		t.Errorf("KCL = %g", st.KCL["out"])
	}
	// Wrong length.
	if st := ws.EvaluateBias([]float64{1}); st.Err == nil {
		t.Error("short vector must error")
	}
}

func TestJigNetlistExported(t *testing.T) {
	c := compileDeck(t, diffAmpDeck)
	_, st, _ := evalDiffAmp(t, c)
	nl, jig, err := st.JigNetlist("main")
	if err != nil || nl == nil || jig == nil {
		t.Fatalf("JigNetlist: %v", err)
	}
	if nl.NumNodes() == 0 {
		t.Error("empty jig netlist")
	}
	if _, _, err := st.JigNetlist("nope"); err == nil {
		t.Error("unknown jig must error")
	}
}

func TestPowerWithStackedSources(t *testing.T) {
	// The diff-amp deck stacks vb on the vdd node inside the module;
	// power() must peel the source currents rather than erroring.
	c := compileDeck(t, diffAmpDeck)
	ws, _, _ := evalDiffAmp(t, c)
	env := &wsSpecEnv{ws: ws}
	v, err := env.Call("power", nil)
	if err != nil {
		t.Fatalf("power(): %v", err)
	}
	if v <= 0 || v > 1 {
		t.Errorf("power = %g W, implausible", v)
	}
}
