package astrx

import (
	"math"
	"strings"
	"testing"

	"astrx/internal/expr"
)

// bjtDeck exercises the BJT paths of the compiler.
const bjtDeck = `
.lib bicmos

.module ce (in out vdd vss)
q1 out in vss npn area=AQ
m8 out pb vdd vdd pmos3 w=W8 l=4u
vpb pb vdd -1.2
rb in2 in 10k
.ends

.var AQ min=0.5 max=20 grid
.var W8 min=2u max=200u grid
.var Vbias min=0.4 max=1 cont

.jig main
xamp b out nvdd nvss ce
vdd nvdd 0 2.5
vss nvss 0 -2.5
vin b 0 Vbias ac 1
cl out 0 1p
.pz tf v(out) vin
.ends

.bias
xamp b out nvdd nvss ce
vdd nvdd 0 2.5
vss nvss 0 -2.5
vb2 b 0 Vbias
.ends

.obj gain 'db(abs(dc_gain(tf)))' good=40 bad=5
.spec ic 'xamp.q1.ic' good=1u bad=1n
.spec beta 'xamp.q1.ic/xamp.q1.ib' good=50 bad=5
`

func TestCompileBJTStage(t *testing.T) {
	c := compileDeck(t, bjtDeck)
	if len(c.Bias.DevOrder) != 2 {
		t.Fatalf("devices = %v", c.Bias.DevOrder)
	}
	var q *DevInst
	for _, d := range c.Bias.Devices {
		if d.Kind == DevBJT {
			q = d
		}
	}
	if q == nil {
		t.Fatal("no BJT instance")
	}
	x := make([]float64, len(c.VarList))
	for i, v := range c.VarList {
		x[i] = v.Start()
	}
	// Bias the base near 0.65+vss… base is driven by Vbias vs ground;
	// emitter at vss=-2.5 would put vbe ≈ 3 V — instead the emitter is
	// tied to vss so pick Vbias ≈ -1.85 for vbe ≈ 0.65. Range is
	// 0.4..1 though, so the BJT will be hard on; the evaluation must
	// still complete (limexp guards overflow).
	ws := c.NewWorkspace()
	st := ws.Evaluate(x)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	op, ok := st.BJTOps[q.Name]
	if !ok {
		t.Fatal("BJT op missing")
	}
	if math.IsNaN(op.Ic) || math.IsInf(op.Ic, 0) {
		t.Errorf("Ic = %g", op.Ic)
	}
	// The spec env resolves the BJT dotted params the specs read;
	// bjtParam is the table behind each one.
	env := &wsSpecEnv{ws: ws}
	for _, p := range []string{"ic", "ib"} {
		if _, ok := env.Var(q.Name + "." + p); !ok {
			t.Errorf("bjt param %s unresolved", p)
		}
	}
	for _, p := range []string{"ic", "ib", "gm", "gpi", "go", "cpi", "cmu", "vbe", "vbc"} {
		if _, ok := bjtParam(op, p); !ok {
			t.Errorf("bjt param %s unresolved", p)
		}
	}
	// Jig small-signal with BJT elements.
	nl, _, err := st.JigNetlist("main")
	if err != nil {
		t.Fatal(err)
	}
	foundGm := false
	for _, e := range nl.Elements {
		if strings.Contains(e.Name, "#gm") {
			foundGm = true
		}
	}
	if !foundGm {
		t.Error("BJT small-signal gm element missing")
	}
}

func TestSpecEnvMoreFunctions(t *testing.T) {
	c := compileDeck(t, dividerDeck)
	ws := c.NewWorkspace()
	if st := ws.Evaluate([]float64{9000, 0.9}); st.Err != nil {
		t.Fatal(st.Err)
	}
	env := &wsSpecEnv{ws: ws}
	for _, call := range []struct {
		fn   string
		args []expr.Arg
		ok   bool
	}{
		{"ugf", []expr.Arg{{IsName: true, Name: "tf"}}, true},
		{"phase_margin", []expr.Arg{{IsName: true, Name: "tf"}}, true},
		{"bw3db", []expr.Arg{{IsName: true, Name: "tf"}}, true},
		{"gain_at", []expr.Arg{{IsName: true, Name: "tf"}, {Value: 1e3}}, true},
		{"gain_at", []expr.Arg{{IsName: true, Name: "tf"}}, false},
		{"zero", []expr.Arg{{IsName: true, Name: "tf"}, {Value: 1}}, false}, // single pole: no zeros
		{"pole", []expr.Arg{{IsName: true, Name: "tf"}}, false},
		{"ugf", nil, false},
		{"active_area", nil, true}, // zero MOS devices → 0, no error
	} {
		_, err := env.Call(call.fn, call.args)
		if call.ok && err != nil {
			t.Errorf("%s: %v", call.fn, err)
		}
		if !call.ok && err == nil {
			t.Errorf("%s: expected error", call.fn)
		}
	}
	// gain_at magnitude at low ω equals |dc gain|.
	v, err := env.Call("gain_at", []expr.Arg{{IsName: true, Name: "tf"}, {Value: 1}})
	if err != nil || math.Abs(v-0.9) > 1e-3 {
		t.Errorf("gain_at(1Hz) = %g, %v", v, err)
	}
}

func TestRegionVariants(t *testing.T) {
	src := strings.Replace(diffAmpDeck,
		".region xamp.m1 sat", ".region xamp.m1 triode", 1)
	src = strings.Replace(src,
		".region xamp.m3 sat", ".region xamp.m3 on margin=0.2", 1)
	c := compileDeck(t, src)
	_, st, cb := evalDiffAmp(t, c)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if cb.Failed {
		t.Fatal("cost failed")
	}
	if cb.Dev < 0 {
		t.Error("negative region penalty")
	}
}

func TestCostOptionsDefaults(t *testing.T) {
	var o CostOptions
	o.defaults()
	if o.AWEOrder == 0 || o.Gmin == 0 || o.KCLTolAbs == 0 || o.FailCost == 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
}

func TestSeriesRExpr(t *testing.T) {
	e := &seriesRExpr{rw: 8e-4, w: expr.MustParse("W"), m: expr.MustParse("2")}
	env := expr.MapEnv{"W": 10e-6}
	v, err := e.Eval(env)
	if err != nil || math.Abs(v-40) > 1e-9 {
		t.Errorf("seriesR = %g, %v; want 40", v, err)
	}
	if e.String() == "" {
		t.Error("empty String")
	}
	// Nonpositive width errors.
	bad := &seriesRExpr{rw: 8e-4, w: expr.MustParse("0-1u")}
	if _, err := bad.Eval(expr.MapEnv{}); err == nil {
		t.Error("negative width must error")
	}
}

func TestDCProblemWrongSizes(t *testing.T) {
	c := compileDeck(t, dividerDeck)
	p := c.DCProblem([]float64{1000, 0})
	f := make([]float64, p.N())
	// Residual with a non-finite design var: expression still evaluates,
	// so drive the error path via a broken value instead.
	if err := p.Residual([]float64{0.5}, f); err != nil {
		t.Fatalf("unexpected: %v", err)
	}
}

func TestNormalizeAndSpecFail(t *testing.T) {
	c := compileDeck(t, dividerDeck)
	ws := c.NewWorkspace()
	ws.run([]float64{1000, 0.5}, true)
	ws.specVals[0] = math.NaN() // "gain", the deck's only spec
	cb := ws.costFromRun()
	if cb.Perf <= 0 {
		t.Error("NaN spec must incur a penalty")
	}
}
