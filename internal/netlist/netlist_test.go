package netlist

import (
	"math"
	"os"
	"strings"
	"testing"

	"astrx/internal/circuit"
	"astrx/internal/expr"
)

// diffAmpDeck is the paper's §IV differential-amplifier example rendered
// in our deck syntax.
const diffAmpDeck = `
* Simple differential pair from the paper's Section IV
.title diffamp example
.lib c2u

.module amp (in+ in- out+ out- vdd vss oa)
m1 out- in+ a a nmos3 w=W l=L
m2 out+ in- a a nmos3 w=W l=L
m3 out- nb  vdd vdd pmos3 w=10u l=2u
m4 out+ nb  vdd vdd pmos3 w=10u l=2u
vb  nb 0 Vb
ib  a 0 I       ; tail current sink
.ends

.var W  min=2u  max=500u grid
.var L  min=2u  max=50u  grid=30
.var I  min=1u  max=1m   cont
.var Vb min=0.5 max=4.5  cont init=3.5

.const Cl 1p
.const vddval 2.5
.const vssval -2.5

.jig main
xamp in+ in- out+ out- nvdd nvss oa amp
vdd  nvdd 0 vddval
vss  nvss 0 vssval
vin  in+ 0 0 ac 1
ein  in- 0 0 in+ -1
cl1  out+ 0 Cl
cl2  out- 0 Cl
.pz tf v(out+,out-) vin
.ends

.bias
xamp in+ in- out+ out- nvdd nvss oa amp
vdd  nvdd 0 vddval
vss  nvss 0 vssval
.ends

.obj  adm 'db(dc_gain(tf))' good=60 bad=20
.spec ugf 'ugf(tf)'         good=6.28Meg bad=62.8k
.spec sr  'I/(2*(Cl+xamp.m1.cdb))' good=1Meg bad=10k
.region xamp.m1 sat margin=0.1
.region xamp.m3 sat
`

func parseDeck(t *testing.T, src string) *Deck {
	t.Helper()
	d, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseDiffAmpDeck(t *testing.T) {
	d := parseDeck(t, diffAmpDeck)
	if d.Title != "diffamp example" {
		t.Errorf("title = %q", d.Title)
	}
	amp := d.Modules["amp"]
	if amp == nil {
		t.Fatal("module amp missing")
	}
	if len(amp.Ports) != 7 {
		t.Errorf("amp ports = %v", amp.Ports)
	}
	if len(amp.Elements) != 6 {
		t.Errorf("amp has %d elements, want 6", len(amp.Elements))
	}
	m1 := amp.Elements[0]
	if m1.Name != "m1" || m1.Kind != circuit.KindM || m1.Model != "nmos3" {
		t.Errorf("m1 parsed wrong: %+v", m1)
	}
	if m1.Nodes[0] != "out-" || m1.Nodes[3] != "a" {
		t.Errorf("m1 nodes = %v", m1.Nodes)
	}
	// Parameter expressions reference design variables.
	env := expr.MapEnv{"W": 10e-6, "L": 2e-6, "I": 1e-4, "Vb": 3.0}
	w, err := m1.EvalParam("w", 0, env)
	if err != nil || w != 10e-6 {
		t.Errorf("m1 w = %g, %v", w, err)
	}

	// Process library was merged.
	if d.Models["nmos3"] == nil || d.Models["pmos3"] == nil {
		t.Error("library models missing")
	}

	// Variables.
	if len(d.Vars) != 4 {
		t.Fatalf("vars = %d, want 4", len(d.Vars))
	}
	wv := d.Var("W")
	if wv == nil || wv.Continuous || wv.Min != 2e-6 || wv.Max != 500e-6 {
		t.Errorf("W var = %+v", wv)
	}
	lv := d.Var("L")
	if lv.PointsPerDecade != 30 {
		t.Errorf("L grid density = %d, want 30", lv.PointsPerDecade)
	}
	iv := d.Var("I")
	if !iv.Continuous {
		t.Error("I must be continuous")
	}
	vb := d.Var("Vb")
	if vb.Init != 3.5 {
		t.Errorf("Vb init = %g", vb.Init)
	}

	// Constants.
	if d.Consts["Cl"] != 1e-12 || d.Consts["vddval"] != 2.5 {
		t.Errorf("consts = %v", d.Consts)
	}

	// Jig with .pz.
	if len(d.Jigs) != 1 {
		t.Fatalf("jigs = %d", len(d.Jigs))
	}
	jig := d.Jigs[0]
	if jig.Name != "main" || len(jig.Elements) != 7 {
		t.Errorf("jig = %s with %d elements", jig.Name, len(jig.Elements))
	}
	if len(jig.TFs) != 1 {
		t.Fatalf("jig TFs = %d", len(jig.TFs))
	}
	tf := jig.TFs[0]
	if tf.Name != "tf" || tf.OutPos != "out+" || tf.OutNeg != "out-" || tf.Src != "vin" {
		t.Errorf("tf = %+v", tf)
	}

	// Bias block.
	if d.Bias == nil || len(d.Bias.Elements) != 3 {
		t.Fatalf("bias block wrong: %+v", d.Bias)
	}

	// Specs.
	if len(d.Specs) != 3 {
		t.Fatalf("specs = %d", len(d.Specs))
	}
	adm := d.Spec("adm")
	if adm == nil || !adm.Objective || !adm.Maximize() {
		t.Errorf("adm spec = %+v", adm)
	}
	sr := d.Spec("sr")
	if sr == nil || sr.Objective || sr.Good != 1e6 {
		t.Errorf("sr spec = %+v", sr)
	}

	// Regions.
	if len(d.Regions) != 2 {
		t.Fatalf("regions = %d", len(d.Regions))
	}
	if d.Regions[0].Device != "xamp.m1" || d.Regions[0].Region != "sat" ||
		math.Abs(d.Regions[0].Margin-0.1) > 1e-15 {
		t.Errorf("region 0 = %+v", d.Regions[0])
	}
	if d.Regions[1].Margin != 0 {
		t.Errorf("region 1 margin = %g", d.Regions[1].Margin)
	}

	// Line accounting.
	if d.NetlistLines == 0 || d.SynthLines == 0 {
		t.Error("line accounting missing")
	}
	// 4 vars + 3 consts + 3 specs + 1 pz + 2 regions = 13 synth lines.
	if d.SynthLines != 13 {
		t.Errorf("SynthLines = %d, want 13", d.SynthLines)
	}
}

func TestControlledSources(t *testing.T) {
	d := parseDeck(t, `
.jig j
vin a 0 1 ac 1
e1 b 0 a 0 2.5
g1 c 0 a 0 '1m*2'
f1 d 0 vin 3
h1 e 0 vin 1k
r1 b 0 1k
r2 c 0 1k
r3 d 0 1k
r4 e 0 1k
.ends
`)
	j := d.Jigs[0]
	byName := map[string]*circuit.Element{}
	for _, e := range j.Elements {
		byName[e.Name] = e
	}
	if e := byName["e1"]; e.Kind != circuit.KindE || len(e.Nodes) != 4 {
		t.Errorf("e1 = %+v", e)
	}
	if g := byName["g1"]; g.Kind != circuit.KindG {
		t.Errorf("g1 = %+v", g)
	} else if v, err := g.EvalValue(expr.MapEnv{}); err != nil || math.Abs(v-2e-3) > 1e-18 {
		t.Errorf("g1 value = %g, %v", v, err)
	}
	if f := byName["f1"]; f.CtrlName != "vin" {
		t.Errorf("f1 ctrl = %q", f.CtrlName)
	}
	if h := byName["h1"]; h.CtrlName != "vin" {
		t.Errorf("h1 ctrl = %q", h.CtrlName)
	}
	if v := byName["vin"]; v.ACMag != 1 {
		t.Errorf("vin acmag = %g", v.ACMag)
	}
}

func TestContinuationAndComments(t *testing.T) {
	d := parseDeck(t, `
.jig j
r1 a
+ b
+ 10k       ; a split resistor line
.ends
`)
	r := d.Jigs[0].Elements[0]
	if len(r.Nodes) != 2 || r.Nodes[1] != "b" {
		t.Errorf("continuation failed: %+v", r)
	}
	v, _ := r.EvalValue(expr.MapEnv{})
	if v != 10000 {
		t.Errorf("value = %g", v)
	}
}

// TestQuotedParamValue: a parameter's value may be quoted, key='expr',
// as a positional value may; key and value are one token, and canonical
// text keeps them one.
func TestQuotedParamValue(t *testing.T) {
	src := `
.lib c2u
.jig j
m1 n3 inp ntail ntail nmos3 w=W1 l='L1*2'
m2 n4 inn ntail ntail nmos3 w='W1 + 1' l=L1
vp1 pb1 0 '0-Vb1'
.ends
`
	d := parseDeck(t, src)
	env := expr.MapEnv{"W1": 2, "L1": 3, "Vb1": 1}
	els := d.Jigs[0].Elements
	for _, c := range []struct {
		el    *circuit.Element
		param string
		want  float64
	}{{els[0], "w", 2}, {els[0], "l", 6}, {els[1], "w", 3}, {els[1], "l", 3}} {
		if v, err := c.el.EvalParam(c.param, 0, env); err != nil || v != c.want {
			t.Errorf("%s %s = %g, %v; want %g", c.el.Name, c.param, v, err, c.want)
		}
	}
	if v, err := els[2].EvalValue(env); err != nil || v != -1 {
		t.Errorf("vp1 value = %g, %v; want -1", v, err)
	}
	canon, err := Canonical(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(canon, " l=L1*2\n") || !strings.Contains(canon, " 'w=W1 + 1' ") {
		t.Errorf("canonical text %q does not keep the quoted parameters whole", canon)
	}
	if again, err := Canonical(canon); err != nil || again != canon {
		t.Errorf("not a fixed point: %q -> %q, %v", canon, again, err)
	}
	if _, err := Parse(".jig j\nm1 d g s b nmos3 w=1u l='1u\n.ends\n"); err == nil {
		t.Error("unterminated quoted parameter value accepted")
	}
}

func TestBJTLine(t *testing.T) {
	d := parseDeck(t, `
.lib bicmos
.jig j
q1 c b e npn area=2
r1 c 0 1k
.ends
`)
	q := d.Jigs[0].Elements[0]
	if q.Kind != circuit.KindQ || q.Model != "npn" || len(q.Nodes) != 3 {
		t.Errorf("q1 = %+v", q)
	}
	a, err := q.EvalParam("area", 1, expr.MapEnv{})
	if err != nil || a != 2 {
		t.Errorf("area = %g, %v", a, err)
	}
}

func TestModelCard(t *testing.T) {
	d := parseDeck(t, `
.model mymos nmos level=3 vto=0.75 kp=55u tox=40n
.jig j
r1 a 0 1
.ends
`)
	m := d.Models["mymos"]
	if m == nil || m.Level != 3 || m.Type != "nmos" {
		t.Fatalf("model = %+v", m)
	}
	if m.P("vto", 0) != 0.75 || math.Abs(m.P("kp", 0)-55e-6) > 1e-20 {
		t.Errorf("params = %v", m.Params)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"elementOutsideBlock", "r1 a b 1k\n"},
		{"unterminatedBlock", ".jig j\nr1 a b 1k\n"},
		{"unknownCard", ".bogus x\n"},
		{"unknownElement", ".jig j\nz1 a b 1\n.ends\n"},
		{"badResistor", ".jig j\nr1 a b\n.ends\n"},
		{"badMOSParams", ".jig j\nm1 d g s b mod w=1u\n.ends\n"},
		{"mosUnknownParam", ".jig j\nm1 d g s b mod w=1u l=1u q=3\n.ends\n"},
		{"duplicateVar", ".var A min=1 max=2\n.var A min=1 max=2\n"},
		{"varBadRange", ".var A min=5 max=2\n"},
		{"varUnknownAttr", ".var A min=1 max=2 wild\n"},
		{"specMissingBad", ".spec s 'a' good=1\n"},
		{"specGoodEqBad", ".spec s 'a' good=1 bad=1\n"},
		{"specBadExpr", ".spec s 'a +' good=1 bad=0\n"},
		{"duplicateSpec", ".spec s 'a' good=1 bad=0\n.spec s 'a' good=1 bad=0\n"},
		{"pzOutsideJig", ".pz tf v(a) vin\n"},
		{"pzMalformed", ".jig j\n.pz tf w(a) vin\n.ends\n"},
		{"regionBad", ".region xamp.m1 weird\n"},
		{"modelBadLevel", ".model m nmos level=abc\n"},
		{"libUnknown", ".lib c9000\n"},
		{"constBad", ".const A xx\n"},
		{"duplicateModule", ".module m (a)\n.ends\n.module m (a)\n.ends\n"},
		{"duplicateBias", ".bias\nr1 a 0 1\n.ends\n.bias\nr1 a 0 1\n.ends\n"},
		{"endsWithoutBlock", ".ends\n"},
		{"unterminatedQuote", ".spec s 'a good=1 bad=0\n"},
		{"cardInModule", ".module m (a)\n.var X min=1 max=2\n.ends\n"},
		{"vSourceTrailing", ".jig j\nv1 a 0 1 dc 2\n.ends\n"},
		{"fBadArity", ".jig j\nf1 a 0 vin\n.ends\n"},
		{"qBadParam", ".jig j\nq1 c b e npn beta=2\n.ends\n"},
		{"xTooShort", ".jig j\nx1 sub\n.ends\n"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: Parse succeeded, want error", c.name)
		}
	}
}

func TestXInstanceNodes(t *testing.T) {
	d := parseDeck(t, `
.module sub (p q)
r1 p q 1k
.ends
.jig j
x1 a b sub
.ends
`)
	x := d.Jigs[0].Elements[0]
	if x.Sub != "sub" || len(x.Nodes) != 2 || x.Nodes[0] != "a" {
		t.Errorf("x1 = %+v", x)
	}
}

func TestDeckAccessors(t *testing.T) {
	d := parseDeck(t, diffAmpDeck)
	if d.Jig("nope") != nil || d.Jig("main") == nil {
		t.Error("Jig accessor wrong")
	}
	if d.Var("nope") != nil || d.Spec("nope") != nil {
		t.Error("nil accessors wrong")
	}
}

func TestCaseInsensitivity(t *testing.T) {
	d := parseDeck(t, `
.JIG J
R1 A B 1K
VIN A 0 0 AC 1
.ENDS
`)
	if len(d.Jigs) != 1 {
		t.Fatal("uppercase deck failed")
	}
	r := d.Jigs[0].Elements[0]
	if r.Name != "r1" || r.Nodes[0] != "a" {
		t.Errorf("case folding wrong: %+v", r)
	}
	if d.Jigs[0].Elements[1].ACMag != 1 {
		t.Error("AC keyword case folding wrong")
	}
}

func TestSpecDirections(t *testing.T) {
	d := parseDeck(t, `
.spec up 'x' good=10 bad=1
.spec dn 'x' good=1 bad=10
`)
	if !d.Spec("up").Maximize() {
		t.Error("up should maximize")
	}
	if d.Spec("dn").Maximize() {
		t.Error("dn should minimize")
	}
	if !strings.Contains(d.Spec("up").ExprText, "x") {
		t.Error("ExprText not preserved")
	}
}

// TestIncludeCard: the parser never reads a file a deck names. A deck
// that includes a file fails with an error that names the card, and
// nothing of the file — here its marker first line — reaches the deck
// or the error.
func TestIncludeCard(t *testing.T) {
	const marker = "include-marker-4f1c"
	path := t.TempDir() + "/lib.inc"
	if err := os.WriteFile(path, []byte(marker+"\n.model mymos nmos level=3 vto=0.75 kp=55u\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		".include " + path + "\n",
		".INCLUDE " + path + "\n.model other nmos level=1\n",
		".include\n",
	} {
		d, err := Parse(src)
		if err == nil {
			t.Errorf("%q parsed to %+v, want a refusal", src, d)
			continue
		}
		if !strings.Contains(err.Error(), ".include") {
			t.Errorf("%q: error %q does not name the card", src, err)
		}
		if strings.Contains(err.Error(), marker) {
			t.Errorf("%q: error %q quotes the included file", src, err)
		}
	}
}

// TestSpecMet pins the met rule verify and yield share: a maximized
// spec is met at or above Good, a minimized one at or below, and NaN
// never.
func TestSpecMet(t *testing.T) {
	gain := &Spec{Good: 60, Bad: 40}
	pwr := &Spec{Good: 2.5e-3, Bad: 5e-3}
	for _, c := range []struct {
		s    *Spec
		v    float64
		want bool
	}{
		{gain, 60, true}, {gain, 61, true}, {gain, 59.9, false}, {gain, math.NaN(), false},
		{pwr, 2.5e-3, true}, {pwr, 1e-3, true}, {pwr, 3e-3, false}, {pwr, math.NaN(), false},
	} {
		if got := c.s.Met(c.v); got != c.want {
			t.Errorf("Spec{Good: %g, Bad: %g}.Met(%g) = %v, want %v", c.s.Good, c.s.Bad, c.v, got, c.want)
		}
	}
}
