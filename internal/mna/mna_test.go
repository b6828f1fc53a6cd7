package mna

import (
	"math"
	"testing"

	"astrx/internal/circuit"
	"astrx/internal/expr"
	"astrx/internal/linalg"
)

func elem(name string, nodes []string, value string) *circuit.Element {
	k, ok := circuit.KindOf(name)
	if !ok {
		panic("bad element name " + name)
	}
	e := &circuit.Element{Name: name, Kind: k, Nodes: nodes}
	if value != "" {
		e.Value = expr.MustParse(value)
	}
	return e
}

func netlistOf(elems ...*circuit.Element) *circuit.Netlist {
	nl := &circuit.Netlist{Elements: elems}
	nl.BuildIndex()
	return nl
}

// solveDC solves G·x = b for the DC (s=0) response.
func solveDC(t *testing.T, s *System, src string) []float64 {
	t.Helper()
	b, err := s.InputVector(src)
	if err != nil {
		t.Fatal(err)
	}
	var lu linalg.LU
	if err := lu.Factor(s.G); err != nil {
		t.Fatal(err)
	}
	return lu.Solve(b)
}

func TestVoltageDivider(t *testing.T) {
	vin := elem("vin", []string{"in", "0"}, "0")
	vin.ACMag = 1
	nl := netlistOf(
		vin,
		elem("r1", []string{"in", "out"}, "1k"),
		elem("r2", []string{"out", "0"}, "3k"),
	)
	s, err := Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	x := solveDC(t, s, "vin")
	iOut, _ := s.NodeUnknown("out")
	if math.Abs(x[iOut]-0.75) > 1e-12 {
		t.Errorf("divider out = %v, want 0.75", x[iOut])
	}
	// Branch current through the source: V/(R1+R2) = 0.25 mA flowing
	// into the + terminal (so the unknown is negative by convention).
	iBr, ok := s.BranchUnknown("vin")
	if !ok {
		t.Fatal("no branch for vin")
	}
	if math.Abs(math.Abs(x[iBr])-0.25e-3) > 1e-12 {
		t.Errorf("source current = %v, want ±0.25mA", x[iBr])
	}
}

func TestVariableResistor(t *testing.T) {
	vin := elem("vin", []string{"in", "0"}, "0")
	vin.ACMag = 1
	nl := netlistOf(
		vin,
		elem("r1", []string{"in", "out"}, "Rtop"),
		elem("r2", []string{"out", "0"}, "1k"),
	)
	s, err := Build(nl, expr.MapEnv{"Rtop": 1000})
	if err != nil {
		t.Fatal(err)
	}
	x := solveDC(t, s, "vin")
	iOut, _ := s.NodeUnknown("out")
	if math.Abs(x[iOut]-0.5) > 1e-12 {
		t.Errorf("out = %v, want 0.5", x[iOut])
	}
}

func TestCurrentSourceIntoResistor(t *testing.T) {
	iin := elem("iin", []string{"0", "out"}, "0")
	iin.ACMag = 1e-3
	nl := netlistOf(iin, elem("r1", []string{"out", "0"}, "2k"))
	s, err := Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	x := solveDC(t, s, "iin")
	iOut, _ := s.NodeUnknown("out")
	// 1mA from ground into node out through 2k: V = +2.
	if math.Abs(x[iOut]-2) > 1e-12 {
		t.Errorf("out = %v, want 2", x[iOut])
	}
}

func TestCapacitorStamp(t *testing.T) {
	vin := elem("vin", []string{"in", "0"}, "0")
	vin.ACMag = 1
	nl := netlistOf(
		vin,
		elem("r1", []string{"in", "out"}, "1k"),
		elem("c1", []string{"out", "0"}, "1u"),
	)
	s, err := Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	iOut, _ := s.NodeUnknown("out")
	if got := s.C.At(iOut, iOut); math.Abs(got-1e-6) > 1e-20 {
		t.Errorf("C stamp = %v, want 1e-6", got)
	}
	// G matrix must not contain the capacitor.
	if got := s.G.At(iOut, iOut); math.Abs(got-1e-3) > 1e-15 {
		t.Errorf("G diagonal = %v, want 1e-3", got)
	}
}

func TestVCCSAmplifier(t *testing.T) {
	// Common-source stage: vout = -gm·RL·vin
	vin := elem("vin", []string{"in", "0"}, "0")
	vin.ACMag = 1
	g1 := elem("g1", []string{"out", "0", "in", "0"}, "1m") // i(out→0) = gm·v(in)
	nl := netlistOf(vin, g1, elem("rl", []string{"out", "0"}, "10k"))
	s, err := Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	x := solveDC(t, s, "vin")
	iOut, _ := s.NodeUnknown("out")
	if math.Abs(x[iOut]+10) > 1e-9 {
		t.Errorf("VCCS gain = %v, want -10", x[iOut])
	}
}

func TestVCVS(t *testing.T) {
	vin := elem("vin", []string{"in", "0"}, "0")
	vin.ACMag = 1
	e1 := elem("e1", []string{"out", "0", "in", "0"}, "5")
	nl := netlistOf(vin, e1, elem("rl", []string{"out", "0"}, "1k"))
	s, err := Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	x := solveDC(t, s, "vin")
	iOut, _ := s.NodeUnknown("out")
	if math.Abs(x[iOut]-5) > 1e-9 {
		t.Errorf("VCVS out = %v, want 5", x[iOut])
	}
}

func TestCCCSAndCCVS(t *testing.T) {
	// vin drives r1; f1 mirrors i(vin)·2 into rload.
	vin := elem("vin", []string{"in", "0"}, "0")
	vin.ACMag = 1
	f1 := elem("f1", []string{"0", "out"}, "2")
	f1.CtrlName = "vin"
	nl := netlistOf(vin,
		elem("r1", []string{"in", "0"}, "1k"),
		f1,
		elem("rl", []string{"out", "0"}, "1k"),
	)
	s, err := Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	x := solveDC(t, s, "vin")
	iOut, _ := s.NodeUnknown("out")
	// i(vin) = -1mA (current into + terminal is -V/R by MNA sign
	// convention); f = 2·i flows 0→out; |vout| = 2 V.
	if math.Abs(math.Abs(x[iOut])-2) > 1e-9 {
		t.Errorf("CCCS out = %v, want ±2", x[iOut])
	}

	h1 := elem("h1", []string{"out2", "0"}, "3k")
	h1.CtrlName = "vin"
	nl2 := netlistOf(vin,
		elem("r1", []string{"in", "0"}, "1k"),
		h1,
		elem("rl", []string{"out2", "0"}, "1k"),
	)
	s2, err := Build(nl2, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	x2 := solveDC(t, s2, "vin")
	iOut2, _ := s2.NodeUnknown("out2")
	if math.Abs(math.Abs(x2[iOut2])-3) > 1e-9 {
		t.Errorf("CCVS out = %v, want ±3", x2[iOut2])
	}
}

func TestInductorStamps(t *testing.T) {
	vin := elem("vin", []string{"in", "0"}, "0")
	vin.ACMag = 1
	nl := netlistOf(vin,
		elem("l1", []string{"in", "out"}, "1m"),
		elem("r1", []string{"out", "0"}, "1k"),
	)
	s, err := Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	// DC: inductor is a short → out = in = 1.
	x := solveDC(t, s, "vin")
	iOut, _ := s.NodeUnknown("out")
	if math.Abs(x[iOut]-1) > 1e-9 {
		t.Errorf("DC through inductor = %v, want 1", x[iOut])
	}
	br, ok := s.BranchUnknown("l1")
	if !ok {
		t.Fatal("no branch for l1")
	}
	if got := s.C.At(br, br); math.Abs(got+1e-3) > 1e-18 {
		t.Errorf("L stamp = %v, want -1e-3", got)
	}
}

func TestBuildErrors(t *testing.T) {
	m := &circuit.Element{Name: "m1", Kind: circuit.KindM, Nodes: []string{"a", "b", "c", "d"}}
	if _, err := Build(netlistOf(m), expr.MapEnv{}); err == nil {
		t.Error("nonlinear element must be rejected")
	}
	x := &circuit.Element{Name: "x1", Kind: circuit.KindX, Nodes: []string{"a"}, Sub: "s"}
	if _, err := Build(netlistOf(x), expr.MapEnv{}); err == nil {
		t.Error("unflattened instance must be rejected")
	}
	if _, err := Build(netlistOf(elem("r1", []string{"a", "0"}, "0")), expr.MapEnv{}); err == nil {
		t.Error("zero resistance must be rejected")
	}
	f := elem("f1", []string{"a", "0"}, "1")
	f.CtrlName = "nope"
	if _, err := Build(netlistOf(f), expr.MapEnv{}); err == nil {
		t.Error("unknown control source must be rejected")
	}
	// Unresolvable value expression.
	if _, err := Build(netlistOf(elem("r1", []string{"a", "0"}, "Runknown")), expr.MapEnv{}); err == nil {
		t.Error("unknown variable in value must be rejected")
	}
}

func TestInputVectorErrors(t *testing.T) {
	nl := netlistOf(elem("r1", []string{"a", "0"}, "1k"))
	s, err := Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InputVector("nope"); err == nil {
		t.Error("unknown source must error")
	}
	if _, err := s.InputVector("r1"); err == nil {
		t.Error("non-source element must error")
	}
}

func TestNodeUnknown(t *testing.T) {
	nl := netlistOf(elem("r1", []string{"a", "0"}, "1k"))
	s, err := Build(nl, expr.MapEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NodeUnknown("0"); ok {
		t.Error("ground has no unknown")
	}
	if _, ok := s.NodeUnknown("zzz"); ok {
		t.Error("unknown node has no unknown")
	}
	if i, ok := s.NodeUnknown("a"); !ok || i != 0 {
		t.Errorf("NodeUnknown(a) = %d,%v", i, ok)
	}
	if s.Netlist() != nl {
		t.Error("Netlist accessor broken")
	}
}
