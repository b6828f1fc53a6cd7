package expr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func evalStr(t *testing.T, src string, env Env) float64 {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	v, err := n.Eval(env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestParseNumberSuffixes(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"1", 1},
		{"-2.5", -2.5},
		{"1u", 1e-6},
		{"10pF", 10e-12},
		{"2.5Meg", 2.5e6},
		{"1MEG", 1e6},
		{"3k", 3e3},
		{"4m", 4e-3},
		{"5n", 5e-9},
		{"6f", 6e-15},
		{"7g", 7e9},
		{"8t", 8e12},
		{"1e-9", 1e-9},
		{"1.5e3", 1500},
		{"1e3k", 1e6}, // exponent then suffix
		{"100mV", 0.1},
		{"5V", 5},
	}
	for _, c := range cases {
		got, err := ParseNumber(c.in)
		if err != nil {
			t.Errorf("ParseNumber(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-18*math.Abs(c.want)+1e-30 {
			t.Errorf("ParseNumber(%q) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestParseNumberErrors(t *testing.T) {
	for _, bad := range []string{"", "abc", "1..2..3x%", "1u$", "--3"} {
		if _, err := ParseNumber(bad); err == nil {
			t.Errorf("ParseNumber(%q) succeeded, want error", bad)
		}
	}
}

func TestArithmetic(t *testing.T) {
	env := MapEnv{}
	cases := []struct {
		src  string
		want float64
	}{
		{"1+2*3", 7},
		{"(1+2)*3", 9},
		{"2^3^2", 512}, // right associative
		{"-2^2", -4},   // unary binds looser than ^
		{"10/4", 2.5},
		{"1 - 2 - 3", -4}, // left associative
		{"1u + 2u", 3e-6},
		{"min(3, 1, 2)", 1},
		{"max(3, 1, 2)", 3},
		{"abs(-4)", 4},
		{"sqrt(16)", 4},
		{"db(100)", 40},
		{"log10(1000)", 3},
		{"exp(0)", 1},
		{"pow(2, 10)", 1024},
		{"floor(2.7)", 2},
		{"ceil(2.1)", 3},
	}
	for _, c := range cases {
		if got := evalStr(t, c.src, env); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%q = %g, want %g", c.src, got, c.want)
		}
	}
}

func TestVariablesAndDottedPaths(t *testing.T) {
	env := MapEnv{"W": 10e-6, "L": 2e-6, "xamp.m1.cd": 30e-15, "Cl": 1e-12, "I": 100e-6}
	got := evalStr(t, "I/(2*(Cl+xamp.m1.cd))", env)
	want := 100e-6 / (2 * (1e-12 + 30e-15))
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("slew expr = %g, want %g", got, want)
	}
	if got := evalStr(t, "W/L", env); math.Abs(got-5) > 1e-12 {
		t.Errorf("W/L = %g, want 5", got)
	}
}

func TestNodeNamesWithSigns(t *testing.T) {
	// out+ and in- must lex as identifiers when used as call args,
	// and "a+-b" style must still parse as arithmetic.
	env := funcEnv{vals: MapEnv{"a": 5, "b": 2}}
	got := evalStr(t, "v(out+) - v(in-)", env)
	if got != 42-10 {
		t.Errorf("v(out+)-v(in-) = %g, want 32", got)
	}
	if got := evalStr(t, "a - b", env); got != 3 {
		t.Errorf("a - b = %g, want 3", got)
	}
	if got := evalStr(t, "a + -b", env); got != 3 {
		t.Errorf("a + -b = %g, want 3", got)
	}
}

// funcEnv resolves v(node) calls for the test above.
type funcEnv struct{ vals MapEnv }

func (f funcEnv) Var(name string) (float64, bool) { return f.vals.Var(name) }

func (f funcEnv) Call(fn string, args []Arg) (float64, error) {
	if fn == "v" {
		switch args[0].Name {
		case "out+":
			return 42, nil
		case "in-":
			return 10, nil
		}
	}
	return MathCall(fn, args)
}

func TestCallPassesNames(t *testing.T) {
	// A bare identifier argument must arrive with IsName set even when it
	// also resolves as a variable.
	var seen Arg
	env := spyEnv{spy: &seen, vals: MapEnv{"tf": 7}}
	n := MustParse("dc_gain(tf)")
	if _, err := n.Eval(env); err != nil {
		t.Fatal(err)
	}
	if !seen.IsName || seen.Name != "tf" || seen.Value != 7 {
		t.Errorf("arg = %+v, want IsName with Name=tf Value=7", seen)
	}
}

type spyEnv struct {
	spy  *Arg
	vals MapEnv
}

func (s spyEnv) Var(name string) (float64, bool) { return s.vals.Var(name) }

func (s spyEnv) Call(fn string, args []Arg) (float64, error) {
	if fn == "dc_gain" {
		*s.spy = args[0]
		return 0, nil
	}
	return MathCall(fn, args)
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "1 +", "(1+2", "f(1,", "f(1 2)", "1 @ 2", "* 3", "1 2",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	env := MapEnv{"x": 1}
	for _, bad := range []string{
		"y + 1",     // unknown var
		"1/0",       // div by zero
		"sqrt(-1)",  // domain
		"log(0)",    // domain
		"log10(-2)", // domain
		"nosuch(1)", // unknown function
		"min()",     // arity
		"abs(1,2)",  // arity
		"pow(1)",    // arity
	} {
		n, err := Parse(bad)
		if err != nil {
			t.Errorf("Parse(%q) failed: %v", bad, err)
			continue
		}
		if _, err := n.Eval(env); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", bad)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	// String() output must reparse to the same value.
	env := MapEnv{"a": 3, "b": 4}
	for _, src := range []string{
		"1+2*3", "a^2 + b^2", "min(a, b) * 2", "-a + 4", "sqrt(a*a + b*b)",
	} {
		n := MustParse(src)
		v1, err := n.Eval(env)
		if err != nil {
			t.Fatal(err)
		}
		n2, err := Parse(n.String())
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", n.String(), src, err)
		}
		v2, err := n2.Eval(env)
		if err != nil {
			t.Fatal(err)
		}
		if v1 != v2 {
			t.Errorf("round trip of %q: %g != %g", src, v1, v2)
		}
	}
}

// Property: for random a,b and ops, parse+eval matches direct computation.
func TestArithmeticProperty(t *testing.T) {
	f := func(a, b float64, opSel uint8) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		// Keep magnitudes printable and division safe.
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		ops := []rune{'+', '-', '*'}
		op := ops[int(opSel)%len(ops)]
		n := &Binary{Op: op, L: &Var{Name: "a"}, R: &Var{Name: "b"}}
		got, err := n.Eval(MapEnv{"a": a, "b": b})
		if err != nil {
			return false
		}
		var want float64
		switch op {
		case '+':
			want = a + b
		case '-':
			want = a - b
		case '*':
			want = a * b
		}
		return got == want || math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIsNumber(t *testing.T) {
	if !IsNumber("2.5Meg") {
		t.Error("IsNumber(2.5Meg) = false")
	}
	if IsNumber("W") {
		t.Error("IsNumber(W) = true")
	}
}

func TestCallStringContainsArgs(t *testing.T) {
	n := MustParse("pole(tf, 2)")
	s := n.String()
	if !strings.Contains(s, "pole(") || !strings.Contains(s, "tf") {
		t.Errorf("String() = %q, want pole call rendering", s)
	}
}

// TestWalkPreorder pins the visiting order the deck validator and the
// plan compiler rely on: each node before its operands and arguments,
// left to right; a nil tree visits nothing.
func TestWalkPreorder(t *testing.T) {
	var got []string
	Walk(MustParse("-db(dc_gain(tf)) + 2*x"), func(n Node) {
		switch n := n.(type) {
		case *Num:
			got = append(got, n.String())
		case *Var:
			got = append(got, n.Name)
		case *Call:
			got = append(got, n.Fn+"()")
		case *Unary:
			got = append(got, "neg")
		case *Binary:
			got = append(got, string(n.Op))
		}
	})
	want := "+ neg db() dc_gain() tf * 2 x"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("preorder %q, want %q", s, want)
	}
	Walk(nil, func(Node) { t.Error("visited a nil tree") })
}
