package expr_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"astrx/internal/bench"
	"astrx/internal/expr"
	"astrx/internal/netlist"
)

// fuzzEnv resolves every identifier, so each expression the parser
// accepts can evaluate: a name's value is a hash of it in [-4, 4].
// Calls go to the math built-ins; an unknown function is an error.
type fuzzEnv struct{}

func (fuzzEnv) Var(name string) (float64, bool) {
	h := fnv.New64a()
	h.Write([]byte(name))
	return float64(h.Sum64()%8001)/1000 - 4, true
}

func (fuzzEnv) Call(fn string, args []expr.Arg) (float64, error) {
	return expr.MathCall(fn, args)
}

// FuzzExprParse holds the expression parser to never panicking and to a
// round trip: an accepted expression's String() parses to a node whose
// String() is the same, and the two nodes evaluate to the same bits or
// the same error in one environment. It is seeded with the bench decks'
// spec expressions.
func FuzzExprParse(f *testing.F) {
	for _, ckt := range bench.Suite {
		d, err := netlist.Parse(bench.DeckSource(ckt))
		if err != nil {
			f.Fatal(err)
		}
		for _, s := range d.Specs {
			f.Add(s.ExprText)
		}
	}
	for _, s := range []string{
		"-2^2", "2^-3^2", "a - -b", "a- -b", "out+ - out-", "x - +1",
		"1.5meg*2u", "1e300t", "max(a, -b, 3)", "sqrt(-1)", "1/(a-a)", "f()",
	} {
		f.Add(s)
	}
	env := fuzzEnv{}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := expr.Parse(src)
		if err != nil {
			return
		}
		text := n.String()
		m, err := expr.Parse(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", src, text, err)
		}
		if again := m.String(); again != text {
			t.Fatalf("%q renders as %q, which renders as %q", src, text, again)
		}
		a, aerr := n.Eval(env)
		b, berr := m.Eval(env)
		if fmt.Sprint(aerr) != fmt.Sprint(berr) || aerr == nil && math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%q evaluates to %v (%v), its rendering %q to %v (%v)", src, a, aerr, text, b, berr)
		}
	})
}
