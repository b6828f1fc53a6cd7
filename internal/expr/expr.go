// Package expr implements the small arithmetic expression language that
// ASTRX problem descriptions use for element values and performance
// specifications, e.g.
//
//	'I/(2*(Cl+xamp.m1.cd+xamp.m3.cd))'
//	'dc_gain(tf)'
//	'min(v(out+), v(out-)) - 0.2'
//
// Identifiers may be dotted paths (device operating-point parameters such
// as xamp.m1.gm). Function calls are resolved by the evaluation
// environment, which lets the cost-function compiler expose AWE-derived
// measures (dc_gain, ugf, phase_margin, …) alongside plain math.
// Numeric literals accept SPICE magnitude suffixes (1u, 2.5Meg, 10pF).
package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Node is an expression AST node.
type Node interface {
	// Eval evaluates the node against env.
	Eval(env Env) (float64, error)
	// String renders the node as (normalized) source text.
	String() string
}

// Arg is a function-call argument as seen by an Env. Name is the raw
// identifier text when the argument was a bare identifier (so envs can
// accept object references like transfer-function names); Value is the
// numeric value when the argument evaluated successfully as a number.
type Arg struct {
	// IsName reports whether the argument was syntactically a bare
	// (possibly dotted) identifier.
	IsName bool
	// Name is the identifier text when IsName is true.
	Name string
	// Value is the argument's numeric value; NaN when the argument was a
	// name that did not resolve to a variable.
	Value float64
}

// Env resolves variables and function calls during evaluation.
type Env interface {
	// Var returns the value of a (possibly dotted) identifier.
	Var(name string) (float64, bool)
	// Call applies a named function to evaluated arguments.
	Call(fn string, args []Arg) (float64, error)
}

// ArgAllocator is an optional Env extension. An env that implements it
// supplies the argument buffers for Call.Eval instead of a fresh
// allocation per call, which matters on hot evaluation paths that run
// the same expressions millions of times. ArgBuf must return a length-n
// slice that stays valid until the env's top-level evaluation finishes
// (calls nest, so a bump arena reset per top-level Eval is the usual
// implementation; expression trees are shared between goroutines, so the
// buffer must live in the env, not the AST).
type ArgAllocator interface {
	ArgBuf(n int) []Arg
}

// ---------------------------------------------------------------------------
// AST node types

// Num is a numeric literal.
type Num struct{ V float64 }

// Eval returns the literal value.
func (n *Num) Eval(Env) (float64, error) { return n.V, nil }

func (n *Num) String() string { return strconv.FormatFloat(n.V, 'g', -1, 64) }

// Var is a (possibly dotted) identifier reference.
type Var struct{ Name string }

// Eval looks the identifier up in env.
func (v *Var) Eval(env Env) (float64, error) {
	if x, ok := env.Var(v.Name); ok {
		return x, nil
	}
	return 0, fmt.Errorf("expr: unknown identifier %q", v.Name)
}

func (v *Var) String() string { return v.Name }

// Call is a function application.
type Call struct {
	Fn   string
	Args []Node
}

// Eval evaluates the arguments (passing bare identifiers by name as well
// as by value) and dispatches to env.Call.
func (c *Call) Eval(env Env) (float64, error) {
	var args []Arg
	if aa, ok := env.(ArgAllocator); ok {
		args = aa.ArgBuf(len(c.Args))
	} else {
		args = make([]Arg, len(c.Args))
	}
	for i, a := range c.Args {
		if v, ok := a.(*Var); ok {
			val, resolved := env.Var(v.Name)
			if !resolved {
				val = math.NaN()
			}
			args[i] = Arg{IsName: true, Name: v.Name, Value: val}
			continue
		}
		val, err := a.Eval(env)
		if err != nil {
			return 0, err
		}
		args[i] = Arg{Value: val}
	}
	return env.Call(c.Fn, args)
}

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

// Unary is a prefix operation (only negation).
type Unary struct {
	Op rune
	X  Node
}

// Eval evaluates the operand and applies the operator.
func (u *Unary) Eval(env Env) (float64, error) {
	x, err := u.X.Eval(env)
	if err != nil {
		return 0, err
	}
	switch u.Op {
	case '-':
		return -x, nil
	case '+':
		return x, nil
	}
	return 0, fmt.Errorf("expr: unknown unary operator %q", u.Op)
}

func (u *Unary) String() string { return string(u.Op) + u.X.String() }

// Binary is an infix operation.
type Binary struct {
	Op   rune // one of + - * / ^
	L, R Node
}

// Eval evaluates both operands and applies the operator.
func (b *Binary) Eval(env Env) (float64, error) {
	l, err := b.L.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return 0, err
	}
	switch b.Op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, fmt.Errorf("expr: division by zero in %s", b)
		}
		return l / r, nil
	case '^':
		return math.Pow(l, r), nil
	}
	return 0, fmt.Errorf("expr: unknown operator %q", b.Op)
}

// String parenthesizes every operation, and a negated or signed right
// operand once more: "a - -b" rendered as "(a--b)" would read back as
// "a-" minus b, since names such as out- may end in a sign.
func (b *Binary) String() string {
	r := b.R.String()
	if _, ok := b.R.(*Unary); ok {
		r = "(" + r + ")"
	}
	return "(" + b.L.String() + string(b.Op) + r + ")"
}

// Walk visits every node of an expression tree in preorder: a node
// before its operands and call arguments, left to right.
func Walk(n Node, visit func(Node)) {
	if n == nil {
		return
	}
	visit(n)
	switch t := n.(type) {
	case *Unary:
		Walk(t.X, visit)
	case *Binary:
		Walk(t.L, visit)
		Walk(t.R, visit)
	case *Call:
		for _, a := range t.Args {
			Walk(a, visit)
		}
	}
}

// ---------------------------------------------------------------------------
// SPICE-style number parsing

// spice magnitude suffixes; "meg" must be matched before "m".
var suffixes = []struct {
	text  string
	scale float64
}{
	{"meg", 1e6},
	{"mil", 25.4e-6},
	{"t", 1e12},
	{"g", 1e9},
	{"k", 1e3},
	{"m", 1e-3},
	{"u", 1e-6},
	{"n", 1e-9},
	{"p", 1e-12},
	{"f", 1e-15},
	{"a", 1e-18},
}

// ParseNumber parses a SPICE-style numeric literal: an optional sign, a
// decimal number with optional exponent, an optional magnitude suffix
// (f p n u m k meg g t, case-insensitive), and optional trailing unit
// letters that are ignored (10pF, 5V).
func ParseNumber(s string) (float64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	if t == "" {
		return 0, fmt.Errorf("expr: empty number")
	}
	// Split leading numeric part.
	i := 0
	if t[i] == '+' || t[i] == '-' {
		i++
	}
	digits := false
	for i < len(t) && (t[i] >= '0' && t[i] <= '9' || t[i] == '.') {
		digits = true
		i++
	}
	if !digits {
		return 0, fmt.Errorf("expr: %q is not a number", s)
	}
	// Exponent must be e followed by digits (not a magnitude suffix).
	if i < len(t) && t[i] == 'e' {
		j := i + 1
		if j < len(t) && (t[j] == '+' || t[j] == '-') {
			j++
		}
		k := j
		for k < len(t) && t[k] >= '0' && t[k] <= '9' {
			k++
		}
		if k > j {
			i = k
		}
	}
	num, err := strconv.ParseFloat(t[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("expr: bad numeric literal %q: %v", s, err)
	}
	rest := t[i:]
	scale := 1.0
	for _, sfx := range suffixes {
		if strings.HasPrefix(rest, sfx.text) {
			scale = sfx.scale
			rest = rest[len(sfx.text):]
			break
		}
	}
	// Any remaining letters are units (F, V, hz, ohm…) and are ignored,
	// but stray punctuation is an error.
	for _, r := range rest {
		if !unicode.IsLetter(r) {
			return 0, fmt.Errorf("expr: trailing garbage %q in number %q", rest, s)
		}
	}
	v := num * scale
	if math.IsInf(v, 0) {
		return 0, fmt.Errorf("expr: numeric literal %q out of range", s)
	}
	return v, nil
}

// IsNumber reports whether s parses as a SPICE-style numeric literal.
func IsNumber(s string) bool {
	_, err := ParseNumber(s)
	return err == nil
}
