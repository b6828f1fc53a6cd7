// Package netlist parses ASTRX problem descriptions — the "tens of lines
// of constraints" that replace the thousands of lines of code prior
// equation-based synthesis tools required. The format follows the paper's
// examples and is "designed after the familiar SPICE notation":
//
//   - comment                      ; also "; comment"
//     .lib c2u                       ; pull in a builtin process library
//     .model mynmos nmos level=3 vto=0.8 kp=50u ...
//
//     .module amp (in+ in- out+ out- vdd vss bias)
//     m1 outn in+ tail tail nmos3 w=W1 l=L1
//     r1 a b 10k
//     .ends
//
//     .var W1 min=2u max=500u grid   ; log-grid (discrete) design variable
//     .var Vb min=0.2 max=4.8 cont   ; continuous design variable
//     .const Cl 1p                   ; named constant for expressions
//
//     .jig main
//     xamp in+ in- out+ out- nvdd nvss oa amp
//     vdd nvdd 0 5
//     vin in+ 0 0 ac 1
//     cl1 out+ 0 Cl
//     .pz tf v(out+,out-) vin        ; request a transfer function
//     .ends
//
//     .bias                          ; the large-signal bias circuit
//     xamp in+ in- out+ out- nvdd nvss oa amp
//     ...
//     .ends
//
//     .obj  adm 'db(dc_gain(tf))' good=60 bad=20
//     .spec ugf 'ugf(tf)/6.2832'    good=1Meg bad=10k
//     .region xamp.m1 sat margin=0.1 ; device operating-region constraint
//
// Element lines use SPICE conventions: R/C/L have two nodes and a value;
// V/I have two nodes, a DC value, and an optional "ac <mag>"; E/G have
// four nodes and a gain; F/H have two nodes, a controlling V-source name,
// and a gain; M has d g s b, a model name, and w=/l=/m= parameters; Q has
// c b e, a model, and an optional area=; X has nodes followed by the
// subcircuit name. Values are expressions: numbers with SPICE suffixes,
// design-variable references, or quoted forms like 'W1*2'. Lines
// beginning with "+" continue the previous line.
package netlist

import (
	"fmt"
	"strings"

	"astrx/internal/circuit"
	"astrx/internal/expr"
)

// DesignVar is one user-declared independent variable.
type DesignVar struct {
	Name string
	Min  float64
	Max  float64
	// Continuous marks voltage/current-like variables; geometry-like
	// variables default to a logarithmically spaced discrete grid, as
	// §V-A of the paper argues.
	Continuous bool
	// PointsPerDecade sets the log-grid density (0 → default 50).
	PointsPerDecade int
	// Init is an optional starting value (0 → midpoint of the range).
	Init float64
}

// Spec is one performance specification or objective.
type Spec struct {
	Name string
	// Expr is the parsed measurement expression.
	Expr expr.Node
	// ExprText preserves the source text for reporting.
	ExprText string
	// Good and Bad are the Nye-style normalization anchors. Good > Bad
	// means "bigger is better" (a ≥ constraint / maximize objective).
	Good, Bad float64
	// Objective marks .obj cards: optimized past Good rather than merely
	// constrained to reach it.
	Objective bool
}

// Maximize reports whether larger values of the spec are better.
func (s *Spec) Maximize() bool { return s.Good > s.Bad }

// Met reports whether v reaches the Good anchor: v ≥ Good for a spec
// whose larger values are better, v ≤ Good otherwise. NaN never meets.
func (s *Spec) Met(v float64) bool {
	if s.Maximize() {
		return v >= s.Good
	}
	return v <= s.Good
}

// TFReq is a `.pz` transfer-function request inside a jig.
type TFReq struct {
	Name   string // expression-visible name, e.g. "tf"
	OutPos string // positive output node
	OutNeg string // negative output node ("" for single-ended)
	Src    string // input source element name
}

// Jig is a test-jig circuit (or the bias circuit) at deck top level.
type Jig struct {
	Name     string
	Elements []*circuit.Element
	TFs      []*TFReq
}

// RegionReq is a `.region` device operating-region constraint.
type RegionReq struct {
	Device string // flat device path, e.g. "xamp.m1"
	Region string // "sat", "triode", or "on"
	Margin float64
}

// Deck is a parsed problem description.
type Deck struct {
	Title   string
	Modules map[string]*circuit.Subckt
	Models  map[string]*circuit.Model
	Vars    []*DesignVar
	Consts  map[string]float64
	Specs   []*Spec
	Jigs    []*Jig
	Bias    *Jig
	Regions []*RegionReq
	Corners []*Corner

	// Line accounting for Table-1-style reporting.
	NetlistLines int // module/jig/bias bodies, model and lib cards
	SynthLines   int // .var/.const/.spec/.obj/.pz/.region cards
}

// Var returns the named design variable or nil.
func (d *Deck) Var(name string) *DesignVar {
	for _, v := range d.Vars {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// Spec returns the named spec or nil.
func (d *Deck) Spec(name string) *Spec {
	for _, s := range d.Specs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Jig returns the named jig or nil.
func (d *Deck) Jig(name string) *Jig {
	for _, j := range d.Jigs {
		if j.Name == name {
			return j
		}
	}
	return nil
}

// Parse parses a deck from source text.
func Parse(src string) (*Deck, error) {
	d := &Deck{
		Modules: make(map[string]*circuit.Subckt),
		Models:  make(map[string]*circuit.Model),
		Consts:  make(map[string]float64),
	}
	p := &parser{deck: d}
	if err := p.run(src); err != nil {
		return nil, err
	}
	return d, nil
}

type parser struct {
	deck *Deck
	line int

	// current open block, if any
	module *circuit.Subckt
	jig    *Jig
	inBias bool
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("netlist: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

// logicalLines joins "+" continuations and strips comments, returning
// (text, source line number) pairs.
type logical struct {
	text string
	line int
}

func logicalLines(src string) []logical {
	raw := strings.Split(src, "\n")
	var out []logical
	for i, ln := range raw {
		// Strip comments.
		if idx := strings.IndexAny(ln, ";"); idx >= 0 {
			ln = ln[:idx]
		}
		trimmed := strings.TrimSpace(ln)
		if trimmed == "" || strings.HasPrefix(trimmed, "*") {
			continue
		}
		if strings.HasPrefix(trimmed, "+") && len(out) > 0 {
			out[len(out)-1].text += " " + strings.TrimSpace(trimmed[1:])
			continue
		}
		out = append(out, logical{text: trimmed, line: i + 1})
	}
	return out
}

// fields splits a logical line into tokens, honoring single quotes:
// a 'quoted expression' is one token (without the quotes), and so is a
// parameter with a quoted value, key='expr' (read as key=expr).
func fields(s string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(s) {
		switch {
		case s[i] == ' ' || s[i] == '\t':
			i++
		case s[i] == '\'':
			j := strings.IndexByte(s[i+1:], '\'')
			if j < 0 {
				return nil, fmt.Errorf("unterminated quote")
			}
			toks = append(toks, s[i+1:i+1+j])
			i += j + 2
		case s[i] == '(' || s[i] == ')':
			// Parenthesized port lists: treat as separators.
			i++
		default:
			j := i
			for j < len(s) && s[j] != ' ' && s[j] != '\t' && s[j] != '\'' && s[j] != '(' && s[j] != ')' {
				j++
			}
			tok := s[i:j]
			if j < len(s) && s[j] == '\'' && strings.HasSuffix(tok, "=") {
				k := strings.IndexByte(s[j+1:], '\'')
				if k < 0 {
					return nil, fmt.Errorf("unterminated quote")
				}
				tok += s[j+1 : j+1+k]
				j += k + 2
			}
			toks = append(toks, tok)
			i = j
		}
	}
	return toks, nil
}

func (p *parser) run(src string) error {
	for _, ll := range logicalLines(src) {
		p.line = ll.line
		toks, err := fields(ll.text)
		if err != nil {
			return p.errf("%v", err)
		}
		if len(toks) == 0 {
			continue
		}
		head := strings.ToLower(toks[0])
		if strings.HasPrefix(head, ".") {
			if err := p.card(head, toks); err != nil {
				return err
			}
			continue
		}
		// Element line: must be inside a module, jig, or bias block.
		elem, err := p.element(toks)
		if err != nil {
			return err
		}
		switch {
		case p.module != nil:
			p.module.Elements = append(p.module.Elements, elem)
		case p.jig != nil:
			p.jig.Elements = append(p.jig.Elements, elem)
		default:
			return p.errf("element %q outside any .module/.jig/.bias block", toks[0])
		}
		p.deck.NetlistLines++
	}
	if p.module != nil || p.jig != nil {
		return fmt.Errorf("netlist: unterminated block at end of input")
	}
	return nil
}
