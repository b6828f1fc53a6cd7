// Package circuit defines the netlist object model shared by the whole
// system: elements, device model cards, hierarchical subcircuits, and
// flat netlists with node indexing. The vocabulary follows SPICE — the
// ASTRX input language (package netlist) is "designed after the familiar
// SPICE notation", as the paper puts it.
package circuit

import (
	"fmt"
	"sort"
	"strings"

	"astrx/internal/expr"
)

// Kind identifies an element type by its SPICE prefix letter.
type Kind int

// Element kinds.
const (
	KindR Kind = iota // resistor
	KindC             // capacitor
	KindL             // inductor
	KindV             // independent voltage source
	KindI             // independent current source
	KindE             // voltage-controlled voltage source
	KindG             // voltage-controlled current source
	KindF             // current-controlled current source
	KindH             // current-controlled voltage source
	KindM             // MOSFET
	KindQ             // BJT
	KindX             // subcircuit instance
)

var kindNames = map[Kind]string{
	KindR: "R", KindC: "C", KindL: "L", KindV: "V", KindI: "I",
	KindE: "E", KindG: "G", KindF: "F", KindH: "H", KindM: "M",
	KindQ: "Q", KindX: "X",
}

// String returns the SPICE prefix letter for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindOf maps an element name's first letter to its Kind.
func KindOf(name string) (Kind, bool) {
	if name == "" {
		return 0, false
	}
	switch strings.ToLower(name)[0] {
	case 'r':
		return KindR, true
	case 'c':
		return KindC, true
	case 'l':
		return KindL, true
	case 'v':
		return KindV, true
	case 'i':
		return KindI, true
	case 'e':
		return KindE, true
	case 'g':
		return KindG, true
	case 'f':
		return KindF, true
	case 'h':
		return KindH, true
	case 'm':
		return KindM, true
	case 'q':
		return KindQ, true
	case 'x':
		return KindX, true
	}
	return 0, false
}

// NodeCount returns how many connection nodes an element of kind k has in
// its netlist line (X instances vary and return -1).
func (k Kind) NodeCount() int {
	switch k {
	case KindR, KindC, KindL, KindV, KindI, KindF, KindH:
		return 2
	case KindE, KindG:
		return 4 // out+, out-, ctrl+, ctrl-
	case KindM:
		return 4 // d, g, s, b
	case KindQ:
		return 3 // c, b, e
	}
	return -1
}

// Element is one netlist element. Values are expression trees so that
// device geometries and passive values may reference the synthesis
// variables (e.g. W, L, I in the paper's §IV example).
type Element struct {
	Name  string   // instance name, lower case, e.g. "m1"
	Kind  Kind     //
	Nodes []string // connection nodes in SPICE order

	// Value is the primary value: resistance, capacitance, inductance,
	// DC value for V/I, gain for E/G/F/H. Nil for M/Q/X.
	Value expr.Node

	// ACMag is the AC stimulus magnitude for V/I sources (0 = none).
	ACMag float64

	// CtrlName names the controlling V source for F/H elements.
	CtrlName string

	// Model names the .model card for M/Q devices.
	Model string

	// Params holds named device parameters (w, l, m for MOS; area for
	// BJT) as expressions.
	Params map[string]expr.Node

	// Sub names the subcircuit definition for X instances.
	Sub string
}

// Param returns the named parameter expression or nil.
func (e *Element) Param(name string) expr.Node {
	if e.Params == nil {
		return nil
	}
	return e.Params[strings.ToLower(name)]
}

// EvalValue evaluates the element's primary value against env.
func (e *Element) EvalValue(env expr.Env) (float64, error) {
	if e.Value == nil {
		return 0, fmt.Errorf("circuit: element %s has no value", e.Name)
	}
	v, err := e.Value.Eval(env)
	if err != nil {
		return 0, fmt.Errorf("circuit: element %s value: %w", e.Name, err)
	}
	return v, nil
}

// EvalParam evaluates a named parameter, returning def when absent.
func (e *Element) EvalParam(name string, def float64, env expr.Env) (float64, error) {
	return e.EvalParamNode(name, e.Param(name), def, env)
}

// EvalParamNode is EvalParam for a parameter expression p already looked
// up with Param(name), so a caller that evaluates it repeatedly does the
// name lookup once.
func (e *Element) EvalParamNode(name string, p expr.Node, def float64, env expr.Env) (float64, error) {
	if p == nil {
		return def, nil
	}
	v, err := p.Eval(env)
	if err != nil {
		return 0, fmt.Errorf("circuit: element %s param %s: %w", e.Name, name, err)
	}
	return v, nil
}

// Model is a device model card (.model name type level=… params…).
type Model struct {
	Name   string
	Type   string // nmos, pmos, npn, pnp
	Level  int    // 1, 3, or 4 (BSIM-style); BJTs use Gummel-Poon
	Params map[string]float64
}

// P returns a model parameter with a default.
func (m *Model) P(name string, def float64) float64 {
	if v, ok := m.Params[strings.ToLower(name)]; ok {
		return v
	}
	return def
}

// Subckt is a hierarchical circuit definition (.module card in ASTRX
// decks — the circuit under design is itself a Subckt).
type Subckt struct {
	Name     string
	Ports    []string
	Elements []*Element
}

// Netlist is a flat circuit: every X instance expanded, all names
// path-qualified ("xamp.m1"), nodes global strings with "0" as ground.
type Netlist struct {
	Title    string
	Elements []*Element
	Models   map[string]*Model

	nodeIndex map[string]int
	nodeNames []string
}

// Ground is the name of the reference node.
const Ground = "0"

// IsGround reports whether a node name refers to the reference node.
func IsGround(n string) bool { return n == Ground || strings.EqualFold(n, "gnd") }

// BuildIndex assigns a dense index to every non-ground node. It must be
// called after the element list is final and before NodeIndex/NodeName.
func (n *Netlist) BuildIndex() {
	n.nodeIndex = make(map[string]int)
	n.nodeNames = n.nodeNames[:0]
	add := func(node string) {
		if IsGround(node) {
			return
		}
		if _, ok := n.nodeIndex[node]; !ok {
			n.nodeIndex[node] = len(n.nodeNames)
			n.nodeNames = append(n.nodeNames, node)
		}
	}
	for _, e := range n.Elements {
		for _, nd := range e.Nodes {
			add(nd)
		}
	}
}

// NumNodes returns the number of non-ground nodes (after BuildIndex).
func (n *Netlist) NumNodes() int { return len(n.nodeNames) }

// NodeIndex returns the dense index of a node, or -1 for ground; the
// second result is false for unknown nodes.
func (n *Netlist) NodeIndex(name string) (int, bool) {
	if IsGround(name) {
		return -1, true
	}
	i, ok := n.nodeIndex[name]
	return i, ok
}

// NodeName returns the name for a dense node index.
func (n *Netlist) NodeName(i int) string {
	if i < 0 {
		return Ground
	}
	return n.nodeNames[i]
}

// NodeNames returns all non-ground node names in index order.
func (n *Netlist) NodeNames() []string { return n.nodeNames }

// Element returns the element with the given (path-qualified) name.
func (n *Netlist) Element(name string) *Element {
	for _, e := range n.Elements {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// Stats summarizes a netlist for Table-1-style reporting.
type Stats struct {
	Nodes    int // non-ground nodes
	Elements int
}

// Stats computes node/element counts (BuildIndex is invoked if needed).
func (n *Netlist) Stats() Stats {
	if n.nodeIndex == nil {
		n.BuildIndex()
	}
	return Stats{Nodes: n.NumNodes(), Elements: len(n.Elements)}
}

// Flatten expands the element list of a top-level circuit, resolving X
// instances against subckts. Instance-local nodes become "<path>.<node>";
// ports are replaced by the caller's nodes; element names gain the
// instance path prefix. Parameter expressions are shared (not cloned):
// they reference global design variables by name.
func Flatten(title string, elems []*Element, subckts map[string]*Subckt, models map[string]*Model) (*Netlist, error) {
	out := &Netlist{Title: title, Models: models}
	if err := flattenInto(out, "", elems, nil, subckts); err != nil {
		return nil, err
	}
	out.BuildIndex()
	return out, nil
}

func flattenInto(out *Netlist, path string, elems []*Element, portMap map[string]string, subckts map[string]*Subckt) error {
	mapNode := func(local string) string {
		if IsGround(local) {
			return Ground
		}
		if portMap != nil {
			if g, ok := portMap[local]; ok {
				return g
			}
		}
		if path == "" {
			return local
		}
		return path + "." + local
	}
	qual := func(name string) string {
		if path == "" {
			return name
		}
		return path + "." + name
	}
	for _, e := range elems {
		if e.Kind == KindX {
			sub, ok := subckts[e.Sub]
			if !ok {
				return fmt.Errorf("circuit: instance %s references unknown subcircuit %q", qual(e.Name), e.Sub)
			}
			if len(e.Nodes) != len(sub.Ports) {
				return fmt.Errorf("circuit: instance %s has %d nodes, subcircuit %s has %d ports",
					qual(e.Name), len(e.Nodes), sub.Name, len(sub.Ports))
			}
			pm := make(map[string]string, len(sub.Ports))
			for i, p := range sub.Ports {
				pm[p] = mapNode(e.Nodes[i])
			}
			if err := flattenInto(out, qual(e.Name), sub.Elements, pm, subckts); err != nil {
				return err
			}
			continue
		}
		fe := &Element{
			Name:     qual(e.Name),
			Kind:     e.Kind,
			Nodes:    make([]string, len(e.Nodes)),
			Value:    e.Value,
			ACMag:    e.ACMag,
			CtrlName: e.CtrlName,
			Model:    e.Model,
			Params:   e.Params,
			Sub:      e.Sub,
		}
		if e.CtrlName != "" {
			fe.CtrlName = qual(e.CtrlName)
			if portMap == nil && path == "" {
				fe.CtrlName = e.CtrlName
			}
		}
		for i, nd := range e.Nodes {
			fe.Nodes[i] = mapNode(nd)
		}
		out.Elements = append(out.Elements, fe)
	}
	return nil
}

// SortedModelNames returns model names in deterministic order, for
// reporting.
func SortedModelNames(models map[string]*Model) []string {
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
