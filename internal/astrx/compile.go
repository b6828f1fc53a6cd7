// Package astrx implements the ASTRX compiler: it translates a parsed
// problem description (netlist.Deck) into the cost function C(x) that
// OBLX minimizes. Where the original tool emitted C code to be compiled
// and linked against the solver, this implementation compiles the problem
// into closures and prebuilt data structures evaluated directly — the
// mathematics of C(x) is identical (see DESIGN.md §4).
//
// Compilation performs the steps §V-A of the paper enumerates:
//
//	(a) determine the independent variables x — the user's design
//	    variables plus, per the relaxed-dc formulation, every bias-
//	    circuit node voltage that is not fixed by a chain of voltage
//	    sources (found by tree-link analysis);
//	(b) generate the large-signal equivalent bias circuit, expanding
//	    each device's parasitic series resistances into internal nodes;
//	(c) write the KCL constraint for each free node;
//	(d) generate the linearized small-signal AWE circuit for every test
//	    jig, sharing device operating points with the bias circuit;
//	(e) generate a cost term per performance specification; and
//	(f) assemble everything into an evaluatable cost function.
package astrx

import (
	"fmt"
	"sort"

	"astrx/internal/anneal"
	"astrx/internal/circuit"
	"astrx/internal/devices"
	"astrx/internal/expr"
	"astrx/internal/netlist"
)

// DevKind distinguishes device instance families.
type DevKind int

// Device instance kinds.
const (
	DevMOS DevKind = iota
	DevBJT
)

// DevInst is one nonlinear device instance shared between the bias
// circuit and the small-signal jigs (matched by flattened name).
type DevInst struct {
	Name string
	Kind DevKind

	MOS *MOSRef // set for DevMOS
	BJT *BJTRef // set for DevBJT

	// Elem is the original element (geometry expressions etc.).
	Elem *circuit.Element
}

// MOSRef binds a MOS element to its model and (bias-circuit) terminals.
type MOSRef struct {
	Model devices.MOSModel
	// D, G, S, B are the channel terminal node names in the bias circuit
	// after series-resistance expansion (D/S may be internal nodes).
	D, G, S, B string
	// RD, RS are the expanded series resistances (0 = none).
	RD, RS float64
}

// BJTRef binds a BJT element to its model and bias terminals.
type BJTRef struct {
	Model   *devices.BJTModel
	C, B, E string
}

// BiasCkt is the compiled large-signal bias circuit.
type BiasCkt struct {
	// Net holds the flattened elements (linear ones plus the original
	// M/Q devices; series resistances appear as explicit R elements).
	Net *circuit.Netlist
	// Devices are the nonlinear instances, by flattened name.
	Devices map[string]*DevInst
	// DevOrder lists device names deterministically.
	DevOrder []string
	// Determined is the evaluation program for source-fixed nodes.
	Determined []DetermStep
	// FreeNodes are the node names whose voltages join x (variable order
	// matches the tail of Compiled.Vars).
	FreeNodes []string
	// VSources lists independent voltage sources, for power().
	VSources []*circuit.Element
}

// DetermStep computes one determined node: V[Node] = V[From] + Sign·value
// where value is the source element's DC expression ("" From means
// ground). Steps are ordered so From is always already known.
type DetermStep struct {
	Node string
	From string
	Sign float64
	Src  *circuit.Element
}

// JigCkt is one compiled small-signal test jig.
type JigCkt struct {
	Name string
	// Linear holds the jig's linear elements (flattened, with device
	// series resistances); devices are replaced per evaluation by their
	// small-signal models.
	Linear []*circuit.Element
	// Devices are the jig's device instances, each resolved to the bias
	// instance providing its operating point.
	Devices []*JigDev
	// TFs are the transfer-function requests.
	TFs []*netlist.TFReq
	// AllNodes is the union of node names (for gmin insertion).
	AllNodes []string
}

// JigDev is a jig device occurrence bound to its bias twin.
type JigDev struct {
	Inst *DevInst // bias-circuit instance (operating-point source)
	// Terminal node names within the jig (post series expansion).
	T [4]string // MOS: d g s b; BJT: c b e ""
}

// Stats is the Table-1-style report of a compilation.
type Stats struct {
	NetlistLines int // deck netlist/model lines
	SynthLines   int // deck synthesis-specific lines
	UserVars     int // user-supplied variables
	NodeVoltVars int // node voltages added by the relaxed-dc formulation
	CostTerms    int // terms in C(x)
	EstCLines    int // synthetic "lines of C" estimate (see DESIGN.md §4)
	BiasNodes    int
	BiasElements int
	JigCircuits  []circuit.Stats // one per jig (small-signal size)
}

// Compiled is the output of Compile: everything needed to evaluate C(x).
type Compiled struct {
	Deck *netlist.Deck

	// VarList lists the annealing variables: the user's first, then one
	// per free bias node voltage.
	VarList []anneal.VarSpec
	NUser   int

	Bias *BiasCkt
	Jigs []*JigCkt

	// Weights holds the (adaptive) weight state for cost assembly.
	Weights *Weights

	// Options for cost evaluation.
	Opt CostOptions

	// plan is the precompiled evaluation program (plan.go); ws is the
	// lazily created shared workspace behind Cost (workspace.go).
	plan *evalPlan
	ws   *EvalWorkspace
}

// CostOptions tunes cost evaluation.
type CostOptions struct {
	// AWEOrder is the requested reduced-model order (0 → awe default).
	AWEOrder int
	// Gmin is the conductance tied from every small-signal node to
	// ground so AWE's G matrix is never singular (0 → 1e-12 S).
	Gmin float64
	// KCLTolAbs is τ_abs in the paper's eq. (3) (0 → 1e-9 A).
	KCLTolAbs float64
	// FailCost is returned when an evaluation cannot complete (0 → 1e9).
	FailCost float64
}

func (o *CostOptions) defaults() {
	if o.AWEOrder == 0 {
		o.AWEOrder = 8
	}
	if o.Gmin == 0 {
		o.Gmin = 1e-12
	}
	if o.KCLTolAbs == 0 {
		o.KCLTolAbs = 1e-9
	}
	if o.FailCost == 0 {
		o.FailCost = 1e9
	}
}

// Compile translates a deck into an evaluatable synthesis problem.
func Compile(deck *netlist.Deck, opt CostOptions) (*Compiled, error) {
	opt.defaults()
	if deck.Bias == nil {
		return nil, fmt.Errorf("astrx: deck has no .bias circuit")
	}
	if len(deck.Jigs) == 0 {
		return nil, fmt.Errorf("astrx: deck has no .jig circuits")
	}
	if len(deck.Vars) == 0 {
		return nil, fmt.Errorf("astrx: deck declares no .var design variables")
	}

	c := &Compiled{Deck: deck, Opt: opt}

	// (a) user variables.
	for _, v := range deck.Vars {
		c.VarList = append(c.VarList, anneal.VarSpec{
			Name: v.Name, Min: v.Min, Max: v.Max,
			Continuous: v.Continuous, PointsPerDecade: v.PointsPerDecade,
			Init: v.Init,
		})
	}
	c.NUser = len(c.VarList)

	// (b) + (c): the bias circuit.
	bias, err := compileBias(deck, opt)
	if err != nil {
		return nil, err
	}
	c.Bias = bias

	// Node-voltage variables: continuous, ranged by the supply estimate.
	lo, hi := bias.voltageBounds(c)
	for _, n := range bias.FreeNodes {
		c.VarList = append(c.VarList, anneal.VarSpec{
			Name: "v(" + n + ")", Min: lo, Max: hi, Continuous: true,
		})
	}

	// (d): the small-signal jigs.
	for _, j := range deck.Jigs {
		jc, err := compileJig(deck, j, bias)
		if err != nil {
			return nil, err
		}
		c.Jigs = append(c.Jigs, jc)
	}

	// Validate .region cards and spec references early.
	for _, r := range deck.Regions {
		if _, ok := bias.Devices[r.Device]; !ok {
			return nil, fmt.Errorf("astrx: .region references unknown device %q", r.Device)
		}
	}

	// (e)+(f): weights for the cost terms.
	c.Weights = newWeights(deck, bias)

	// (g): the compiled evaluation plan for the zero-allocation hot path.
	c.plan = buildPlan(c)
	return c, nil
}

// voltageBounds estimates the plausible node-voltage range from the
// determined (source-driven) voltages at the variable midpoint, extended
// by one volt each way.
func (b *BiasCkt) voltageBounds(c *Compiled) (lo, hi float64) {
	lo, hi = 0, 0
	env := midpointEnv(c)
	v := map[string]float64{circuit.Ground: 0}
	for _, st := range b.Determined {
		base := 0.0
		if st.From != "" {
			base = v[st.From]
		}
		val, err := st.Src.EvalValue(env)
		if err != nil {
			val = 0
		}
		v[st.Node] = base + st.Sign*val
	}
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo - 1, hi + 1
}

// midpointEnv builds an expression environment with every design variable
// at its starting value (used only for compile-time estimation).
func midpointEnv(c *Compiled) expr.MapEnv {
	vals := make(expr.MapEnv, c.NUser+len(c.Deck.Consts))
	for i := 0; i < c.NUser; i++ {
		vals[c.VarList[i].Name] = c.VarList[i].Start()
	}
	for k, v := range c.Deck.Consts {
		vals[k] = v
	}
	return vals
}

// Stats produces the Table-1 report for this compilation.
func (c *Compiled) Stats() Stats {
	s := Stats{
		NetlistLines: c.Deck.NetlistLines,
		SynthLines:   c.Deck.SynthLines,
		UserVars:     c.NUser,
		NodeVoltVars: len(c.Bias.FreeNodes),
	}
	bs := c.Bias.Net.Stats()
	s.BiasNodes = bs.Nodes
	s.BiasElements = bs.Elements

	// Cost terms: one per objective/spec, one per region constraint, one
	// per KCL node.
	s.CostTerms = len(c.Deck.Specs) + len(c.Deck.Regions) + len(c.Bias.FreeNodes)
	for _, j := range c.Jigs {
		// Each device contributes its small-signal elements as terms the
		// generated code would have contained.
		s.CostTerms += 3 * len(j.Devices)
	}
	// The original ASTRX emitted roughly 15 lines of C per cost term
	// plus a fixed harness; this synthetic estimate keeps Table 1's
	// "Lines of C" column comparable in spirit.
	s.EstCLines = 600 + 13*s.CostTerms

	for _, j := range c.Jigs {
		nl := &circuit.Netlist{Elements: j.Linear}
		st := nl.Stats()
		// Devices expand to ~5 elements (gm, gmbs/ro, caps) each.
		st.Elements += 5 * len(j.Devices)
		s.JigCircuits = append(s.JigCircuits, st)
	}
	return s
}

// sortedNames returns map keys in deterministic order.
func sortedNames[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
