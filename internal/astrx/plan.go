package astrx

import (
	"fmt"
	"strings"

	"astrx/internal/circuit"
	"astrx/internal/devices"
	"astrx/internal/expr"
	"astrx/internal/netlist"
)

// This file compiles the evaluation plan: the fixed index tables and
// stamp programs that let an EvalWorkspace replay a full cost evaluation
// with no map construction, no string formatting, and no per-evaluation
// allocation. The plan is pure data — every name lookup, node ordering
// decision, and matrix coordinate is resolved once at Compile time; the
// per-move hot path (workspace.go) only reads it.
//
// The plan reproduces internal/bench/testdata/eval_golden.json, values
// recorded from the string-keyed map evaluator it replaced. Matching them
// to 1e-12 requires replaying that evaluator's floating-point operations
// in the same order, including its quirks: conductances stamped as
// 1/(1/g) (the recorded path emitted a resistor with value 1/g and mna
// recomputed the conductance), element skip rules (zero-valued stamps
// and self-capacitances are not emitted), and the map-literal overwrite
// semantics of the BJT Jacobian when terminals are tied. Comments that
// cite the golden file mark the places this ordering constraint binds.

// constInit writes one .const value into the workspace value table. It
// is applied after the design vector prefix each evaluation so a const
// that shadows a design variable wins, as the golden file's fill order
// requires.
type constInit struct {
	idx int
	v   float64
}

// detStep computes one determined node voltage:
// nodeV[node] = nodeV[from] + sign·value(src); from = -1 reads 0.
type detStep struct {
	node, from int
	sign       float64
	src        *circuit.Element
}

// devPlan evaluates one nonlinear device's operating point.
type devPlan struct {
	name string
	kind DevKind
	elem *circuit.Element
	mos  *MOSRef
	bjt  *BJTRef
	// t holds bias node slots: MOS d g s b; BJT c b e -1.
	t [4]int
	// op indexes the workspace mosOps (DevMOS) or bjtOps (DevBJT) array.
	op int
	// w, l, m are a MOS instance's geometry expressions (nil: absent).
	w, l, m expr.Node
}

// qjacSel selects one surviving column of the BJT Jacobian stamp. The
// golden-file evaluator built map literals keyed by terminal node name
// in the order base, emitter, collector; a duplicate key (tied
// terminals) keeps the last coefficient. coef selects position 0/1/2 in
// that literal order.
type qjacSel struct {
	col  int // node slot
	coef int
}

// kclOp accumulates one element's DC current contributions.
type kclOp struct {
	kind circuit.Kind
	e    *circuit.Element
	n    [4]int
	// dev indexes mosOps (KindM) or bjtOps (KindQ); -1 reads a zero
	// operating point, as in the golden file.
	dev int
	// qsel is the Jacobian column-selection program for KindQ.
	qsel []qjacSel
}

// devParamRef resolves a dotted spec identifier such as "xamp.m1.gm".
type devParamRef struct {
	mos   bool
	op    int
	param string
}

// powerOther is a previously peeled source's contribution at a node.
type powerOther struct {
	src  int
	sign float64
}

// powerContrib is one element's current contribution in the power()
// peeling. touches is the first terminal index matching the candidate
// node, the first-match scan the golden file was recorded with.
type powerContrib struct {
	kind    circuit.Kind
	e       *circuit.Element
	n       [4]int
	dev     int
	touches int
}

// powerStep recovers one voltage source's branch current.
type powerStep struct {
	src    int
	negate bool // candidate node was the source's + terminal
	others []powerOther
	conts  []powerContrib
}

// linOp replays one jig linear element through the MNA stamper.
type linOp struct {
	kind circuit.Kind
	e    *circuit.Element
	n    [4]int
	br   int // own branch row (V/E/H/L), else -1
	cb   int // controlling branch row (F/H), else -1
	// err surfaces a compile-detected problem (unknown controlling
	// source) at evaluation time, where the golden file records it.
	err error
}

// jigDevOp stamps one device's small-signal model into a jig.
type jigDevOp struct {
	mos bool
	op  int
	// Node slots within the jig: MOS d g s b (pre-swap); BJT c b e -1.
	d, g, s, b int
}

// tfPlan is one precompiled transfer-function request.
type tfPlan struct {
	name  string
	b     []float64 // excitation vector (static: ACMag only)
	ip    int       // output + unknown index
	in    int       // output − unknown index, -1 for single-ended
	q     int       // clamped AWE order
	tfIdx int
	err   error
	// dcOnly marks a transfer function that no spec reads through
	// anything but dc_gain, which returns the exact zeroth moment, so no
	// spec ever reads its model. Every evaluation solves for μ0 alone;
	// the model is fitted when something reads it (EvalWorkspace.model),
	// which for a dcOnly transfer function is only a reader outside the
	// cost function.
	dcOnly bool
}

// tfRef locates a transfer-function slot's plan and the jig whose engine
// solves it (jigPlan.mat).
type tfRef struct {
	tp  *tfPlan
	mat int
}

// jigPlan is the compiled stamp program for one test jig. Node slots
// are positions in JigCkt.AllNodes (sorted, ground excluded); the
// runtime netlist emits the gmin ties first so the MNA first-appearance
// node order matches this canonical order.
type jigPlan struct {
	name   string
	nNodes int
	size   int
	gstamp float64 // gmin conductance as mna computes it: 1/(1/gmin)
	lin    []linOp
	devs   []jigDevOp
	tfs    []tfPlan
	// mat indexes the jig that stamps and factors the matrix this jig's
	// transfer functions are solved against: the jig itself, or an
	// earlier jig with the same stamp program (shareMatrices).
	mat int
}

// evalPlan is the complete compiled evaluation program.
type evalPlan struct {
	nVals  int
	valIdx map[string]int
	consts []constInit

	nNodes   int
	nodeIdx  map[string]int
	freeIdx  []int // free-variable position -> node slot
	freeSlot []int // node slot -> free-variable position or -1
	det      []detStep

	devs       []devPlan
	nMOS, nBJT int

	kcl []kclOp

	// regions maps each .region card to a mosOps index (-1 = skip).
	regions []int

	// devRefs resolves dotted spec identifiers; vIdx resolves v(node)
	// reads with the golden file's NodeV membership (ground + free +
	// determined nodes only; -1 reads 0).
	devRefs map[string]devParamRef
	vIdx    map[string]int

	tfIdx map[string]int
	nTFs  int
	// tfRefs is indexed by transfer-function slot.
	tfRefs []tfRef

	vsrcs    []*circuit.Element
	power    []powerStep
	powerErr error

	jigs []*jigPlan
}

type devIdxEntry struct {
	kind DevKind
	op   int
}

// buildPlan compiles the evaluation plan for a compiled problem. It
// never fails: deck conditions that only show at evaluation time in the
// golden file are recorded in the plan and surfaced per evaluation.
func buildPlan(c *Compiled) *evalPlan {
	p := &evalPlan{
		valIdx:  make(map[string]int, c.NUser+len(c.Deck.Consts)),
		nodeIdx: make(map[string]int),
		devRefs: make(map[string]devParamRef),
		vIdx:    make(map[string]int),
		tfIdx:   make(map[string]int),
		vsrcs:   c.Bias.VSources,
	}

	// Value table: user variables by position, then consts (a const
	// sharing a variable's name reuses its slot and overwrites it each
	// evaluation, matching the golden file's fill order).
	for i := 0; i < c.NUser; i++ {
		p.valIdx[c.VarList[i].Name] = i
	}
	p.nVals = c.NUser
	for _, k := range sortedNames(c.Deck.Consts) {
		idx, ok := p.valIdx[k]
		if !ok {
			idx = p.nVals
			p.nVals++
			p.valIdx[k] = idx
		}
		p.consts = append(p.consts, constInit{idx: idx, v: c.Deck.Consts[k]})
	}

	slot := func(name string) int {
		if name == "" || circuit.IsGround(name) {
			return -1
		}
		if i, ok := p.nodeIdx[name]; ok {
			return i
		}
		i := p.nNodes
		p.nNodes++
		p.nodeIdx[name] = i
		return i
	}

	// Node slots: free nodes first (their position in the x tail), then
	// determined nodes, then everything the bias net and devices touch.
	for _, n := range c.Bias.FreeNodes {
		p.freeIdx = append(p.freeIdx, slot(n))
	}
	for _, stp := range c.Bias.Determined {
		from := -1
		if stp.From != "" {
			from = slot(stp.From)
		}
		p.det = append(p.det, detStep{
			node: slot(stp.Node), from: from, sign: stp.Sign, src: stp.Src,
		})
	}
	for _, e := range c.Bias.Net.Elements {
		for _, nd := range e.Nodes {
			slot(nd)
		}
	}

	// Devices in deterministic order; terminal names come from the
	// bias-side references (series expansion may have renamed them).
	devIdx := make(map[string]devIdxEntry, len(c.Bias.DevOrder))
	for _, name := range c.Bias.DevOrder {
		d := c.Bias.Devices[name]
		dp := devPlan{name: name, kind: d.Kind, elem: d.Elem, mos: d.MOS, bjt: d.BJT}
		if d.Kind == DevMOS {
			dp.t = [4]int{slot(d.MOS.D), slot(d.MOS.G), slot(d.MOS.S), slot(d.MOS.B)}
			dp.op = p.nMOS
			p.nMOS++
			dp.w, dp.l, dp.m = d.Elem.Param("w"), d.Elem.Param("l"), d.Elem.Param("m")
		} else {
			dp.t = [4]int{slot(d.BJT.C), slot(d.BJT.B), slot(d.BJT.E), -1}
			dp.op = p.nBJT
			p.nBJT++
		}
		devIdx[name] = devIdxEntry{kind: d.Kind, op: dp.op}
		p.devs = append(p.devs, dp)
	}

	p.freeSlot = make([]int, p.nNodes)
	for i := range p.freeSlot {
		p.freeSlot[i] = -1
	}
	for i, s := range p.freeIdx {
		if s >= 0 {
			p.freeSlot[s] = i
		}
	}

	// KCL accumulation program (shared by the Jacobian replay).
	for _, e := range c.Bias.Net.Elements {
		switch e.Kind {
		case circuit.KindR, circuit.KindI, circuit.KindG, circuit.KindM, circuit.KindQ:
			op := kclOp{kind: e.Kind, e: e, dev: -1}
			for k, nd := range e.Nodes {
				if k < 4 {
					op.n[k] = slot(nd)
				}
			}
			for k := len(e.Nodes); k < 4; k++ {
				op.n[k] = -1
			}
			if di, ok := devIdx[e.Name]; ok {
				switch {
				case e.Kind == circuit.KindM && di.kind == DevMOS:
					op.dev = di.op
				case e.Kind == circuit.KindQ && di.kind == DevBJT:
					op.dev = di.op
				}
			}
			if e.Kind == circuit.KindQ {
				op.qsel = qJacSelection(op.n[1], op.n[2], op.n[0])
			}
			p.kcl = append(p.kcl, op)
		}
	}

	// Region constraints resolve to MOS operating-point indices.
	for _, r := range c.Deck.Regions {
		idx := -1
		if di, ok := devIdx[r.Device]; ok && di.kind == DevMOS {
			idx = di.op
		}
		p.regions = append(p.regions, idx)
	}

	// Dotted spec identifiers: resolve the device and validate the
	// parameter name once (both are value-independent).
	for _, s := range c.Deck.Specs {
		expr.Walk(s.Expr, func(n expr.Node) {
			v, ok := n.(*expr.Var)
			if !ok {
				return
			}
			name := v.Name
			if _, ok := p.valIdx[name]; ok {
				return
			}
			if _, ok := p.devRefs[name]; ok {
				return
			}
			i := strings.LastIndex(name, ".")
			if i <= 0 {
				return
			}
			dev, param := strings.ToLower(name[:i]), strings.ToLower(name[i+1:])
			di, ok := devIdx[dev]
			if !ok {
				return
			}
			if di.kind == DevMOS {
				if _, ok := mosParam(devices.MOSOp{}, param); ok {
					p.devRefs[name] = devParamRef{mos: true, op: di.op, param: param}
				}
			} else {
				if _, ok := bjtParam(devices.BJTOp{}, param); ok {
					p.devRefs[name] = devParamRef{mos: false, op: di.op, param: param}
				}
			}
		})
	}

	// v(node) membership: exactly the NodeV keys of the golden file.
	p.vIdx[circuit.Ground] = -1
	for i, n := range c.Bias.FreeNodes {
		p.vIdx[n] = p.freeIdx[i]
	}
	for i, stp := range c.Bias.Determined {
		p.vIdx[stp.Node] = p.det[i].node
	}

	// Transfer-function slots, in jig declaration order (a duplicate
	// name resolves to the last request, as in the golden file).
	for _, j := range c.Jigs {
		for _, req := range j.TFs {
			p.tfIdx[req.Name] = p.nTFs
			p.nTFs++
		}
	}

	p.buildPowerPlan(c, slot, devIdx)
	p.linkSeriesResistors(c)

	fitted := fittedTFs(c.Deck.Specs)
	tfSlot := 0
	for _, j := range c.Jigs {
		p.jigs = append(p.jigs, buildJigPlan(c, j, devIdx, fitted, &tfSlot))
	}
	p.shareMatrices()
	p.tfRefs = make([]tfRef, p.nTFs)
	for _, jp := range p.jigs {
		for i := range jp.tfs {
			tp := &jp.tfs[i]
			p.tfRefs[tp.tfIdx] = tfRef{tp: tp, mat: jp.mat}
		}
	}
	return p
}

// linkSeriesResistors points every parasitic series resistor, in the
// bias circuit and in the jigs, at its device's geometry in the
// workspace, so it reads the W and M the device evaluation computed.
// Flattening shares an element's parameter expressions between every
// instantiation of its module, so a jig's resistor holds the very
// expressions of its bias twin; one that does not stays unlinked and
// evaluates its own.
func (p *evalPlan) linkSeriesResistors(c *Compiled) {
	mos := make(map[string]*devPlan, p.nMOS)
	for i := range p.devs {
		if d := &p.devs[i]; d.kind == DevMOS {
			mos[d.name] = d
		}
	}
	link := func(elems []*circuit.Element) {
		for _, e := range elems {
			s, ok := e.Value.(*seriesRExpr)
			if !ok {
				continue
			}
			if d, ok := mos[s.dev]; ok && s.w == d.w && s.m == d.m {
				s.mos, s.linked = d.op, true
			}
		}
	}
	link(c.Bias.Net.Elements)
	for _, j := range c.Jigs {
		link(j.Linear)
	}
}

// fittedTFs names the transfer functions some spec or objective reads
// through a measure other than dc_gain, at any depth of its expression.
// Every other transfer function is dcOnly.
func fittedTFs(specs []*netlist.Spec) map[string]bool {
	fitted := make(map[string]bool)
	for _, s := range specs {
		expr.Walk(s.Expr, func(n expr.Node) {
			// Measurements name their transfer function in the first
			// argument, as a bare identifier.
			c, ok := n.(*expr.Call)
			if !ok || !netlist.IsTFMeasure(c.Fn) || c.Fn == "dc_gain" || len(c.Args) == 0 {
				return
			}
			if v, ok := c.Args[0].(*expr.Var); ok {
				fitted[v.Name] = true
			}
		})
	}
	return fitted
}

// shareMatrices points every jig whose stamp program equals an earlier
// jig's at that jig's matrix. Such a jig is neither stamped nor
// factored: its transfer functions run on the earlier jig's engine,
// whose G, LU factors and solves are the ones its own would have had,
// bit for bit.
func (p *evalPlan) shareMatrices() {
	for i, jp := range p.jigs {
		jp.mat = i
		for k := 0; k < i; k++ {
			if p.jigs[k].mat == k && sameStamps(p.jigs[k], jp) {
				jp.mat = k
				break
			}
		}
	}
}

// sameStamps reports whether two jig plans stamp the same (G, C) pair:
// same size, gmin tie, element kinds, node and branch slots, value
// expressions and device ops. V sources compare without their values,
// because a V source stamps only incidence, and I sources stamp nothing;
// the excitation lives in each transfer function's input vector.
func sameStamps(a, b *jigPlan) bool {
	if a.nNodes != b.nNodes || a.size != b.size || a.gstamp != b.gstamp ||
		len(a.lin) != len(b.lin) || len(a.devs) != len(b.devs) {
		return false
	}
	for i := range a.lin {
		x, y := &a.lin[i], &b.lin[i]
		if x.kind != y.kind {
			return false
		}
		if x.kind == circuit.KindI {
			continue
		}
		if x.kind != circuit.KindV && exprText(x.e.Value) != exprText(y.e.Value) {
			return false
		}
		if x.n != y.n || x.br != y.br || x.cb != y.cb || (x.err == nil) != (y.err == nil) {
			return false
		}
	}
	for i := range a.devs {
		if a.devs[i] != b.devs[i] {
			return false
		}
	}
	return true
}

// exprText renders a value expression for comparison. Binary.String
// parenthesizes fully, so equal text means equal trees.
func exprText(n expr.Node) string {
	if n == nil {
		return ""
	}
	return n.String()
}

// qJacSelection replicates the golden-file BJT Jacobian map literals keyed
// (base, emitter, collector): duplicate keys keep the last coefficient;
// surviving entries are emitted in first-occurrence order (stamp order
// between distinct matrix cells does not affect the accumulated sums).
func qJacSelection(bN, eN, cN int) []qjacSel {
	cols := [3]int{bN, eN, cN}
	sel := make([]qjacSel, 0, 3)
	for i, col := range cols {
		found := false
		for k := range sel {
			if sel[k].col == col {
				sel[k].coef = i // later literal entry overwrites
				found = true
				break
			}
		}
		if !found {
			sel = append(sel, qjacSel{col: col, coef: i})
		}
	}
	return sel
}

// buildPowerPlan simulates the golden-file power() peeling loop, which is
// purely structural: which sources share nodes decides the recovery
// order, never the element values. The step sequence is recorded so the
// evaluation replays only the arithmetic.
func (p *evalPlan) buildPowerPlan(c *Compiled, slot func(string) int, devIdx map[string]devIdxEntry) {
	srcs := c.Bias.VSources
	known := make([]bool, len(srcs))
	nKnown := 0
	for progress := true; progress && nKnown < len(srcs); {
		progress = false
		for si, s := range srcs {
			if known[si] {
				continue
			}
			for ni, node := range s.Nodes {
				if circuit.IsGround(node) {
					continue
				}
				ready := true
				var others []powerOther
				for oi, o := range srcs {
					if oi == si {
						continue
					}
					touches, sign := vTouch(o, node)
					if !touches {
						continue
					}
					if !known[oi] {
						ready = false
						break
					}
					others = append(others, powerOther{src: oi, sign: sign})
				}
				if !ready {
					continue
				}
				step := powerStep{src: si, negate: ni == 0, others: others}
				step.conts = powerContribs(c, node, s, slot, devIdx)
				p.power = append(p.power, step)
				known[si] = true
				nKnown++
				progress = true
				break
			}
		}
	}
	if nKnown < len(srcs) {
		p.powerErr = fmt.Errorf("astrx: power(): voltage-source loop prevents current recovery")
	}
}

// vTouch reports whether a V source touches node and the sign its branch
// current (+→−) contributes to current leaving that node.
func vTouch(e *circuit.Element, node string) (bool, float64) {
	if e.Nodes[0] == node {
		return true, 1
	}
	if e.Nodes[1] == node {
		return true, -1
	}
	return false, 0
}

// powerContribs records the element current contributions at node for
// the peeling step of source skip. Elements whose case evaluates an
// expression are kept even when they contribute no current (a VCCS
// touched only through its control nodes still surfaces value errors,
// as in the golden file).
func powerContribs(c *Compiled, node string, skip *circuit.Element, slot func(string) int, devIdx map[string]devIdxEntry) []powerContrib {
	var out []powerContrib
	for _, e := range c.Bias.Net.Elements {
		if e == skip {
			continue
		}
		touches := -1
		for k, n := range e.Nodes {
			if n == node {
				touches = k
				break
			}
		}
		if touches < 0 {
			continue
		}
		keep := false
		switch e.Kind {
		case circuit.KindR, circuit.KindI, circuit.KindG:
			keep = true
		case circuit.KindM:
			keep = touches == 0 || touches == 2
		case circuit.KindQ:
			keep = touches <= 2
		}
		if !keep {
			continue
		}
		cn := powerContrib{kind: e.Kind, e: e, touches: touches, dev: -1}
		for k, nd := range e.Nodes {
			if k < 4 {
				cn.n[k] = slot(nd)
			}
		}
		for k := len(e.Nodes); k < 4; k++ {
			cn.n[k] = -1
		}
		if di, ok := devIdx[e.Name]; ok {
			cn.dev = di.op
		}
		out = append(out, cn)
	}
	return out
}

// buildJigPlan compiles one jig's stamp program. Node slots are
// positions in j.AllNodes; branch rows follow in Linear declaration
// order, exactly as mna.Build assigns them for the gmin-first netlist
// that smallSignalNetlist emits.
func buildJigPlan(c *Compiled, j *JigCkt, devIdx map[string]devIdxEntry, fitted map[string]bool, tfSlot *int) *jigPlan {
	jp := &jigPlan{name: j.Name, nNodes: len(j.AllNodes)}
	jp.gstamp = 1 / (1 / gmin)

	idx := make(map[string]int, len(j.AllNodes))
	for i, n := range j.AllNodes {
		idx[n] = i
	}
	nslot := func(name string) int {
		if i, ok := idx[name]; ok {
			return i
		}
		return -1 // ground (AllNodes covers every non-ground jig node)
	}

	branches := make(map[string]int)
	next := jp.nNodes
	for _, e := range j.Linear {
		switch e.Kind {
		case circuit.KindV, circuit.KindE, circuit.KindH, circuit.KindL:
			branches[e.Name] = next
			next++
		}
	}
	jp.size = next

	for _, e := range j.Linear {
		op := linOp{kind: e.Kind, e: e, br: -1, cb: -1}
		for k, nd := range e.Nodes {
			if k < 4 {
				op.n[k] = nslot(nd)
			}
		}
		for k := len(e.Nodes); k < 4; k++ {
			op.n[k] = -1
		}
		if br, ok := branches[e.Name]; ok {
			op.br = br
		}
		if e.Kind == circuit.KindF || e.Kind == circuit.KindH {
			if cb, ok := branches[e.CtrlName]; ok {
				op.cb = cb
			} else {
				op.err = fmt.Errorf("mna: element %s controls by unknown source %q", e.Name, e.CtrlName)
			}
		}
		jp.lin = append(jp.lin, op)
	}

	for _, jd := range j.Devices {
		di := devIdx[jd.Inst.Name] // validated by compileJig
		jp.devs = append(jp.devs, jigDevOp{
			mos: di.kind == DevMOS, op: di.op,
			d: nslot(jd.T[0]), g: nslot(jd.T[1]), s: nslot(jd.T[2]), b: nslot(jd.T[3]),
		})
	}

	q := min(aweOrder, jp.size)
	for _, req := range j.TFs {
		tp := tfPlan{name: req.Name, ip: nslot(req.OutPos), in: -1, q: q, dcOnly: !fitted[req.Name]}
		// Slots were numbered in declaration order across all jigs.
		tp.tfIdx = *tfSlot
		*tfSlot++
		if req.OutNeg != "" && req.OutNeg != "0" {
			if circuit.IsGround(req.OutNeg) {
				// As in the golden file: NodeUnknown rejects ground
				// aliases at evaluation time.
				tp.err = fmt.Errorf("awe: output node %q unknown or ground", req.OutNeg)
			} else {
				tp.in = nslot(req.OutNeg)
			}
		}
		tp.b = make([]float64, jp.size)
		src := findJigSource(j, req.Src)
		mag := src.ACMag
		if mag == 0 {
			mag = 1
		}
		switch src.Kind {
		case circuit.KindV:
			tp.b[branches[src.Name]] = mag
		case circuit.KindI:
			if i := nslot(src.Nodes[0]); i >= 0 {
				tp.b[i] -= mag
			}
			if i := nslot(src.Nodes[1]); i >= 0 {
				tp.b[i] += mag
			}
		}
		jp.tfs = append(jp.tfs, tp)
	}
	return jp
}

// findJigSource locates the TF input source among the jig's linear
// elements (first match by name, like Netlist.Element).
func findJigSource(j *JigCkt, name string) *circuit.Element {
	for _, e := range j.Linear {
		if e.Name == name {
			return e
		}
	}
	// compileJig validated the source exists and is V/I (thus linear).
	panic(fmt.Sprintf("astrx: jig %s: tf source %q not in linear elements", j.Name, name))
}
