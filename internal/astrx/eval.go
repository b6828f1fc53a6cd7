package astrx

import (
	"fmt"
	"math"

	"astrx/internal/awe"
	"astrx/internal/circuit"
	"astrx/internal/devices"
	"astrx/internal/expr"
)

// EvalState is the full evaluation of one candidate design x: node
// voltages, device operating points, KCL residuals, transfer functions,
// and spec values. EvalWorkspace.State projects the workspace's last
// evaluation into this name-keyed form for the verification and
// reporting code that inspects finished designs.
type EvalState struct {
	C *Compiled

	// Vals maps design variables and constants to their values.
	Vals map[string]float64
	// NodeV maps every bias node to its voltage.
	NodeV map[string]float64
	// MOSOps and BJTOps are the device operating points by name.
	MOSOps map[string]devices.MOSOp
	BJTOps map[string]devices.BJTOp
	// KCL maps each free node to its current residual (A); KCLFlow to
	// the total current magnitude through the node (for normalization).
	KCL     map[string]float64
	KCLFlow map[string]float64
	// TFs maps .pz names to fitted reduced-order models.
	TFs map[string]*awe.TF
	// SpecVals maps spec names to measured values.
	SpecVals map[string]float64
	// Err records the first fatal evaluation problem (nil if clean).
	Err error
}

// MaxKCLError returns the worst relative KCL residual of a state — the
// quantity Fig. 2 tracks along the optimization.
func (st *EvalState) MaxKCLError() float64 {
	worst := 0.0
	for _, n := range st.C.Bias.FreeNodes {
		rel := math.Abs(st.KCL[n]) / (st.KCLFlow[n] + 1e-12)
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

// TFBackend measures transfer-function quantities. The default backend
// reads the AWE reduced models; package verify substitutes one backed by
// direct AC sweeps so the same spec expressions yield the "/ Simulation"
// columns of Tables 2-3.
type TFBackend interface {
	// Measure handles fn(tfName, extra...); handled=false defers to the
	// default backend.
	Measure(fn, tfName string, extra []expr.Arg) (val float64, handled bool, err error)
}

// mosParam exposes MOS operating-point fields to expressions.
func mosParam(op devices.MOSOp, p string) (float64, bool) {
	switch p {
	case "id", "ids":
		return op.Ids, true
	case "gm":
		return op.Gm, true
	case "gds":
		return op.Gds, true
	case "gmbs", "gmb":
		return op.Gmbs, true
	case "vth":
		return op.Vth, true
	case "vdsat":
		return op.Vdsat, true
	case "vgs":
		return op.Vgs, true
	case "vds":
		return op.Vds, true
	case "vbs":
		return op.Vbs, true
	case "vov":
		return op.Vgs - op.Vth, true
	case "cgs":
		return op.Caps.Cgs, true
	case "cgd":
		return op.Caps.Cgd, true
	case "cgb":
		return op.Caps.Cgb, true
	case "cdb", "cd":
		return op.Caps.Cdb, true
	case "csb", "cs":
		return op.Caps.Csb, true
	case "region":
		return float64(op.Region), true
	}
	return 0, false
}

// bjtParam exposes BJT operating-point fields to expressions.
func bjtParam(op devices.BJTOp, p string) (float64, bool) {
	switch p {
	case "ic":
		return op.Ic, true
	case "ib":
		return op.Ib, true
	case "gm":
		return op.Gm, true
	case "gpi":
		return op.Gpi, true
	case "go":
		return op.Go, true
	case "cpi":
		return op.Cpi, true
	case "cmu":
		return op.Cmu, true
	case "vbe":
		return op.Vbe, true
	case "vbc":
		return op.Vbc, true
	}
	return 0, false
}

// JigNetlist builds the linearized small-signal netlist for the named
// jig at this state's operating point (exported for package verify and
// the experiment harnesses).
func (st *EvalState) JigNetlist(name string) (*circuit.Netlist, *JigCkt, error) {
	for _, j := range st.C.Jigs {
		if j.Name == name {
			nl, err := st.smallSignalNetlist(j)
			return nl, j, err
		}
	}
	return nil, nil, fmt.Errorf("astrx: unknown jig %q", name)
}

// smallSignalNetlist builds the linearized circuit for a jig at the
// state's operating point. It is the netlist form of the stamp program
// the workspace replays (plan.go), kept so package verify can run its
// independent AC sweep on the same linearization.
func (st *EvalState) smallSignalNetlist(j *JigCkt) (*circuit.Netlist, error) {
	elems := make([]*circuit.Element, 0, len(j.Linear)+6*len(j.Devices)+len(j.AllNodes))

	num := func(v float64) expr.Node { return &expr.Num{V: v} }

	// gmin ties every node to ground so G is never singular. They come
	// first so the MNA unknown ordering is pinned to AllNodes order (the
	// ties cover every node), which the compiled evaluation plan
	// (plan.go) stamps against.
	for i, n := range j.AllNodes {
		elems = append(elems, &circuit.Element{
			Name: fmt.Sprintf("gmin#%d", i), Kind: circuit.KindR,
			Nodes: []string{n, circuit.Ground}, Value: num(1 / gmin),
		})
	}
	elems = append(elems, j.Linear...)
	addR := func(name, a, b string, g float64) {
		// Conductance g as a resistor; tiny conductances are legal.
		if g == 0 {
			return
		}
		elems = append(elems, &circuit.Element{
			Name: name, Kind: circuit.KindR, Nodes: []string{a, b}, Value: num(1 / g),
		})
	}
	addC := func(name, a, b string, cv float64) {
		if cv == 0 || a == b {
			return
		}
		elems = append(elems, &circuit.Element{
			Name: name, Kind: circuit.KindC, Nodes: []string{a, b}, Value: num(cv),
		})
	}
	addG := func(name, op, on, cp, cn string, gm float64) {
		if gm == 0 {
			return
		}
		elems = append(elems, &circuit.Element{
			Name: name, Kind: circuit.KindG, Nodes: []string{op, on, cp, cn}, Value: num(gm),
		})
	}

	for _, jd := range j.Devices {
		name := jd.Inst.Name
		switch jd.Inst.Kind {
		case DevMOS:
			op, ok := st.MOSOps[name]
			if !ok {
				return nil, fmt.Errorf("astrx: no operating point for %s", name)
			}
			d, g, s, b := jd.T[0], jd.T[1], jd.T[2], jd.T[3]
			if op.Swapped {
				d, s = s, d
			}
			addG(name+"#gm", d, s, g, s, op.Gm)
			addG(name+"#gmb", d, s, b, s, op.Gmbs)
			addR(name+"#gds", d, s, op.Gds)
			addC(name+"#cgs", g, s, op.Caps.Cgs)
			addC(name+"#cgd", g, d, op.Caps.Cgd)
			addC(name+"#cgb", g, b, op.Caps.Cgb)
			addC(name+"#cdb", d, b, op.Caps.Cdb)
			addC(name+"#csb", s, b, op.Caps.Csb)
		case DevBJT:
			op, ok := st.BJTOps[name]
			if !ok {
				return nil, fmt.Errorf("astrx: no operating point for %s", name)
			}
			cN, bN, eN := jd.T[0], jd.T[1], jd.T[2]
			addG(name+"#gm", cN, eN, bN, eN, op.Gm)
			addR(name+"#gpi", bN, eN, op.Gpi)
			addR(name+"#go", cN, eN, op.Go)
			addR(name+"#gmu", bN, cN, op.Gmu)
			addC(name+"#cpi", bN, eN, op.Cpi)
			addC(name+"#cmu", bN, cN, op.Cmu)
		}
	}

	nl := &circuit.Netlist{Title: j.Name, Elements: elems}
	nl.BuildIndex()
	return nl, nil
}
