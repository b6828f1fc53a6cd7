package astrx

import (
	"fmt"
	"math"
	"strings"

	"astrx/internal/anneal"
	"astrx/internal/circuit"
	"astrx/internal/expr"
	"astrx/internal/netlist"
)

// This file implements corner-aware compilation: each .corner card of a
// deck derives a sibling deck (model constants, const values, source DC
// values, and temperature-dependent parameters swapped in) that compiles
// to its own evaluation plan sharing the nominal plan's structure. A
// CornerSet bundles the nominal and per-corner plans behind one master
// variable vector — shared user design variables plus an independent
// copy of the relaxed-dc node voltages per corner, so every corner can
// be driven to its own dc-correct bias — and assembles a single
// worst-case-over-corners cost with the nominal deck's adaptive weights.

// tempVtoSlope is the threshold-voltage derate applied per °C above the
// nominal 27 °C: |vto| drops ~2 mV/K, the standard first-order MOS
// temperature behavior. Applied symmetrically (pmos thresholds move
// toward zero as temperature rises).
const tempVtoSlope = 0.002

// DeriveCornerDeck clones a deck with one corner's overrides applied:
// temperature derates on every MOS model card, then the corner's
// explicit model-parameter overrides (explicit wins over the derate),
// const overrides, and V/I source DC-value overrides. The returned deck
// shares everything the corner does not touch (modules, specs, vars).
func DeriveCornerDeck(deck *netlist.Deck, c *netlist.Corner) (*netlist.Deck, error) {
	d := *deck // shallow copy; replace only what the corner changes

	// Models: temperature derates first, explicit overrides second.
	dT := 0.0
	if c.TempSet {
		dT = c.Temp - netlist.NominalTemp
	}
	d.Models = make(map[string]*circuit.Model, len(deck.Models))
	for name, m := range deck.Models {
		nm := *m
		params := m.Params
		cloned := false
		clone := func() {
			if !cloned {
				cp := make(map[string]float64, len(params)+2)
				for k, v := range params {
					cp[k] = v
				}
				params, cloned = cp, true
			}
		}
		if dT != 0 && (m.Type == "nmos" || m.Type == "pmos") {
			clone()
			if vto := nm.P("vto", 0); vto != 0 {
				shift := tempVtoSlope * dT
				if vto > 0 {
					params["vto"] = vto - shift
				} else {
					params["vto"] = vto + shift
				}
			}
			// Mobility (and the derived transconductance factor) follows
			// the classic (T/Tnom)^-1.5 power law.
			scale := math.Pow((273.15+netlist.NominalTemp+dT)/(273.15+netlist.NominalTemp), -1.5)
			if u0 := nm.P("u0", 0); u0 != 0 {
				params["u0"] = u0 * scale
			}
			if kp := nm.P("kp", 0); kp != 0 {
				params["kp"] = kp * scale
			}
		}
		if ov, ok := c.Model[name]; ok {
			clone()
			for p, v := range ov {
				params[strings.ToLower(p)] = v
			}
		}
		nm.Params = params
		d.Models[name] = &nm
	}
	for model := range c.Model {
		if _, ok := deck.Models[model]; !ok {
			return nil, fmt.Errorf("astrx: corner %s: override of unknown model %q", c.Name, model)
		}
	}

	// Bare-key overrides: consts win, then top-level V/I sources.
	constOv := make(map[string]float64)  // resolved const name -> value
	sourceOv := make(map[string]float64) // element name -> value
	for key, v := range c.Set {
		resolved := false
		for name := range deck.Consts {
			if strings.ToLower(name) == key {
				constOv[name] = v
				resolved = true
				break
			}
		}
		if resolved {
			continue
		}
		sourceOv[key] = v
	}
	if len(constOv) > 0 {
		d.Consts = make(map[string]float64, len(deck.Consts))
		for k, v := range deck.Consts {
			d.Consts[k] = v
		}
		for k, v := range constOv {
			d.Consts[k] = v
		}
	}
	if len(sourceOv) > 0 {
		applied := make(map[string]bool, len(sourceOv))
		d.Jigs = make([]*netlist.Jig, len(deck.Jigs))
		for i, j := range deck.Jigs {
			d.Jigs[i] = overrideJigSources(j, sourceOv, applied)
		}
		if deck.Bias != nil {
			d.Bias = overrideJigSources(deck.Bias, sourceOv, applied)
		}
		for name := range sourceOv {
			if !applied[name] {
				return nil, fmt.Errorf("astrx: corner %s: override %q matches no .const and no V/I source", c.Name, name)
			}
		}
	}
	return &d, nil
}

// overrideJigSources returns j with any overridden V/I source's DC value
// replaced by a literal; j is returned unchanged (same pointer) when no
// override applies to it.
func overrideJigSources(j *netlist.Jig, ov map[string]float64, applied map[string]bool) *netlist.Jig {
	touched := false
	for _, e := range j.Elements {
		if _, ok := ov[e.Name]; ok && (e.Kind == circuit.KindV || e.Kind == circuit.KindI) {
			touched = true
		}
	}
	if !touched {
		return j
	}
	nj := *j
	nj.Elements = make([]*circuit.Element, len(j.Elements))
	for i, e := range j.Elements {
		if v, ok := ov[e.Name]; ok && (e.Kind == circuit.KindV || e.Kind == circuit.KindI) {
			ne := *e
			ne.Value = &expr.Num{V: v}
			nj.Elements[i] = &ne
			applied[e.Name] = true
		} else {
			nj.Elements[i] = e
		}
	}
	return &nj
}

// CornerSet is a nominal compilation plus one compiled plan per selected
// corner. Corners change values, never topology, so every corner has the
// nominal's free bias nodes (asserted at build time). The master
// annealing vector is the nominal's user variables followed by one
// node-voltage section per lane (nominal first), so each corner's
// relaxed-dc bias is independently optimizable.
type CornerSet struct {
	Deck    *netlist.Deck
	Nominal *Compiled
	// Names lists the selected corner names, in deck declaration order.
	Names   []string
	Corners []*Compiled

	// VarList is the master variable vector; NUser and NFree describe
	// its layout: NUser user vars, then K() sections of NFree node
	// voltages each.
	VarList []anneal.VarSpec
	NUser   int
	NFree   int
}

// ParseCorners maps a corner-selection text (the -corners flag of the
// commands, oblxd's corners= query parameter) onto the SelectCorners
// convention: "" and "all" select every declared corner (nil), "none"
// forces nominal-only (empty non-nil), anything else is a
// comma-separated name list whose blank entries are dropped. A list
// whose every entry is blank names nothing and is an error, not a
// selection of every corner.
func ParseCorners(v string) ([]string, error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "", "all":
		return nil, nil
	case "none":
		return []string{}, nil
	}
	var out []string
	for _, n := range strings.Split(v, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	if out == nil {
		return nil, fmt.Errorf("astrx: corner selection %q names no corner (use all or none)", v)
	}
	return out, nil
}

// SelectCorners resolves a job's corner selection against the deck:
// nil → every declared corner; an explicit list → those corners, in
// deck declaration order (unknown names error); an explicit empty,
// non-nil list → nominal only (returns an empty selection).
func SelectCorners(deck *netlist.Deck, names []string) ([]string, error) {
	if names == nil {
		return deck.CornerNames(), nil
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		n = strings.ToLower(n)
		if deck.Corner(n) == nil {
			return nil, fmt.Errorf("astrx: deck declares no .corner %q (have %v)", n, deck.CornerNames())
		}
		want[n] = true
	}
	var out []string
	for _, c := range deck.Corners {
		if want[c.Name] {
			out = append(out, c.Name)
		}
	}
	return out, nil
}

// CompileCorners compiles the nominal deck and one derived deck per
// selected corner name. An empty selection still returns a usable
// single-lane set (nominal only).
func CompileCorners(deck *netlist.Deck, names []string, opt CostOptions) (*CornerSet, error) {
	nom, err := Compile(deck, opt)
	if err != nil {
		return nil, err
	}
	cs := &CornerSet{
		Deck:    deck,
		Nominal: nom,
		NUser:   nom.NUser,
		NFree:   len(nom.Bias.FreeNodes),
		VarList: append([]anneal.VarSpec(nil), nom.VarList...),
	}
	for _, name := range names {
		cn := deck.Corner(name)
		if cn == nil {
			return nil, fmt.Errorf("astrx: deck declares no .corner %q", name)
		}
		cd, err := DeriveCornerDeck(deck, cn)
		if err != nil {
			return nil, err
		}
		cc, err := Compile(cd, opt)
		if err != nil {
			return nil, fmt.Errorf("astrx: corner %s: %w", name, err)
		}
		// Corners change values, never topology: the relaxed-dc free
		// nodes are determined by the element graph alone and must match
		// the nominal's exactly for the shared-variable layout to hold.
		if len(cc.Bias.FreeNodes) != cs.NFree {
			return nil, fmt.Errorf("astrx: corner %s: %d free bias nodes, nominal has %d",
				name, len(cc.Bias.FreeNodes), cs.NFree)
		}
		for i, n := range cc.Bias.FreeNodes {
			if n != nom.Bias.FreeNodes[i] {
				return nil, fmt.Errorf("astrx: corner %s: free node %d is %q, nominal has %q",
					name, i, n, nom.Bias.FreeNodes[i])
			}
		}
		for i := 0; i < cs.NFree; i++ {
			vs := cc.VarList[cc.NUser+i]
			vs.Name = vs.Name + "@" + name
			cs.VarList = append(cs.VarList, vs)
		}
		cs.Names = append(cs.Names, name)
		cs.Corners = append(cs.Corners, cc)
	}
	return cs, nil
}

// K returns the lane count: nominal plus the selected corners.
func (cs *CornerSet) K() int { return 1 + len(cs.Corners) }

// Lane returns lane i's compiled problem (lane 0 is the nominal).
func (cs *CornerSet) Lane(i int) *Compiled {
	if i == 0 {
		return cs.Nominal
	}
	return cs.Corners[i-1]
}

// LaneName returns lane i's display name.
func (cs *CornerSet) LaneName(i int) string {
	if i == 0 {
		return "nominal"
	}
	return cs.Names[i-1]
}

// Vars returns the master annealing variables.
func (cs *CornerSet) Vars() []anneal.VarSpec { return cs.VarList }

// NVars is the master vector length.
func (cs *CornerSet) NVars() int { return cs.NUser + cs.K()*cs.NFree }

// LaneX writes lane i's evaluation vector (shared user head + that
// lane's node-voltage section) into dst, allocating when dst is nil.
func (cs *CornerSet) LaneX(i int, x []float64, dst []float64) []float64 {
	n := cs.NUser + cs.NFree
	if dst == nil {
		dst = make([]float64, n)
	}
	copy(dst[:cs.NUser], x[:cs.NUser])
	off := cs.NUser + i*cs.NFree
	copy(dst[cs.NUser:n], x[off:off+cs.NFree])
	return dst
}

// StoreLaneNodes copies a lane vector's node-voltage section back into
// the master vector's section for lane i.
func (cs *CornerSet) StoreLaneNodes(i int, laneX, x []float64) {
	off := cs.NUser + i*cs.NFree
	copy(x[off:off+cs.NFree], laneX[cs.NUser:cs.NUser+cs.NFree])
}

// WorstCase assembles the worst-case-over-corners cost from a lane
// set's last Run with the nominal deck's adaptive weights; see assemble.
// include[i] == false skips lane i (a quarantined corner), and
// evaluated[i] == false charges it the failure penalty.
func (cs *CornerSet) WorstCase(bw *BatchWorkspace, include, evaluated []bool) CostBreakdown {
	return assemble(cs.Nominal, bw.lanes, include, evaluated)
}

// assemble builds C(x) from the last runs of a lane set's workspaces,
// nominal first, with the nominal's adaptive weights. It is the one
// assembly of the cost function: the scalar cost is its one-lane case
// (costFromRun). Each call updates the weights' EMAs once, so
// checkpoint/resume reproduces the weight trajectory exactly.
//
//   - A failed nominal lane fails the whole candidate (FailCost).
//   - Per spec, the violation u is the max over participating lanes. A
//     lane that failed to evaluate, or a spec it could not measure,
//     contributes the deterministic specFailUnits penalty.
//   - The region violation is the max over lanes.
//   - The relaxed-dc KCL violation is the sum over lanes: every lane's
//     own node-voltage section must reach dc-correctness.
//   - A lane with include[l] == false (a quarantined corner) is skipped
//     entirely: the run has degraded to the remaining corners.
//
// The maxima use math.Max, so a NaN violation on any lane fails the
// candidate.
func assemble(c *Compiled, lanes []*EvalWorkspace, include, evaluated []bool) CostBreakdown {
	var out CostBreakdown
	w := c.Weights
	if !include[0] || !evaluated[0] {
		out.Failed = true
		out.Total = failCost
		return out
	}

	for i, s := range c.Deck.Specs {
		worst := math.Inf(-1)
		anyVal, anyFail := false, false
		for l, ws := range lanes {
			if !include[l] {
				continue
			}
			val := ws.specVals[i]
			if !evaluated[l] || math.IsNaN(val) || math.IsInf(val, 0) {
				anyFail = true
				continue
			}
			worst = math.Max(worst, Normalize(s, val))
			anyVal = true
		}
		if anyFail && (!anyVal || specFailUnits >= worst) {
			// The binding lane failed or could not measure the spec:
			// treat it as far beyond "bad".
			out.Perf += w.Spec[s.Name] * specFailUnits
			if !s.Objective {
				w.emaSpec[s.Name] = emaDecay*w.emaSpec[s.Name] + (1 - emaDecay)
			}
			continue
		}
		u := worst
		if s.Objective {
			// Keep optimizing past "good", but gently, so objectives
			// cannot drown the penalty terms.
			term := u
			if u < 0 {
				term = 0.05 * u
			}
			out.Objective += w.Spec[s.Name] * term
		} else {
			viol := math.Max(0, u)
			out.Perf += w.Spec[s.Name] * viol
			w.emaSpec[s.Name] = emaDecay*w.emaSpec[s.Name] + (1-emaDecay)*math.Min(viol, 1)
		}
	}

	regViol := 0.0
	kclViol := 0.0
	for l, ws := range lanes {
		if !include[l] || !evaluated[l] {
			continue
		}
		regViol = math.Max(regViol, ws.regionViolation())
		kclViol += ws.kclViolation()
	}
	out.Dev = w.Region * regViol
	w.emaReg = emaDecay*w.emaReg + (1-emaDecay)*math.Min(regViol, 1)
	out.DC = w.KCL * kclViol
	w.emaKCL = emaDecay*w.emaKCL + (1-emaDecay)*math.Min(kclViol, 1)

	out.Total = out.Objective + out.Perf + out.Dev + out.DC
	if math.IsNaN(out.Total) || math.IsInf(out.Total, 0) {
		out.Failed = true
		out.Total = failCost
	}
	return out
}
