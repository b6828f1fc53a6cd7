package astrx

import (
	"fmt"

	"astrx/internal/circuit"
	"astrx/internal/devices"
	"astrx/internal/expr"
	"astrx/internal/netlist"
)

// compileBias flattens the .bias block, expands device parasitics into
// internal nodes, resolves models, and runs the tree-link analysis that
// splits nodes into determined (source-fixed) and free (relaxed-dc
// variables).
func compileBias(deck *netlist.Deck) (*BiasCkt, error) {
	flat, err := circuit.Flatten("bias", deck.Bias.Elements, deck.Modules, deck.Models)
	if err != nil {
		return nil, fmt.Errorf("astrx: bias: %w", err)
	}
	b := &BiasCkt{Devices: make(map[string]*DevInst)}
	net, devs, err := expandDevices(flat, deck)
	if err != nil {
		return nil, fmt.Errorf("astrx: bias: %w", err)
	}
	b.Net = net
	for _, d := range devs {
		b.Devices[d.Name] = d
		b.DevOrder = append(b.DevOrder, d.Name)
	}

	// Reject elements the DC formulation cannot handle.
	for _, e := range net.Elements {
		switch e.Kind {
		case circuit.KindR, circuit.KindC, circuit.KindV, circuit.KindI,
			circuit.KindG, circuit.KindM, circuit.KindQ:
		default:
			return nil, fmt.Errorf("astrx: bias: element %s (%v) unsupported in bias circuits", e.Name, e.Kind)
		}
		if e.Kind == circuit.KindV {
			b.VSources = append(b.VSources, e)
		}
	}

	// Tree-link analysis over the V-source graph: nodes reachable from
	// ground through voltage sources are determined; every other node
	// voltage becomes a variable in x.
	if err := b.analyzeDetermined(); err != nil {
		return nil, err
	}
	return b, nil
}

// analyzeDetermined builds the Determined program and FreeNodes list.
func (b *BiasCkt) analyzeDetermined() error {
	known := map[string]bool{circuit.Ground: true}
	// adjacency over V sources
	type edge struct {
		src   *circuit.Element
		other string
		sign  float64 // v(node) = v(other) + sign·value
	}
	adj := make(map[string][]edge)
	for _, e := range b.Net.Elements {
		if e.Kind != circuit.KindV {
			continue
		}
		p, n := e.Nodes[0], e.Nodes[1]
		if circuit.IsGround(p) {
			p = circuit.Ground
		}
		if circuit.IsGround(n) {
			n = circuit.Ground
		}
		// v(p) - v(n) = value
		adj[p] = append(adj[p], edge{src: e, other: n, sign: +1})
		adj[n] = append(adj[n], edge{src: e, other: p, sign: -1})
	}

	// BFS from ground.
	queue := []string{circuit.Ground}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ed := range adj[cur] {
			if known[ed.other] {
				continue
			}
			known[ed.other] = true
			// v(other) = v(cur) - sign·value when edge stored at cur…
			// easier to re-derive: the edge at `other` pointing back to
			// cur has the right orientation, so look it up there.
			for _, back := range adj[ed.other] {
				if back.src == ed.src && back.other == cur {
					from := cur
					if from == circuit.Ground {
						from = ""
					}
					b.Determined = append(b.Determined, DetermStep{
						Node: ed.other, From: from, Sign: back.sign, Src: ed.src,
					})
					break
				}
			}
			queue = append(queue, ed.other)
		}
	}

	// Floating V-source chains (no path to ground): pick the component's
	// first-seen node as a free representative, then determine the rest.
	for _, e := range b.Net.Elements {
		if e.Kind != circuit.KindV {
			continue
		}
		for _, n := range e.Nodes {
			if !known[n] && !circuit.IsGround(n) {
				// representative stays free; BFS its component
				known[n] = true
				comp := []string{n}
				for len(comp) > 0 {
					cur := comp[0]
					comp = comp[1:]
					for _, ed := range adj[cur] {
						if known[ed.other] || circuit.IsGround(ed.other) {
							continue
						}
						known[ed.other] = true
						for _, back := range adj[ed.other] {
							if back.src == ed.src && back.other == cur {
								b.Determined = append(b.Determined, DetermStep{
									Node: ed.other, From: cur, Sign: back.sign, Src: ed.src,
								})
								break
							}
						}
						comp = append(comp, ed.other)
					}
				}
				// n itself stays free: fall through to FreeNodes below.
				delete(known, n)
			}
		}
	}

	determined := map[string]bool{}
	for _, st := range b.Determined {
		determined[st.Node] = true
	}
	for _, n := range b.Net.NodeNames() {
		if !determined[n] && !circuit.IsGround(n) {
			b.FreeNodes = append(b.FreeNodes, n)
		}
	}
	return nil
}

// expandDevices resolves models for every M/Q element of a flat netlist
// and rewrites series drain/source resistances as explicit resistors with
// internal nodes ("<dev>#d"/"<dev>#s"). The returned netlist contains
// the linear elements plus the original devices (with rewritten channel
// terminals); device instances are returned separately.
func expandDevices(flat *circuit.Netlist, deck *netlist.Deck) (*circuit.Netlist, []*DevInst, error) {
	out := &circuit.Netlist{Title: flat.Title, Models: flat.Models}
	var devs []*DevInst
	models := make(map[string]interface{})

	lookup := func(name string) (interface{}, error) {
		if m, ok := models[name]; ok {
			return m, nil
		}
		card, ok := deck.Models[name]
		if !ok {
			return nil, fmt.Errorf("unknown model %q", name)
		}
		m, err := devices.FromModel(card)
		if err != nil {
			return nil, err
		}
		models[name] = m
		return m, nil
	}

	// Geometry expressions may reference design variables; series
	// resistance depends on W, so evaluate it at the midpoint for the
	// *structure* (whether to create internal nodes) but recompute the
	// value per evaluation via an expression tying RD to W.
	for _, e := range flat.Elements {
		switch e.Kind {
		case circuit.KindM:
			raw, err := lookup(e.Model)
			if err != nil {
				return nil, nil, fmt.Errorf("device %s: %v", e.Name, err)
			}
			mm, ok := raw.(devices.MOSModel)
			if !ok {
				return nil, nil, fmt.Errorf("device %s: model %q is not a MOS model", e.Name, e.Model)
			}
			d := &DevInst{Name: e.Name, Kind: DevMOS, Elem: e, MOS: &MOSRef{Model: mm}}
			dN, gN, sN, bN := e.Nodes[0], e.Nodes[1], e.Nodes[2], e.Nodes[3]

			// Structure decision: does this model card carry series R?
			rdw := modelParam(deck, e.Model, "rdw")
			rsw := modelParam(deck, e.Model, "rsw")
			newElem := *e
			newElem.Nodes = append([]string(nil), e.Nodes...)
			if rdw > 0 {
				inner := e.Name + "#d"
				out.Elements = append(out.Elements, seriesResistor(e, "rd", dN, inner, rdw))
				dN = inner
				newElem.Nodes[0] = inner
			}
			if rsw > 0 {
				inner := e.Name + "#s"
				out.Elements = append(out.Elements, seriesResistor(e, "rs", sN, inner, rsw))
				sN = inner
				newElem.Nodes[2] = inner
			}
			d.MOS.D, d.MOS.G, d.MOS.S, d.MOS.B = dN, gN, sN, bN
			out.Elements = append(out.Elements, &newElem)
			devs = append(devs, d)

		case circuit.KindQ:
			raw, err := lookup(e.Model)
			if err != nil {
				return nil, nil, fmt.Errorf("device %s: %v", e.Name, err)
			}
			bm, ok := raw.(*devices.BJTModel)
			if !ok {
				return nil, nil, fmt.Errorf("device %s: model %q is not a BJT model", e.Name, e.Model)
			}
			d := &DevInst{Name: e.Name, Kind: DevBJT, Elem: e, BJT: &BJTRef{
				Model: bm, C: e.Nodes[0], B: e.Nodes[1], E: e.Nodes[2],
			}}
			out.Elements = append(out.Elements, e)
			devs = append(devs, d)

		default:
			out.Elements = append(out.Elements, e)
		}
	}
	out.BuildIndex()
	return out, devs, nil
}

// seriesResistor builds the R element for a device's parasitic series
// resistance: value = RDW / (W·M), recomputed every evaluation from the
// device's geometry.
func seriesResistor(dev *circuit.Element, which, outer, inner string, rw float64) *circuit.Element {
	wExpr := dev.Param("w")
	mExpr := dev.Param("m")
	val := &seriesRExpr{rw: rw, dev: dev.Name, w: wExpr, m: mExpr}
	return &circuit.Element{
		Name:  dev.Name + "#" + which,
		Kind:  circuit.KindR,
		Nodes: []string{outer, inner},
		Value: val,
	}
}

// seriesRExpr is an expr.Node computing RDW/(W·M) from the device's
// geometry expressions.
type seriesRExpr struct {
	rw  float64
	dev string // the device's flattened name
	w   expr.Node
	m   expr.Node
	// mos indexes the workspace's MOS geometry when linked is set
	// (evalPlan.linkSeriesResistors).
	mos    int
	linked bool
}

// Eval computes the series resistance. In a workspace whose last run
// evaluated every device's geometry, a linked resistor reads W and M
// from there: the same values its own expressions give, since they are
// the device's and the run's design variables are still in place.
func (s *seriesRExpr) Eval(env expr.Env) (float64, error) {
	if ve, ok := env.(*wsValEnv); ok && s.linked && ve.ws.geomOK {
		g := &ve.ws.mosDevs[s.mos].g
		return s.rw / (g.W * g.Mult()), nil
	}
	w, err := s.w.Eval(env)
	if err != nil {
		return 0, err
	}
	mult := 1.0
	if s.m != nil {
		mult, err = s.m.Eval(env)
		if err != nil {
			return 0, err
		}
		if mult <= 0 {
			mult = 1
		}
	}
	if w <= 0 {
		return 0, fmt.Errorf("astrx: nonpositive device width %g", w)
	}
	return s.rw / (w * mult), nil
}

// String renders the synthetic expression.
func (s *seriesRExpr) String() string {
	return fmt.Sprintf("%g/(W*M)", s.rw)
}

// modelParam fetches a raw model-card parameter (0 when missing).
func modelParam(deck *netlist.Deck, model, key string) float64 {
	if card, ok := deck.Models[model]; ok {
		return card.P(key, 0)
	}
	return 0
}
