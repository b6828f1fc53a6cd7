package netlist

import (
	"strconv"
	"strings"

	"astrx/internal/circuit"
	"astrx/internal/devices"
	"astrx/internal/expr"
)

// card dispatches one dot-card.
func (p *parser) card(head string, toks []string) error {
	if p.module != nil && head != ".ends" {
		return p.errf("card %s not allowed inside .module", head)
	}
	if p.jig != nil && head != ".ends" && head != ".pz" {
		return p.errf("card %s not allowed inside .jig/.bias", head)
	}
	switch head {
	case ".title":
		p.deck.Title = strings.Join(toks[1:], " ")
		return nil
	case ".module":
		return p.cardModule(toks)
	case ".ends":
		return p.cardEnds()
	case ".model":
		return p.cardModel(toks)
	case ".lib":
		return p.cardLib(toks)
	case ".var":
		return p.cardVar(toks)
	case ".const":
		return p.cardConst(toks)
	case ".jig":
		if len(toks) < 2 {
			return p.errf(".jig needs a name")
		}
		p.jig = &Jig{Name: toks[1]}
		return nil
	case ".bias":
		p.jig = &Jig{Name: "bias"}
		p.inBias = true
		return nil
	case ".pz":
		return p.cardPZ(toks)
	case ".obj", ".spec":
		return p.cardSpec(head == ".obj", toks)
	case ".region":
		return p.cardRegion(toks)
	case ".corner":
		return p.cardCorner(toks)
	case ".include":
		// A deck is self-contained: decks arrive from clients of the
		// synthesis service, so the parser never reads a file a deck
		// names. The error names the card, never its argument.
		return p.errf(".include is not supported: put the cards in the deck itself")
	}
	return p.errf("unknown card %s", head)
}

func (p *parser) cardModule(toks []string) error {
	if len(toks) < 2 {
		return p.errf(".module needs a name")
	}
	name := strings.ToLower(toks[1])
	if _, dup := p.deck.Modules[name]; dup {
		return p.errf("duplicate module %q", name)
	}
	p.module = &circuit.Subckt{Name: name, Ports: toks[2:]}
	p.deck.NetlistLines++
	return nil
}

func (p *parser) cardEnds() error {
	switch {
	case p.module != nil:
		p.deck.Modules[p.module.Name] = p.module
		p.module = nil
	case p.jig != nil:
		if p.inBias {
			if p.deck.Bias != nil {
				return p.errf("duplicate .bias block")
			}
			p.deck.Bias = p.jig
			p.inBias = false
		} else {
			p.deck.Jigs = append(p.deck.Jigs, p.jig)
		}
		p.jig = nil
	default:
		return p.errf(".ends without open block")
	}
	return nil
}

func (p *parser) cardModel(toks []string) error {
	if len(toks) < 3 {
		return p.errf(".model needs name and type")
	}
	m := &circuit.Model{
		Name:   strings.ToLower(toks[1]),
		Type:   strings.ToLower(toks[2]),
		Params: make(map[string]float64),
	}
	for _, kv := range toks[3:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return p.errf(".model parameter %q is not key=value", kv)
		}
		key = strings.ToLower(key)
		if key == "level" {
			lvl, err := strconv.Atoi(val)
			if err != nil {
				return p.errf("bad level %q", val)
			}
			m.Level = lvl
			continue
		}
		v, err := expr.ParseNumber(val)
		if err != nil {
			return p.errf(".model %s: %v", m.Name, err)
		}
		m.Params[key] = v
	}
	p.deck.Models[m.Name] = m
	p.deck.NetlistLines++
	return nil
}

func (p *parser) cardLib(toks []string) error {
	if len(toks) != 2 {
		return p.errf(".lib needs exactly one process name")
	}
	lib, err := devices.Library(toks[1])
	if err != nil {
		return p.errf("%v", err)
	}
	for name, m := range lib {
		if _, dup := p.deck.Models[name]; !dup {
			p.deck.Models[name] = m
		}
	}
	p.deck.NetlistLines++
	return nil
}

func (p *parser) cardVar(toks []string) error {
	if len(toks) < 2 {
		return p.errf(".var needs a name")
	}
	v := &DesignVar{Name: toks[1]}
	for _, kv := range toks[2:] {
		key, val, hasVal := strings.Cut(kv, "=")
		key = strings.ToLower(key)
		switch key {
		case "cont":
			v.Continuous = true
		case "grid":
			v.Continuous = false
			if hasVal {
				n, err := strconv.Atoi(val)
				if err != nil || n <= 0 {
					return p.errf("bad grid density %q", val)
				}
				v.PointsPerDecade = n
			}
		case "min", "max", "init":
			if !hasVal {
				return p.errf(".var %s: %s needs a value", v.Name, key)
			}
			x, err := expr.ParseNumber(val)
			if err != nil {
				return p.errf(".var %s: %v", v.Name, err)
			}
			switch key {
			case "min":
				v.Min = x
			case "max":
				v.Max = x
			case "init":
				v.Init = x
			}
		default:
			return p.errf(".var %s: unknown attribute %q", v.Name, kv)
		}
	}
	if !(v.Min < v.Max) {
		return p.errf(".var %s: need min < max (got %g, %g)", v.Name, v.Min, v.Max)
	}
	if p.deck.Var(v.Name) != nil {
		return p.errf("duplicate variable %q", v.Name)
	}
	p.deck.Vars = append(p.deck.Vars, v)
	p.deck.SynthLines++
	return nil
}

func (p *parser) cardConst(toks []string) error {
	if len(toks) != 3 {
		return p.errf(".const needs name and value")
	}
	val, err := expr.ParseNumber(toks[2])
	if err != nil {
		return p.errf(".const %s: %v", toks[1], err)
	}
	p.deck.Consts[toks[1]] = val
	p.deck.SynthLines++
	return nil
}

// cardPZ parses `.pz <name> v(out+[,out-]) <source>`.
func (p *parser) cardPZ(toks []string) error {
	if p.jig == nil {
		return p.errf(".pz only valid inside a .jig block")
	}
	// fields() strips parentheses, so "v(out+,out-)" arrives as the two
	// tokens "v" and "out+,out-".
	if len(toks) != 5 || !strings.EqualFold(toks[2], "v") {
		return p.errf(".pz needs: name v(node[,node]) source")
	}
	req := &TFReq{Name: toks[1], Src: strings.ToLower(toks[4])}
	inner := strings.ToLower(toks[3])
	parts := strings.Split(inner, ",")
	switch len(parts) {
	case 1:
		req.OutPos = strings.TrimSpace(parts[0])
	case 2:
		req.OutPos = strings.TrimSpace(parts[0])
		req.OutNeg = strings.TrimSpace(parts[1])
	default:
		return p.errf(".pz output %q malformed", toks[3])
	}
	if req.OutPos == "" {
		return p.errf(".pz output %q malformed", toks[3])
	}
	p.jig.TFs = append(p.jig.TFs, req)
	p.deck.SynthLines++
	return nil
}

func (p *parser) cardSpec(objective bool, toks []string) error {
	if len(toks) < 3 {
		return p.errf(".spec/.obj needs: name 'expr' good=… bad=…")
	}
	s := &Spec{Name: toks[1], ExprText: toks[2], Objective: objective}
	node, err := expr.Parse(toks[2])
	if err != nil {
		return p.errf("spec %s: %v", s.Name, err)
	}
	s.Expr = node
	var haveGood, haveBad bool
	for _, kv := range toks[3:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return p.errf("spec %s: %q is not key=value", s.Name, kv)
		}
		x, err := expr.ParseNumber(val)
		if err != nil {
			return p.errf("spec %s: %v", s.Name, err)
		}
		switch strings.ToLower(key) {
		case "good":
			s.Good, haveGood = x, true
		case "bad":
			s.Bad, haveBad = x, true
		default:
			return p.errf("spec %s: unknown attribute %q", s.Name, key)
		}
	}
	if !haveGood || !haveBad {
		return p.errf("spec %s: both good= and bad= are required", s.Name)
	}
	if s.Good == s.Bad {
		return p.errf("spec %s: good and bad must differ", s.Name)
	}
	if p.deck.Spec(s.Name) != nil {
		return p.errf("duplicate spec %q", s.Name)
	}
	p.deck.Specs = append(p.deck.Specs, s)
	p.deck.SynthLines++
	return nil
}

func (p *parser) cardRegion(toks []string) error {
	if len(toks) < 3 {
		return p.errf(".region needs: device region [margin=x]")
	}
	r := &RegionReq{Device: strings.ToLower(toks[1]), Region: strings.ToLower(toks[2])}
	switch r.Region {
	case "sat", "triode", "on":
	default:
		return p.errf(".region: unknown region %q (want sat, triode, or on)", toks[2])
	}
	for _, kv := range toks[3:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || strings.ToLower(key) != "margin" {
			return p.errf(".region: unknown attribute %q", kv)
		}
		x, err := expr.ParseNumber(val)
		if err != nil {
			return p.errf(".region: %v", err)
		}
		r.Margin = x
	}
	p.deck.Regions = append(p.deck.Regions, r)
	p.deck.SynthLines++
	return nil
}

// element parses one element line.
func (p *parser) element(toks []string) (*circuit.Element, error) {
	name := strings.ToLower(toks[0])
	kind, ok := circuit.KindOf(name)
	if !ok {
		return nil, p.errf("unknown element type for %q", toks[0])
	}
	e := &circuit.Element{Name: name, Kind: kind}
	args := toks[1:]

	parseExprTok := func(tok string) (expr.Node, error) {
		n, err := expr.Parse(tok)
		if err != nil {
			return nil, p.errf("element %s: bad value %q: %v", name, tok, err)
		}
		return n, nil
	}

	switch kind {
	case circuit.KindR, circuit.KindC, circuit.KindL:
		if len(args) != 3 {
			return nil, p.errf("element %s needs 2 nodes and a value", name)
		}
		e.Nodes = lowerAll(args[:2])
		v, err := parseExprTok(args[2])
		if err != nil {
			return nil, err
		}
		e.Value = v

	case circuit.KindV, circuit.KindI:
		if len(args) < 2 {
			return nil, p.errf("element %s needs 2 nodes", name)
		}
		e.Nodes = lowerAll(args[:2])
		rest := args[2:]
		e.Value = &expr.Num{V: 0}
		// Optional DC value, then optional "ac <mag>".
		if len(rest) > 0 && !strings.EqualFold(rest[0], "ac") {
			v, err := parseExprTok(rest[0])
			if err != nil {
				return nil, err
			}
			e.Value = v
			rest = rest[1:]
		}
		if len(rest) > 0 {
			if !strings.EqualFold(rest[0], "ac") || len(rest) != 2 {
				return nil, p.errf("element %s: trailing tokens %v (want: [dc] [ac mag])", name, rest)
			}
			mag, err := expr.ParseNumber(rest[1])
			if err != nil {
				return nil, p.errf("element %s: bad ac magnitude: %v", name, err)
			}
			e.ACMag = mag
		}

	case circuit.KindE, circuit.KindG:
		if len(args) != 5 {
			return nil, p.errf("element %s needs 4 nodes and a gain", name)
		}
		e.Nodes = lowerAll(args[:4])
		v, err := parseExprTok(args[4])
		if err != nil {
			return nil, err
		}
		e.Value = v

	case circuit.KindF, circuit.KindH:
		if len(args) != 4 {
			return nil, p.errf("element %s needs 2 nodes, control source, gain", name)
		}
		e.Nodes = lowerAll(args[:2])
		e.CtrlName = strings.ToLower(args[2])
		v, err := parseExprTok(args[3])
		if err != nil {
			return nil, err
		}
		e.Value = v

	case circuit.KindM:
		if len(args) < 5 {
			return nil, p.errf("mosfet %s needs d g s b model [params]", name)
		}
		e.Nodes = lowerAll(args[:4])
		e.Model = strings.ToLower(args[4])
		e.Params = make(map[string]expr.Node)
		for _, kv := range args[5:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, p.errf("mosfet %s: %q is not key=value", name, kv)
			}
			key = strings.ToLower(key)
			if key != "w" && key != "l" && key != "m" {
				return nil, p.errf("mosfet %s: unknown parameter %q", name, key)
			}
			n, err := parseExprTok(val)
			if err != nil {
				return nil, err
			}
			e.Params[key] = n
		}
		if e.Params["w"] == nil || e.Params["l"] == nil {
			return nil, p.errf("mosfet %s: w= and l= are required", name)
		}

	case circuit.KindQ:
		if len(args) < 4 {
			return nil, p.errf("bjt %s needs c b e model [area=]", name)
		}
		e.Nodes = lowerAll(args[:3])
		e.Model = strings.ToLower(args[3])
		e.Params = make(map[string]expr.Node)
		for _, kv := range args[4:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok || strings.ToLower(key) != "area" {
				return nil, p.errf("bjt %s: unknown parameter %q", name, kv)
			}
			n, err := parseExprTok(val)
			if err != nil {
				return nil, err
			}
			e.Params["area"] = n
		}

	case circuit.KindX:
		if len(args) < 2 {
			return nil, p.errf("instance %s needs nodes and a subcircuit name", name)
		}
		e.Nodes = lowerAll(args[:len(args)-1])
		e.Sub = strings.ToLower(args[len(args)-1])
	}
	return e, nil
}

func lowerAll(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = strings.ToLower(s)
	}
	return out
}
