package netlist

import (
	"errors"
	"fmt"
	"strings"

	"astrx/internal/expr"
)

// Validate pre-flights a parsed deck before the expensive compile/anneal
// machinery sees it: structural problems (missing blocks, duplicate
// names, inverted variable ranges) and dangling references (a spec
// measuring a transfer function no .pz declares, a .pz naming a source
// its jig doesn't contain, a .region constraining a device the bias
// circuit doesn't instantiate) are all collected and returned as one
// joined error. The synthesis service calls this at submit time so a bad
// deck is rejected with HTTP 400 instead of failing minutes later inside
// a worker; the CLIs call it for the same early, complete diagnosis.
//
// Validate is conservative about expressions: identifiers it cannot
// classify statically (dotted device-parameter paths, node-voltage
// accessors) are left for the compiler, which resolves them against the
// flattened circuit. A nil error therefore does not guarantee the deck
// compiles — only that it is free of the mistakes detectable without
// compiling.
func (d *Deck) Validate() error {
	var errs []error
	addf := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("netlist: %s", fmt.Sprintf(format, args...)))
	}

	// Structural minimums — mirrors what Compile requires, but reported
	// all at once alongside everything else.
	if d.Bias == nil {
		addf("deck has no .bias circuit")
	}
	if len(d.Jigs) == 0 {
		addf("deck has no .jig circuits")
	}
	if len(d.Vars) == 0 {
		addf("deck declares no .var design variables")
	}
	if len(d.Specs) == 0 {
		addf("deck declares no .spec/.obj cards — nothing to optimize")
	}

	// Design variables: unique names, sane ranges, no collision with
	// constants.
	seenVar := make(map[string]bool, len(d.Vars))
	for _, v := range d.Vars {
		if seenVar[v.Name] {
			addf("duplicate .var %q", v.Name)
		}
		seenVar[v.Name] = true
		if _, isConst := d.Consts[v.Name]; isConst {
			addf(".var %q collides with a .const of the same name", v.Name)
		}
		if !(v.Min < v.Max) {
			addf(".var %s: min %g is not below max %g", v.Name, v.Min, v.Max)
		}
		if !v.Continuous && v.Min <= 0 {
			addf(".var %s: log-grid variable needs min > 0 (got %g)", v.Name, v.Min)
		}
		if v.Init != 0 && (v.Init < v.Min || v.Init > v.Max) {
			addf(".var %s: init %g outside [%g, %g]", v.Name, v.Init, v.Min, v.Max)
		}
	}

	// Jigs: unique names, and every .pz request must resolve inside its
	// own jig. Collect the TF names specs may reference.
	tfNames := make(map[string]bool)
	seenJig := make(map[string]bool, len(d.Jigs))
	for _, j := range d.Jigs {
		if seenJig[j.Name] {
			addf("duplicate .jig %q", j.Name)
		}
		seenJig[j.Name] = true

		elems := make(map[string]bool, len(j.Elements))
		nodes := make(map[string]bool)
		for _, e := range j.Elements {
			elems[strings.ToLower(e.Name)] = true
			for _, n := range e.Nodes {
				nodes[n] = true
			}
		}
		for _, tf := range j.TFs {
			if tfNames[tf.Name] {
				addf("jig %s: duplicate transfer function %q", j.Name, tf.Name)
			}
			tfNames[tf.Name] = true
			if !elems[strings.ToLower(tf.Src)] {
				addf("jig %s: .pz %s references source %q not in the jig", j.Name, tf.Name, tf.Src)
			}
			if !nodes[tf.OutPos] {
				addf("jig %s: .pz %s output node %q not in the jig", j.Name, tf.Name, tf.OutPos)
			}
			if tf.OutNeg != "" && !nodes[tf.OutNeg] {
				addf("jig %s: .pz %s output node %q not in the jig", j.Name, tf.Name, tf.OutNeg)
			}
		}
	}

	// Specs: unique names, distinct good/bad anchors, and no references
	// to unknown variables or transfer functions.
	seenSpec := make(map[string]bool, len(d.Specs))
	for _, s := range d.Specs {
		if seenSpec[s.Name] {
			addf("duplicate .spec/.obj %q", s.Name)
		}
		seenSpec[s.Name] = true
		if s.Good == s.Bad {
			addf("spec %s: good and bad anchors are both %g — direction is undefined", s.Name, s.Good)
		}
		if s.Expr == nil {
			continue
		}
		// Pre-pass: classify bare-identifier call arguments, so the
		// generic identifier check below doesn't misfire on them. A TF
		// measure's argument names a .pz transfer function; v()'s
		// argument names a circuit node, which only the compiler can
		// resolve against the flattened circuit.
		tfArg := make(map[*expr.Var]string) // arg → measure name
		exempt := make(map[*expr.Var]bool)
		expr.Walk(s.Expr, func(n expr.Node) {
			c, ok := n.(*expr.Call)
			if !ok {
				return
			}
			for _, a := range c.Args {
				v, isVar := a.(*expr.Var)
				if !isVar {
					continue
				}
				switch {
				case IsTFMeasure(c.Fn):
					tfArg[v] = c.Fn
				case c.Fn == "v":
					exempt[v] = true
				}
			}
		})
		expr.Walk(s.Expr, func(n expr.Node) {
			t, ok := n.(*expr.Var)
			if !ok || exempt[t] {
				return
			}
			// Dotted paths (xamp.m1.gm) resolve against the flattened
			// circuit at compile time — out of scope here.
			if strings.Contains(t.Name, ".") {
				return
			}
			if seenVar[t.Name] || tfNames[t.Name] {
				return
			}
			if _, isConst := d.Consts[t.Name]; isConst {
				return
			}
			if fn, isTFArg := tfArg[t]; isTFArg {
				// dc_gain(tff) with a typo'd name is this class of error.
				addf("spec %s: %s() references unknown transfer function %q",
					s.Name, fn, t.Name)
				return
			}
			addf("spec %s: unknown identifier %q", s.Name, t.Name)
		})
	}

	d.validateCorners(addf)

	// Regions: the constrained device must exist on the path the bias
	// circuit instantiates. Only the first path segment is checkable
	// without flattening — it must name an element of the bias circuit.
	if d.Bias != nil {
		biasElems := make(map[string]bool, len(d.Bias.Elements))
		for _, e := range d.Bias.Elements {
			biasElems[strings.ToLower(e.Name)] = true
		}
		for _, r := range d.Regions {
			head, _, dotted := strings.Cut(r.Device, ".")
			if !dotted {
				head = r.Device
			}
			if !biasElems[strings.ToLower(head)] {
				addf(".region %s: no element %q in the .bias circuit", r.Device, head)
			}
		}
	}

	return errors.Join(errs...)
}

// IsTFMeasure reports whether fn is a measurement function whose
// first, bare-identifier argument names a transfer function. Validate
// and the evaluator share this list.
func IsTFMeasure(fn string) bool {
	switch fn {
	case "dc_gain", "ugf", "phase_margin", "bw3db", "pole", "zero", "gain_at":
		return true
	}
	return false
}
