package astrx

import (
	"fmt"

	"astrx/internal/circuit"
	"astrx/internal/devices"
	"astrx/internal/linalg"
)

// DCProblem adapts the compiled bias circuit to dcsolve.Problem: the
// unknowns are the free node voltages, the user design variables are
// frozen at the values carried in the prefix of x. It runs on the
// compiled problem's shared workspace: Residual and Jacobian replay the
// precompiled KCL program with no per-call allocation, and successive
// DCProblem calls on one Compiled reuse the same storage (the annealer
// builds one per Newton move).
type DCProblem struct {
	c     *Compiled
	ws    *EvalWorkspace
	userX []float64 // length NUser
	full  []float64 // scratch full vector
}

// DCProblem builds the Newton problem with the design variables taken
// from the prefix of x (the rest of x is ignored).
func (c *Compiled) DCProblem(x []float64) *DCProblem {
	ws := c.Workspace()
	p := &ws.dc
	p.c = c
	p.ws = ws
	p.userX = append(p.userX[:0], x[:c.NUser]...)
	if cap(p.full) < len(c.VarList) {
		p.full = make([]float64, len(c.VarList))
	}
	p.full = p.full[:len(c.VarList)]
	copy(p.full, p.userX)
	return p
}

// N returns the number of free node voltages.
func (p *DCProblem) N() int { return len(p.c.Bias.FreeNodes) }

// eval runs the bias-only part of the plan (node voltages, operating
// points, KCL) on the workspace.
func (p *DCProblem) eval(v []float64) error {
	copy(p.full, p.userX)
	copy(p.full[p.c.NUser:], v)
	p.ws.run(p.full, false)
	return p.ws.err
}

// Residual fills f with the KCL residual (current leaving) at each free
// node.
func (p *DCProblem) Residual(v, f []float64) error {
	if err := p.eval(v); err != nil {
		return err
	}
	for i, slot := range p.ws.plan.freeIdx {
		f[i] = p.ws.kclRes[slot]
	}
	return nil
}

// Jacobian fills j with ∂residual/∂(free node voltage) using the device
// small-signal conductances and linear element stamps. It replays the
// same precompiled KCL program as Residual, stamping only entries whose
// row and column are both free nodes.
func (p *DCProblem) Jacobian(v []float64, j *linalg.Matrix) error {
	if err := p.eval(v); err != nil {
		return err
	}
	ws := p.ws
	plan := ws.plan
	free := plan.freeSlot
	stamp := func(rs, cs int, g float64) {
		if rs < 0 || cs < 0 {
			return
		}
		r, c := free[rs], free[cs]
		if r >= 0 && c >= 0 {
			j.Add(r, c, g)
		}
	}
	env := &ws.valEnv

	for i := range plan.kcl {
		op := &plan.kcl[i]
		switch op.kind {
		case circuit.KindR:
			ws.resetArgs()
			rv, err := op.e.EvalValue(env)
			if err != nil || rv == 0 {
				return fmt.Errorf("astrx: jacobian: resistor %s: %v", op.e.Name, err)
			}
			g := 1 / rv
			stamp(op.n[0], op.n[0], g)
			stamp(op.n[1], op.n[1], g)
			stamp(op.n[0], op.n[1], -g)
			stamp(op.n[1], op.n[0], -g)
		case circuit.KindG:
			ws.resetArgs()
			gm, err := op.e.EvalValue(env)
			if err != nil {
				return err
			}
			stamp(op.n[0], op.n[2], gm)
			stamp(op.n[0], op.n[3], -gm)
			stamp(op.n[1], op.n[2], -gm)
			stamp(op.n[1], op.n[3], gm)
		case circuit.KindM:
			mop := ws.mosOpAt(op.dev)
			dd, dg, ds, db := mosTerminalPartials(mop)
			// Terminal order d g s b = n[0..3]; row d: +Ids, row s: -Ids.
			parts := [4]float64{dd, dg, ds, db}
			for k, dIds := range parts {
				stamp(op.n[0], op.n[k], dIds)
				stamp(op.n[2], op.n[k], -dIds)
			}
		case circuit.KindQ:
			qop := ws.bjtOpAt(op.dev)
			gmE := qop.Gm + qop.Go // ∂Ic'/∂vbe'
			gmC := -qop.Go         // ∂Ic'/∂vbc'
			// Terminal partials through the compile-time column
			// selection, which reproduces the tied-terminal overwrite
			// semantics of the original map-literal formulation.
			dIc := [3]float64{gmE + gmC, -gmE, -gmC}
			dIb := [3]float64{qop.Gpi + qop.Gmu, -qop.Gpi, -qop.Gmu}
			for _, s := range op.qsel {
				stamp(op.n[0], s.col, dIc[s.coef])
				stamp(op.n[2], s.col, -dIc[s.coef])
			}
			for _, s := range op.qsel {
				stamp(op.n[1], s.col, dIb[s.coef])
				stamp(op.n[2], s.col, -dIb[s.coef])
			}
		}
	}
	return nil
}

// mosTerminalPartials maps the operating point's primed-frame
// conductances onto terminal-frame partial derivatives of the drain
// terminal current: (∂Ids/∂vd, ∂vg, ∂vs, ∂vb). Polarity flips cancel;
// source/drain swaps exchange the roles of gds and the source sum and
// negate the gate/bulk terms.
func mosTerminalPartials(op devices.MOSOp) (dd, dg, ds, db float64) {
	gm, gds, gmbs := op.Gm, op.Gds, op.Gmbs
	if !op.Swapped {
		return gds, gm, -(gm + gds + gmbs), gmbs
	}
	return gm + gds + gmbs, -gm, -gds, -gmbs
}
