package astrx

import (
	"fmt"
	"math"
	"strings"

	"astrx/internal/awe"
	"astrx/internal/circuit"
	"astrx/internal/devices"
	"astrx/internal/expr"
	"astrx/internal/linalg"
	"astrx/internal/mna"
	"astrx/internal/telemetry"
)

// EvalWorkspace evaluates the compiled cost function by replaying the
// precompiled plan (plan.go) into persistent, index-addressed storage:
// matrices are re-stamped in place, LU factors and AWE scratch are
// reused, and every name lookup goes through a compile-time index
// table into a slice. After warm-up a steady-state evaluation performs
// no heap allocation and no string work, which is what makes the
// annealer's move loop cheap.
//
// A workspace is single-goroutine state, like the adaptive weights it
// updates; every annealing run owns one via Compiled.Workspace, and
// reporting code that must not disturb the annealer's counters and
// clock evaluates through its own NewWorkspace. Results are pinned by
// internal/bench/testdata/eval_golden.json.
type EvalWorkspace struct {
	c    *Compiled
	plan *evalPlan

	vals     []float64
	nodeV    []float64
	mosOps   []devices.MOSOp
	bjtOps   []devices.BJTOp
	kclRes   []float64
	kclFlow  []float64
	specVals []float64
	tfs      []awe.TF
	err      error
	// full records whether the last run reached the spec expressions;
	// State leaves TFs and spec values out after a bias-only or failed
	// run.
	full bool
	// unstable counts transfer-function fits that produced a model with
	// right-half-plane poles (see awe.ErrUnstable). The model is still
	// measured; the count surfaces how often the fit degraded.
	unstable int

	jigs []jigWS
	fit  awe.FitWorkspace

	// Bump arena for expression-call argument buffers (expr.ArgAllocator).
	args   []expr.Arg
	argOff int

	mags []float64 // nthRootMag scratch
	vI   []float64 // power() recovered branch currents

	valEnv  wsValEnv
	specEnv wsSpecEnv

	// clock samples per-stage wall time for the cost pipeline. nil (the
	// default) keeps every instrumentation site a single pointer check;
	// even an armed clock allocates nothing (telemetry.Clock).
	clock *telemetry.Clock

	dc DCProblem
}

// jigWS is the per-jig matrix and AWE state.
type jigWS struct {
	G, C linalg.Matrix
	eng  awe.Engine
	mu   []float64
}

// NewWorkspace allocates a fresh evaluation workspace for this compiled
// problem.
func (c *Compiled) NewWorkspace() *EvalWorkspace {
	p := c.plan
	ws := &EvalWorkspace{
		c:        c,
		plan:     p,
		vals:     make([]float64, p.nVals),
		nodeV:    make([]float64, p.nNodes),
		mosOps:   make([]devices.MOSOp, p.nMOS),
		bjtOps:   make([]devices.BJTOp, p.nBJT),
		kclRes:   make([]float64, p.nNodes),
		kclFlow:  make([]float64, p.nNodes),
		specVals: make([]float64, len(c.Deck.Specs)),
		tfs:      make([]awe.TF, p.nTFs),
		jigs:     make([]jigWS, len(p.jigs)),
		vI:       make([]float64, len(p.vsrcs)),
	}
	ws.valEnv.ws = ws
	ws.specEnv.ws = ws
	for _, ci := range p.consts {
		ws.vals[ci.idx] = ci.v
	}
	for i, jp := range p.jigs {
		jw := &ws.jigs[i]
		jw.G = *linalg.NewMatrix(jp.size, jp.size)
		jw.C = *linalg.NewMatrix(jp.size, jp.size)
		jw.eng.G, jw.eng.C = &jw.G, &jw.C
		maxMu := 0
		for _, tp := range jp.tfs {
			if 2*tp.q > maxMu {
				maxMu = 2 * tp.q
			}
		}
		jw.mu = make([]float64, maxMu)
	}
	return ws
}

// Workspace returns the compiled problem's lazily created shared
// workspace. Like the adaptive weights, it is not safe for concurrent
// use: parallel annealing runs each compile their own problem.
func (c *Compiled) Workspace() *EvalWorkspace {
	if c.ws == nil {
		c.ws = c.NewWorkspace()
	}
	return c.ws
}

// SetClock attaches a sampled per-stage timer to this workspace's cost
// evaluations (nil detaches). The clock must not be shared with another
// workspace; obtain one per workspace from a shared telemetry.EvalTimer.
func (ws *EvalWorkspace) SetClock(c *telemetry.Clock) {
	ws.clock = c
	for i := range ws.jigs {
		ws.jigs[i].eng.Clock = c
	}
}

// Err returns the first fatal problem of the last evaluation (nil if it
// completed).
func (ws *EvalWorkspace) Err() error { return ws.err }

// JigStats reports the factorization shape of each small-signal jig
// from the most recent evaluation: matrix dimension, structural
// nonzeros, factor fill-in, and whether the sparse replay ran (false →
// dense fallback). The benchmark harness exports these as per-deck
// matrix metrics.
func (ws *EvalWorkspace) JigStats() []linalg.FactorStats {
	out := make([]linalg.FactorStats, len(ws.jigs))
	for i := range ws.jigs {
		out[i] = ws.jigs[i].eng.FactorStats()
	}
	return out
}

// FactorCounts sums the jig engines' factorization counts since the
// workspace was created: sparse replays, dense fallbacks, and symbolic
// analyses run on a pattern-cache miss.
func (ws *EvalWorkspace) FactorCounts() linalg.FactorCounts {
	var fc linalg.FactorCounts
	for i := range ws.jigs {
		fc.Add(ws.jigs[i].eng.FactorCounts())
	}
	return fc
}

// UnstableCount returns how many evaluations this workspace has rejected
// for right-half-plane poles in the reduced model.
func (ws *EvalWorkspace) UnstableCount() int { return ws.unstable }

// SetUnstableCount restores the rejection counter when resuming from a
// checkpoint.
func (ws *EvalWorkspace) SetUnstableCount(n int) { ws.unstable = n }

// resetArgs rewinds the call-argument arena; only legal between
// top-level expression evaluations (calls nest within one).
func (ws *EvalWorkspace) resetArgs() { ws.argOff = 0 }

// argBuf serves expr.ArgAllocator from the bump arena. Growth leaves
// outstanding buffers pointing at the old backing array, so nested
// calls stay valid.
func (ws *EvalWorkspace) argBuf(n int) []expr.Arg {
	if ws.argOff+n > len(ws.args) {
		ws.args = make([]expr.Arg, 2*len(ws.args)+n+8)
		ws.argOff = 0
	}
	b := ws.args[ws.argOff : ws.argOff+n]
	ws.argOff += n
	return b
}

// nv reads a node voltage slot; -1 is ground (0 V).
func (ws *EvalWorkspace) nv(slot int) float64 {
	if slot < 0 {
		return 0
	}
	return ws.nodeV[slot]
}

func (ws *EvalWorkspace) mosOpAt(i int) devices.MOSOp {
	if i < 0 {
		return devices.MOSOp{}
	}
	return ws.mosOps[i]
}

func (ws *EvalWorkspace) bjtOpAt(i int) devices.BJTOp {
	if i < 0 {
		return devices.BJTOp{}
	}
	return ws.bjtOps[i]
}

// wsValEnv is the plain value environment: design variables and consts
// plus the math built-ins.
type wsValEnv struct{ ws *EvalWorkspace }

func (e *wsValEnv) Var(name string) (float64, bool) {
	i, ok := e.ws.plan.valIdx[name]
	if !ok {
		return 0, false
	}
	return e.ws.vals[i], true
}

func (e *wsValEnv) Call(fn string, args []expr.Arg) (float64, error) {
	return expr.MathCall(fn, args)
}

func (e *wsValEnv) ArgBuf(n int) []expr.Arg { return e.ws.argBuf(n) }

// run replays the plan for the design vector x. full=false stops after
// the KCL residuals (the Newton path); full=true continues through AWE
// and the spec expressions.
func (ws *EvalWorkspace) run(x []float64, full bool) {
	ws.err = nil
	ws.full = false
	c, p := ws.c, ws.plan
	if len(x) != len(c.VarList) {
		ws.err = fmt.Errorf("astrx: state has %d values, want %d", len(x), len(c.VarList))
		return
	}
	copy(ws.vals[:c.NUser], x[:c.NUser])
	for _, ci := range p.consts {
		ws.vals[ci.idx] = ci.v
	}
	env := &ws.valEnv

	// Node voltages: free nodes from the x tail, then determined chains.
	// Slots that are neither stay 0, like the golden file's map misses.
	for i, slot := range p.freeIdx {
		ws.nodeV[slot] = x[c.NUser+i]
	}
	for i := range p.det {
		stp := &p.det[i]
		base := 0.0
		if stp.from >= 0 {
			base = ws.nodeV[stp.from]
		}
		ws.resetArgs()
		val, err := stp.src.EvalValue(env)
		if err != nil {
			ws.err = fmt.Errorf("astrx: source %s: %w", stp.src.Name, err)
			return
		}
		ws.nodeV[stp.node] = base + stp.sign*val
	}

	// Device operating points.
	for i := range p.devs {
		d := &p.devs[i]
		if d.kind == DevMOS {
			g, err := ws.geometry(d.elem)
			if err != nil {
				ws.err = err
				return
			}
			ws.mosOps[d.op] = devices.EvalMOS(d.mos.Model, g,
				ws.nv(d.t[0]), ws.nv(d.t[1]), ws.nv(d.t[2]), ws.nv(d.t[3]))
		} else {
			ws.resetArgs()
			area, err := d.elem.EvalParam("area", 1, env)
			if err != nil {
				ws.err = err
				return
			}
			ws.bjtOps[d.op] = devices.EvalBJT(d.bjt.Model, area,
				ws.nv(d.t[0]), ws.nv(d.t[1]), ws.nv(d.t[2]))
		}
	}

	if err := ws.evalKCL(); err != nil {
		ws.err = err
		return
	}
	ws.clock.Mark(telemetry.StageBias)
	if !full {
		return
	}

	for i := range p.jigs {
		if err := ws.evalJig(p.jigs[i], &ws.jigs[i]); err != nil {
			ws.err = err
			return
		}
	}

	for i, s := range c.Deck.Specs {
		ws.resetArgs()
		v, err := s.Expr.Eval(&ws.specEnv)
		if err != nil {
			ws.specVals[i] = math.NaN()
			continue
		}
		ws.specVals[i] = v
	}
	ws.full = true
	ws.clock.Mark(telemetry.StageSpecs)
}

// geometry evaluates a MOS instance's geometry expressions.
func (ws *EvalWorkspace) geometry(e *circuit.Element) (devices.MOSGeom, error) {
	env := &ws.valEnv
	w, err := e.EvalParam("w", 0, env)
	if err != nil {
		return devices.MOSGeom{}, err
	}
	l, err := e.EvalParam("l", 0, env)
	if err != nil {
		return devices.MOSGeom{}, err
	}
	m, err := e.EvalParam("m", 1, env)
	if err != nil {
		return devices.MOSGeom{}, err
	}
	if w <= 0 || l <= 0 {
		return devices.MOSGeom{}, fmt.Errorf("astrx: device %s: nonpositive geometry w=%g l=%g", e.Name, w, l)
	}
	return devices.MOSGeom{W: w, L: l, M: m}, nil
}

// evalKCL accumulates the DC current residuals by replaying the KCL
// program in element order (the accumulation order of the golden file).
func (ws *EvalWorkspace) evalKCL() error {
	p := ws.plan
	for i := range ws.kclRes {
		ws.kclRes[i] = 0
		ws.kclFlow[i] = 0
	}
	add := func(slot int, leaving float64) {
		if slot < 0 {
			return
		}
		ws.kclRes[slot] += leaving
		ws.kclFlow[slot] += math.Abs(leaving)
	}
	env := &ws.valEnv
	for i := range p.kcl {
		op := &p.kcl[i]
		switch op.kind {
		case circuit.KindR:
			ws.resetArgs()
			r, err := op.e.EvalValue(env)
			if err != nil || r == 0 {
				return fmt.Errorf("astrx: bias resistor %s: bad value (%v)", op.e.Name, err)
			}
			iR := (ws.nv(op.n[0]) - ws.nv(op.n[1])) / r
			add(op.n[0], iR)
			add(op.n[1], -iR)
		case circuit.KindI:
			ws.resetArgs()
			v, err := op.e.EvalValue(env)
			if err != nil {
				return fmt.Errorf("astrx: bias source %s: %w", op.e.Name, err)
			}
			add(op.n[0], v)
			add(op.n[1], -v)
		case circuit.KindG:
			ws.resetArgs()
			gm, err := op.e.EvalValue(env)
			if err != nil {
				return fmt.Errorf("astrx: bias vccs %s: %w", op.e.Name, err)
			}
			iG := gm * (ws.nv(op.n[2]) - ws.nv(op.n[3]))
			add(op.n[0], iG)
			add(op.n[1], -iG)
		case circuit.KindM:
			mop := ws.mosOpAt(op.dev)
			add(op.n[0], mop.Ids)
			add(op.n[2], -mop.Ids)
		case circuit.KindQ:
			qop := ws.bjtOpAt(op.dev)
			add(op.n[0], qop.Ic)
			add(op.n[1], qop.Ib)
			add(op.n[2], -(qop.Ic + qop.Ib))
		}
	}
	return nil
}

// evalJig re-stamps one jig's (G, C) pair, refactors, and fits every
// requested transfer function.
func (ws *EvalWorkspace) evalJig(jp *jigPlan, jw *jigWS) error {
	if err := ws.stampJig(jp, jw); err != nil {
		return err
	}
	if err := jw.eng.Refactor(); err != nil {
		return fmt.Errorf("astrx: jig %s: %w", jp.name, err)
	}
	ws.clock.Mark(telemetry.StageFactor)
	for i := range jp.tfs {
		tp := &jp.tfs[i]
		if tp.err != nil {
			return fmt.Errorf("astrx: jig %s tf %s: %w", jp.name, tp.name, tp.err)
		}
		mu := jw.mu[:2*tp.q]
		jw.eng.MomentsInto(mu, tp.b, tp.ip, tp.in)
		ws.clock.Mark(telemetry.StageMoments)
		ws.fitTF(tp, mu)
	}
	return nil
}

// fitTF reduces one transfer function's moments to a pole/zero model.
// An unstable winner means no stable order reproduced the moments
// (awe.ErrUnstable). The model is still measured — often the RHP pole
// is a Padé artifact at the edge of moment resolution, not a physically
// unstable circuit — but the event is counted so runs dominated by
// unstable fits are visible in FailureStats.Unstable and the daemon's
// oblxd_eval_unstable_total metric.
func (ws *EvalWorkspace) fitTF(tp *tfPlan, mu []float64) {
	ws.fit.FitMomentsInto(&ws.tfs[tp.tfIdx], mu, tp.q)
	if tf := &ws.tfs[tp.tfIdx]; tf.Order > 0 && !tf.Stable() {
		ws.unstable++
	}
	ws.clock.Mark(telemetry.StageFit)
}

// stampJig re-stamps one jig's (G, C) pair. The stamp order — gmin
// ties, linear elements, device models — matches the node and branch
// ordering the jig plan was compiled against.
func (ws *EvalWorkspace) stampJig(jp *jigPlan, jw *jigWS) error {
	jw.G.Zero()
	jw.C.Zero()
	st := mna.Stamper{G: &jw.G, C: &jw.C}
	for i := 0; i < jp.nNodes; i++ {
		st.Resistor(i, -1, jp.gstamp)
	}
	env := &ws.valEnv
	for i := range jp.lin {
		op := &jp.lin[i]
		switch op.kind {
		case circuit.KindR:
			ws.resetArgs()
			r, err := op.e.EvalValue(env)
			if err != nil {
				return fmt.Errorf("astrx: jig %s: %w", jp.name, err)
			}
			if r == 0 {
				return fmt.Errorf("astrx: jig %s: %w", jp.name,
					fmt.Errorf("mna: resistor %s has zero resistance", op.e.Name))
			}
			st.Resistor(op.n[0], op.n[1], 1/r)
		case circuit.KindC:
			ws.resetArgs()
			cv, err := op.e.EvalValue(env)
			if err != nil {
				return fmt.Errorf("astrx: jig %s: %w", jp.name, err)
			}
			st.Capacitor(op.n[0], op.n[1], cv)
		case circuit.KindL:
			ws.resetArgs()
			l, err := op.e.EvalValue(env)
			if err != nil {
				return fmt.Errorf("astrx: jig %s: %w", jp.name, err)
			}
			st.Inductor(op.n[0], op.n[1], op.br, l)
		case circuit.KindV:
			st.VSource(op.n[0], op.n[1], op.br)
		case circuit.KindI:
			// Excitation handled by the precomputed input vectors.
		case circuit.KindG:
			ws.resetArgs()
			gm, err := op.e.EvalValue(env)
			if err != nil {
				return fmt.Errorf("astrx: jig %s: %w", jp.name, err)
			}
			st.VCCS(op.n[0], op.n[1], op.n[2], op.n[3], gm)
		case circuit.KindE:
			ws.resetArgs()
			a, err := op.e.EvalValue(env)
			if err != nil {
				return fmt.Errorf("astrx: jig %s: %w", jp.name, err)
			}
			st.VCVS(op.n[0], op.n[1], op.n[2], op.n[3], op.br, a)
		case circuit.KindF:
			ws.resetArgs()
			f, err := op.e.EvalValue(env)
			if err != nil {
				return fmt.Errorf("astrx: jig %s: %w", jp.name, err)
			}
			if op.err != nil {
				return fmt.Errorf("astrx: jig %s: %w", jp.name, op.err)
			}
			st.CCCS(op.n[0], op.n[1], op.cb, f)
		case circuit.KindH:
			ws.resetArgs()
			h, err := op.e.EvalValue(env)
			if err != nil {
				return fmt.Errorf("astrx: jig %s: %w", jp.name, err)
			}
			if op.err != nil {
				return fmt.Errorf("astrx: jig %s: %w", jp.name, op.err)
			}
			st.CCVS(op.n[0], op.n[1], op.br, op.cb, h)
		}
	}
	for i := range jp.devs {
		d := &jp.devs[i]
		if d.mos {
			op := ws.mosOps[d.op]
			dn, sn := d.d, d.s
			if op.Swapped {
				dn, sn = sn, dn
			}
			// Conductances stamp as 1/(1/g): the golden file's path
			// emitted a resistor of value 1/g and mna recomputed the
			// conductance.
			if op.Gm != 0 {
				st.VCCS(dn, sn, d.g, sn, op.Gm)
			}
			if op.Gmbs != 0 {
				st.VCCS(dn, sn, d.b, sn, op.Gmbs)
			}
			if op.Gds != 0 {
				st.Resistor(dn, sn, 1/(1/op.Gds))
			}
			if cv := op.Caps.Cgs; cv != 0 && d.g != sn {
				st.Capacitor(d.g, sn, cv)
			}
			if cv := op.Caps.Cgd; cv != 0 && d.g != dn {
				st.Capacitor(d.g, dn, cv)
			}
			if cv := op.Caps.Cgb; cv != 0 && d.g != d.b {
				st.Capacitor(d.g, d.b, cv)
			}
			if cv := op.Caps.Cdb; cv != 0 && dn != d.b {
				st.Capacitor(dn, d.b, cv)
			}
			if cv := op.Caps.Csb; cv != 0 && sn != d.b {
				st.Capacitor(sn, d.b, cv)
			}
		} else {
			op := ws.bjtOps[d.op]
			cN, bN, eN := d.d, d.g, d.s
			if op.Gm != 0 {
				st.VCCS(cN, eN, bN, eN, op.Gm)
			}
			if op.Gpi != 0 {
				st.Resistor(bN, eN, 1/(1/op.Gpi))
			}
			if op.Go != 0 {
				st.Resistor(cN, eN, 1/(1/op.Go))
			}
			if op.Gmu != 0 {
				st.Resistor(bN, cN, 1/(1/op.Gmu))
			}
			if cv := op.Cpi; cv != 0 && bN != eN {
				st.Capacitor(bN, eN, cv)
			}
			if cv := op.Cmu; cv != 0 && bN != cN {
				st.Capacitor(bN, cN, cv)
			}
		}
	}
	ws.clock.Mark(telemetry.StageStamp)
	return nil
}

// Cost evaluates C(x) in the workspace (the annealer's hot path).
func (ws *EvalWorkspace) Cost(x []float64) float64 {
	return ws.CostDetail(x).Total
}

// Evaluate runs the full plan for x and returns the state. Unlike Cost
// and CostDetail it leaves the adaptive weights untouched.
func (ws *EvalWorkspace) Evaluate(x []float64) *EvalState {
	ws.run(x, true)
	return ws.State()
}

// EvaluateBias runs only the bias part of the plan — node voltages,
// device operating points and KCL residuals, no AWE and no specs — and
// returns the state, whose TFs and SpecVals stay empty.
func (ws *EvalWorkspace) EvaluateBias(x []float64) *EvalState {
	ws.run(x, false)
	return ws.State()
}

// CostDetail evaluates the full state in the workspace and itemizes the
// cost, updating the compiled problem's adaptive-weight statistics as a
// side effect.
func (ws *EvalWorkspace) CostDetail(x []float64) CostBreakdown {
	ws.timedRun(x)
	return ws.costFromRun()
}

// timedRun runs the full plan for x with the stage clock armed around
// it, so a sampled evaluation reports every stage it reached.
func (ws *EvalWorkspace) timedRun(x []float64) {
	ws.clock.Begin()
	ws.run(x, true)
	ws.clock.End()
}

// costFromRun assembles C(x) from the last run, updating the
// adaptive-weight EMAs as a side effect.
func (ws *EvalWorkspace) costFromRun() CostBreakdown {
	var out CostBreakdown
	c := ws.c
	w := c.Weights
	if ws.err != nil {
		out.Failed = true
		out.Total = c.Opt.FailCost
		return out
	}

	for i, s := range c.Deck.Specs {
		val := ws.specVals[i]
		if math.IsNaN(val) || math.IsInf(val, 0) {
			// Unevaluatable spec: treat as far beyond "bad".
			out.Perf += w.Spec[s.Name] * specFailUnits
			if !s.Objective {
				w.emaSpec[s.Name] = emaDecay*w.emaSpec[s.Name] + (1 - emaDecay)
			}
			continue
		}
		u := Normalize(s, val)
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

	regViol := ws.regionViolation()
	out.Dev = w.Region * regViol
	w.emaReg = emaDecay*w.emaReg + (1-emaDecay)*math.Min(regViol, 1)

	kclViol := ws.kclViolation()
	out.DC = w.KCL * kclViol
	w.emaKCL = emaDecay*w.emaKCL + (1-emaDecay)*math.Min(kclViol, 1)

	out.Total = out.Objective + out.Perf + out.Dev + out.DC
	if math.IsNaN(out.Total) || math.IsInf(out.Total, 0) {
		out.Failed = true
		out.Total = c.Opt.FailCost
	}
	return out
}

// regionViolation accumulates the operating-region violation (volts)
// from the last run — the raw C^dev quantity, without weights or EMA
// side effects, shared by the scalar and worst-case-corner assemblies.
func (ws *EvalWorkspace) regionViolation() float64 {
	regViol := 0.0
	for i, r := range ws.c.Deck.Regions {
		opIdx := ws.plan.regions[i]
		if opIdx < 0 {
			continue
		}
		op := ws.mosOps[opIdx]
		v := 0.0
		switch r.Region {
		case "sat":
			v = math.Max(0, op.Vdsat+r.Margin-op.Vds)
		case "triode":
			v = math.Max(0, op.Vds-(op.Vdsat-r.Margin))
		case "on":
			v = math.Max(0, op.Vth+r.Margin-op.Vgs)
		}
		regViol += v
	}
	return regViol
}

// kclViolation accumulates the normalized relaxed-dc KCL violation from
// the last run — the raw C^dc quantity of eq. (3).
func (ws *EvalWorkspace) kclViolation() float64 {
	kclViol := 0.0
	for _, slot := range ws.plan.freeIdx {
		res := math.Abs(ws.kclRes[slot])
		if res <= ws.c.Opt.KCLTolAbs {
			continue
		}
		kclViol += (res - ws.c.Opt.KCLTolAbs) / (ws.kclFlow[slot] + 1e-6)
	}
	return kclViol
}

// State projects the workspace's last evaluation into a name-keyed
// EvalState for inspection and verification code. The maps are freshly
// allocated, but TF pointers alias workspace storage: they are valid
// only until the next evaluation. Contents are meaningful when Err is
// nil; after a failed run they are best-effort, partially filled.
func (ws *EvalWorkspace) State() *EvalState {
	c, p := ws.c, ws.plan
	st := &EvalState{
		C:        c,
		Vals:     make(map[string]float64, p.nVals),
		NodeV:    make(map[string]float64, len(p.vIdx)),
		MOSOps:   make(map[string]devices.MOSOp, p.nMOS),
		BJTOps:   make(map[string]devices.BJTOp, p.nBJT),
		KCL:      make(map[string]float64, len(c.Bias.FreeNodes)),
		KCLFlow:  make(map[string]float64, len(c.Bias.FreeNodes)),
		TFs:      make(map[string]*awe.TF, p.nTFs),
		SpecVals: make(map[string]float64, len(c.Deck.Specs)),
		Err:      ws.err,
	}
	for name, i := range p.valIdx {
		st.Vals[name] = ws.vals[i]
	}
	for name, slot := range p.vIdx {
		st.NodeV[name] = ws.nv(slot)
	}
	for i := range p.devs {
		d := &p.devs[i]
		if d.kind == DevMOS {
			st.MOSOps[d.name] = ws.mosOps[d.op]
		} else {
			st.BJTOps[d.name] = ws.bjtOps[d.op]
		}
	}
	for i, n := range c.Bias.FreeNodes {
		st.KCL[n] = ws.kclRes[p.freeIdx[i]]
		st.KCLFlow[n] = ws.kclFlow[p.freeIdx[i]]
	}
	if !ws.full {
		return st
	}
	for _, jp := range p.jigs {
		for i := range jp.tfs {
			tp := &jp.tfs[i]
			st.TFs[tp.name] = &ws.tfs[tp.tfIdx]
		}
	}
	for i, s := range c.Deck.Specs {
		st.SpecVals[s.Name] = ws.specVals[i]
	}
	return st
}

// MeasureSpec evaluates a spec expression against the last evaluation.
// Transfer-function measurements go to backend first; anything it
// leaves unhandled reads the AWE models. Package verify uses this to
// re-measure the specs with direct AC sweeps.
func (ws *EvalWorkspace) MeasureSpec(e expr.Node, backend TFBackend) (float64, error) {
	ws.resetArgs()
	return e.Eval(&wsSpecEnv{ws: ws, backend: backend})
}

// ---------------------------------------------------------------------------
// wsSpecEnv: the rich environment spec expressions evaluate in.

// wsSpecEnv resolves spec identifiers and measurement calls over the
// workspace state. backend is the optional TFBackend hook; it is nil on
// the annealer's path.
type wsSpecEnv struct {
	ws      *EvalWorkspace
	backend TFBackend
}

// tfFuncs lists the measurement functions that take a transfer-function
// name as their first argument.
var tfFuncs = map[string]bool{
	"dc_gain": true, "ugf": true, "phase_margin": true, "bw3db": true,
	"pole": true, "zero": true, "gain_at": true,
}

func (e *wsSpecEnv) ArgBuf(n int) []expr.Arg { return e.ws.argBuf(n) }

// Var resolves design variables, constants, and precompiled dotted
// device-parameter paths.
func (e *wsSpecEnv) Var(name string) (float64, bool) {
	ws := e.ws
	if i, ok := ws.plan.valIdx[name]; ok {
		return ws.vals[i], true
	}
	if ref, ok := ws.plan.devRefs[name]; ok {
		if ref.mos {
			return mosParam(ws.mosOps[ref.op], ref.param)
		}
		return bjtParam(ws.bjtOps[ref.op], ref.param)
	}
	return 0, false
}

// Call resolves the measurement functions over the workspace state and
// the bias circuit, falling back to the math built-ins.
func (e *wsSpecEnv) Call(fn string, args []expr.Arg) (float64, error) {
	ws := e.ws
	if e.backend != nil && tfFuncs[fn] && len(args) >= 1 && args[0].IsName {
		v, handled, err := e.backend.Measure(fn, args[0].Name, args[1:])
		if err != nil {
			return 0, err
		}
		if handled {
			return v, nil
		}
	}
	tfArg := func() (*awe.TF, error) {
		if len(args) < 1 || !args[0].IsName {
			return nil, fmt.Errorf("astrx: %s needs a transfer function name", fn)
		}
		i, ok := ws.plan.tfIdx[args[0].Name]
		if !ok {
			return nil, fmt.Errorf("astrx: unknown transfer function %q", args[0].Name)
		}
		// An unstable model (see awe.ErrUnstable) is still measured: the
		// fitter already preferred any stable order that reproduced the
		// moments, so this is the best available model. The fit site
		// counted the event; FailureStats.Unstable and the daemon's
		// oblxd_eval_unstable_total metric tell operators how much to
		// trust the numbers.
		return &ws.tfs[i], nil
	}
	switch fn {
	case "dc_gain":
		tf, err := tfArg()
		if err != nil {
			return 0, err
		}
		return tf.DCGain(), nil
	case "ugf": // unity-gain frequency in Hz
		tf, err := tfArg()
		if err != nil {
			return 0, err
		}
		return tf.UGF() / (2 * math.Pi), nil
	case "phase_margin":
		tf, err := tfArg()
		if err != nil {
			return 0, err
		}
		return tf.PhaseMarginDeg(), nil
	case "bw3db": // -3 dB bandwidth in Hz
		tf, err := tfArg()
		if err != nil {
			return 0, err
		}
		return tf.BW3dB() / (2 * math.Pi), nil
	case "pole": // magnitude of i-th slowest pole, Hz (1-based)
		tf, err := tfArg()
		if err != nil {
			return 0, err
		}
		if len(args) != 2 {
			return 0, fmt.Errorf("astrx: pole(tf, i) needs an index")
		}
		return ws.nthRootMag(tf.Poles, int(args[1].Value))
	case "zero":
		tf, err := tfArg()
		if err != nil {
			return 0, err
		}
		if len(args) != 2 {
			return 0, fmt.Errorf("astrx: zero(tf, i) needs an index")
		}
		return ws.nthRootMag(tf.Zeros, int(args[1].Value))
	case "gain_at": // |H| at frequency f (Hz)
		tf, err := tfArg()
		if err != nil {
			return 0, err
		}
		if len(args) != 2 {
			return 0, fmt.Errorf("astrx: gain_at(tf, hz) needs a frequency")
		}
		return tf.GainMagAt(2 * math.Pi * args[1].Value), nil
	case "v": // bias-circuit node voltage
		if len(args) != 1 || !args[0].IsName {
			return 0, fmt.Errorf("astrx: v(node) needs a node name")
		}
		node := strings.ToLower(args[0].Name)
		slot, ok := ws.plan.vIdx[node]
		if !ok {
			return 0, fmt.Errorf("astrx: v(%s): unknown bias node", node)
		}
		return ws.nv(slot), nil
	case "active_area": // total gate area of all MOS devices, m²
		return ws.activeArea()
	case "power": // total supply power of the bias circuit, W
		return ws.power()
	}
	return expr.MathCall(fn, args)
}

// nthRootMag returns |root_i| / 2π for the i-th smallest-magnitude root,
// sorting in reusable magnitude scratch.
func (ws *EvalWorkspace) nthRootMag(roots []complex128, i int) (float64, error) {
	if i < 1 || i > len(roots) {
		return 0, fmt.Errorf("astrx: root index %d out of range (have %d)", i, len(roots))
	}
	if cap(ws.mags) < len(roots) {
		ws.mags = make([]float64, len(roots))
	}
	mags := ws.mags[:len(roots)]
	for k, r := range roots {
		mags[k] = math.Hypot(real(r), imag(r))
	}
	for a := 0; a < len(mags); a++ {
		for b := a + 1; b < len(mags); b++ {
			if mags[b] < mags[a] {
				mags[a], mags[b] = mags[b], mags[a]
			}
		}
	}
	return mags[i-1] / (2 * math.Pi), nil
}

// activeArea sums W·L·M over all MOS devices in DevOrder, the
// summation order of the golden file.
func (ws *EvalWorkspace) activeArea() (float64, error) {
	tot := 0.0
	for i := range ws.plan.devs {
		d := &ws.plan.devs[i]
		if d.kind != DevMOS {
			continue
		}
		g, err := ws.geometry(d.elem)
		if err != nil {
			return 0, err
		}
		tot += g.W * g.L * g.Mult()
	}
	return tot, nil
}

// power sums |V·I| over the bias circuit's independent voltage sources.
// It replays the precompiled peeling schedule: each step recovers one
// voltage source's branch current from the already known ones and the
// non-source element currents at the chosen node, which handles
// bias-voltage generators stacked on the supply nodes.
func (ws *EvalWorkspace) power() (float64, error) {
	p := ws.plan
	if p.powerErr != nil {
		return 0, p.powerErr
	}
	env := &ws.valEnv
	for si := range p.power {
		stp := &p.power[si]
		otherV := 0.0
		for _, o := range stp.others {
			otherV += o.sign * ws.vI[o.src]
		}
		rest := 0.0
		for ci := range stp.conts {
			cn := &stp.conts[ci]
			switch cn.kind {
			case circuit.KindR:
				r, err := cn.e.EvalValue(env)
				if err != nil || r == 0 {
					return 0, fmt.Errorf("astrx: power(): resistor %s: %v", cn.e.Name, err)
				}
				iR := (ws.nv(cn.n[0]) - ws.nv(cn.n[1])) / r
				if cn.touches == 0 {
					rest += iR
				} else {
					rest -= iR
				}
			case circuit.KindI:
				v, err := cn.e.EvalValue(env)
				if err != nil {
					return 0, err
				}
				if cn.touches == 0 {
					rest += v
				} else {
					rest -= v
				}
			case circuit.KindG:
				gm, err := cn.e.EvalValue(env)
				if err != nil {
					return 0, err
				}
				iG := gm * (ws.nv(cn.n[2]) - ws.nv(cn.n[3]))
				switch cn.touches {
				case 0:
					rest += iG
				case 1:
					rest -= iG
				}
			case circuit.KindM:
				op := ws.mosOpAt(cn.dev)
				switch cn.touches {
				case 0:
					rest += op.Ids
				case 2:
					rest -= op.Ids
				}
			case circuit.KindQ:
				op := ws.bjtOpAt(cn.dev)
				switch cn.touches {
				case 0:
					rest += op.Ic
				case 1:
					rest += op.Ib
				case 2:
					rest -= op.Ic + op.Ib
				}
			}
		}
		if stp.negate {
			ws.vI[stp.src] = -(rest + otherV)
		} else {
			ws.vI[stp.src] = rest + otherV
		}
	}
	tot := 0.0
	for i, s := range p.vsrcs {
		v, err := s.EvalValue(env)
		if err != nil {
			return 0, err
		}
		tot += math.Abs(v * ws.vI[i])
	}
	return tot, nil
}
