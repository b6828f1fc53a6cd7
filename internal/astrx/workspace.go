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
	"astrx/internal/netlist"
	"astrx/internal/telemetry"
)

// EvalWorkspace evaluates the compiled cost function by replaying the
// precompiled plan (plan.go) into persistent, index-addressed storage:
// matrices are re-stamped in place, LU factors and AWE scratch are
// reused, and node, device and transfer-function names resolve through
// compile-time index tables into slices. The jig pass solves each
// transfer function for μ0 alone, and a model is fitted only when
// something reads it (model): most candidates' gain is below unity,
// where ugf and phase_margin read nothing but μ0. A jig whose stamped
// (G, C) pair repeats the one its engine factored last keeps its
// factors and the transfer-function models computed from them
// (evalJig), and a device whose geometry and terminal voltages repeat,
// bit for bit, the inputs of the operating point it holds keeps that
// point (evalMOS, evalBJT). After warm-up a steady-state evaluation
// performs no heap allocation, which is what makes the annealer's move
// loop cheap.
// Expression variables still resolve by name through the plan's valIdx
// map (wsValEnv.Var).
//
// A workspace is single-goroutine state, like the adaptive weights it
// updates, and the compiled problem holds none: each user builds its
// own with NewWorkspace. An annealing run evaluates its candidates and
// solves its Newton problems (DCProblem) on its lane set's workspaces
// (NewCornerBatch), one per lane; reporting code that must not disturb
// the annealer's counters and clock evaluates through its own. A
// workspace's results depend only on the inputs of its last run, never
// on the runs before it, so sharing one between cost evaluations and
// Newton replays moves no bit. Results are pinned by
// internal/bench/testdata/eval_golden.json.
type EvalWorkspace struct {
	c    *Compiled
	plan *evalPlan

	vals   []float64
	nodeV  []float64
	mosOps []devices.MOSOp
	// mosDevs and bjtDevs sit beside mosOps and bjtOps: the inputs each
	// stored operating point was evaluated from, and for a MOS the parts
	// of it still to compute.
	mosDevs  []mosDev
	bjtOps   []devices.BJTOp
	bjtDevs  []bjtDev
	kclRes   []float64
	kclFlow  []float64
	specVals []float64
	tfs      []awe.TF
	err      error
	// runs numbers the plan replays (the first run is 1). The Newton
	// problem's Jacobian checks it to know that the run it depends on is
	// still the last one.
	runs uint64
	// geomOK records that the last run evaluated every device's
	// geometry, so mosDevs holds W, L and M at the current design
	// variables for active_area() and the series resistors.
	geomOK bool
	// full records whether the last run reached the spec expressions;
	// State leaves TFs and spec values out after a bias-only or failed
	// run.
	full bool
	// unstable counts the models with right-half-plane poles that the
	// cost function's specs read, once per run per transfer function.
	// The model is still measured; the count surfaces how often the fit
	// degraded.
	unstable int
	// slots sits beside tfs: where each model came from, and its
	// unity-gain frequency.
	slots []tfSlot

	// jigs is indexed like plan.jigs; only a jig that factors its own
	// matrix (jigPlan.mat) has matrices and an engine in use.
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

	// counts records the workspace's device, Newton-problem and unread
	// counts; Counts adds the jig engines' and the fit workspace's.
	counts Counts

	dc DCProblem

	// jigPass evaluates one jig of a full run: evalJig. It is a field so
	// that tests can hold the lazy fit to the eager jig pass it replaced.
	jigPass func(ws *EvalWorkspace, jp *jigPlan, jw *jigWS, factor bool) error
}

// mosDev is the workspace's per-MOS state beside its operating point:
// the geometry and terminal voltages (d, g, s, b) the stored point was
// evaluated at, whether it holds one, and the parts of it still to
// compute. A run writes the point and its inputs together, so a device
// never holds a point computed from other inputs than its key.
type mosDev struct {
	g    devices.MOSGeom
	v    [4]float64
	has  bool
	lack opParts // completeOps computes these parts on demand
}

// bjtDev is the workspace's per-BJT state beside its operating point:
// the area and terminal voltages (c, b, e) the stored point was
// evaluated at, and whether it holds one.
type bjtDev struct {
	area float64
	v    [3]float64
	has  bool
}

// sameBits reports whether a and b are the same float64 bit pattern:
// −0 and +0 differ, and a NaN matches only itself.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// opParts names parts of a MOS operating point beyond the current part
// (devices.EvalMOSCurrent).
type opParts uint8

const (
	opPartials opParts = 1 << iota // Gm, Gds, Gmbs
	opCaps                         // Caps
)

// tfSlot records where a TF slot's model came from, so an evaluation
// that finds its jig's factors unchanged keeps the model instead of
// recomputing the same bits, and a reader can fit it from those factors.
type tfSlot struct {
	// gen is the generation (awe.Engine.Gen) of the factors the model
	// was computed from; 0 before the first write completes.
	gen uint64
	// fitted marks a Padé model; false is the order-0 model of μ0 alone
	// that the jig pass leaves until something reads the model.
	fitted bool
	// unstable records that the fitted model has right-half-plane
	// poles, so a spec reading a kept model counts it again, as
	// refitting would.
	unstable bool
	// read is the run (EvalWorkspace.runs) whose specs last read the
	// model: each run counts a model's instability, or its not being
	// read, once.
	read uint64
	// version is bumped on every write of the slot. The UGF memo is
	// keyed on it: ugf and phase_margin of one model share one search,
	// across evaluations for as long as the model is kept.
	version uint64
	ugfVer  uint64 // version ugf was computed at; 0 when none
	ugf     float64
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
		mosDevs:  make([]mosDev, p.nMOS),
		bjtOps:   make([]devices.BJTOp, p.nBJT),
		bjtDevs:  make([]bjtDev, p.nBJT),
		kclRes:   make([]float64, p.nNodes),
		kclFlow:  make([]float64, p.nNodes),
		specVals: make([]float64, len(c.Deck.Specs)),
		tfs:      make([]awe.TF, p.nTFs),
		slots:    make([]tfSlot, p.nTFs),
		jigs:     make([]jigWS, len(p.jigs)),
		vI:       make([]float64, len(p.vsrcs)),
		jigPass:  (*EvalWorkspace).evalJig,
	}
	ws.valEnv.ws = ws
	ws.specEnv.ws, ws.specEnv.cost = ws, true
	for _, ci := range p.consts {
		ws.vals[ci.idx] = ci.v
	}
	for i, jp := range p.jigs {
		jw := &ws.jigs[jp.mat]
		if jp.mat == i {
			jw.G = *linalg.NewMatrix(jp.size, jp.size)
			jw.C = *linalg.NewMatrix(jp.size, jp.size)
			jw.eng.G, jw.eng.C = &jw.G, &jw.C
		}
		for _, tp := range jp.tfs {
			if 2*tp.q > len(jw.mu) {
				jw.mu = make([]float64, 2*tp.q)
			}
		}
	}
	return ws
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

// JigStats reports the factorization shape of each factorized jig
// matrix (one per distinct stamp program, in jig order) from the most
// recent evaluation: matrix dimension, structural nonzeros, factor
// fill-in, and whether the sparse replay ran (false → dense fallback).
// The benchmark harness exports these as per-deck matrix metrics.
func (ws *EvalWorkspace) JigStats() []linalg.FactorStats {
	var out []linalg.FactorStats
	for i, jp := range ws.plan.jigs {
		if jp.mat == i {
			out = append(out, ws.jigs[i].eng.FactorStats())
		}
	}
	return out
}

// Counts returns the workspace's work since it was created: its jig
// engines' factorizations, its device evaluations, its Newton problems'
// replays and its Padé searches (Count).
func (ws *EvalWorkspace) Counts() Counts {
	c := ws.counts
	for i := range ws.jigs {
		e := &ws.jigs[i].eng
		fc := e.FactorCounts()
		c[FactorSparse] += fc.Sparse
		c[FactorDense] += fc.Dense
		c[FactorSymbolicMisses] += fc.SymbolicMisses
		c[FactorReused] += e.Reused()
	}
	ft := ws.fit.Counts()
	c[FitFits] += ft.Fits
	c[FitAttempts] += ft.Attempts
	c[FitDeferred] += ft.Deferred
	c[FitValidatedStable] += ft.ValidatedStable
	c[FitValidatedUnstable] += ft.ValidatedUnstable
	c[FitUnvalidated] += ft.Unvalidated
	c[FitConstant] += ft.Constant
	return c
}

// UnstableCount returns how many times this workspace's cost-function
// specs read a model with right-half-plane poles: once per run per
// transfer function, a kept model counting again in each run that reads
// it. A model no spec of the run read (a dcOnly one, or one whose gain
// stayed below unity for ugf) is not counted.
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

// run replays the plan for the design vector x. full=false computes
// only the device currents and stops after the KCL residuals (the Newton
// path; completeOps fills in the rest of the operating points when a
// reader needs them); full=true evaluates the devices in full and
// continues through AWE and the spec expressions.
func (ws *EvalWorkspace) run(x []float64, full bool) {
	ws.runs++
	ws.err = nil
	ws.full = false
	ws.geomOK = false
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
	evals, reused := NewtonDeviceEvals, NewtonDeviceReused
	if full {
		evals, reused = DeviceEvals, DeviceReused
	}
	for i := range p.devs {
		d := &p.devs[i]
		var kept bool
		if d.kind == DevMOS {
			g, err := ws.geometry(d)
			if err != nil {
				ws.err = err
				return
			}
			kept = ws.evalMOS(d, g, full)
		} else {
			ws.resetArgs()
			area, err := d.elem.EvalParam("area", 1, env)
			if err != nil {
				ws.err = err
				return
			}
			kept = ws.evalBJT(d, area)
		}
		ws.counts[evals]++
		if kept {
			ws.counts[reused]++
		}
	}
	ws.geomOK = true

	if err := ws.evalKCL(); err != nil {
		ws.err = err
		return
	}
	ws.clock.Mark(telemetry.StageBias)
	if !full {
		return
	}

	for i, jp := range p.jigs {
		if err := ws.jigPass(ws, jp, &ws.jigs[jp.mat], jp.mat == i); err != nil {
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
	for _, r := range p.tfRefs {
		if !r.tp.dcOnly && ws.slots[r.tp.tfIdx].read != ws.runs {
			ws.counts[FitUnread]++
		}
	}
	ws.full = true
	ws.clock.Mark(telemetry.StageSpecs)
}

// geometry evaluates a MOS instance's geometry expressions.
func (ws *EvalWorkspace) geometry(d *devPlan) (devices.MOSGeom, error) {
	env := &ws.valEnv
	e := d.elem
	w, err := e.EvalParamNode("w", d.w, 0, env)
	if err != nil {
		return devices.MOSGeom{}, err
	}
	l, err := e.EvalParamNode("l", d.l, 0, env)
	if err != nil {
		return devices.MOSGeom{}, err
	}
	m, err := e.EvalParamNode("m", d.m, 1, env)
	if err != nil {
		return devices.MOSGeom{}, err
	}
	if w <= 0 || l <= 0 {
		return devices.MOSGeom{}, fmt.Errorf("astrx: device %s: nonpositive geometry w=%g l=%g", e.Name, w, l)
	}
	return devices.MOSGeom{W: w, L: l, M: m}, nil
}

// evalMOS brings MOS d's operating point to geometry g at the current
// node voltages: in full for a full run, else at least its current part
// (the rest left to completeOps). A stored point evaluated from the same
// inputs, bit for bit, is kept: a full run computes only the parts it
// lacks, and a bias-only run leaves it and its lack flags as they are.
// The key leaves the model out: a workspace evaluates one compiled plan,
// whose models never change. It reports whether it kept the stored
// point.
func (ws *EvalWorkspace) evalMOS(d *devPlan, g devices.MOSGeom, full bool) (kept bool) {
	md := &ws.mosDevs[d.op]
	v := [4]float64{ws.nv(d.t[0]), ws.nv(d.t[1]), ws.nv(d.t[2]), ws.nv(d.t[3])}
	if md.has && sameBits(md.g.W, g.W) && sameBits(md.g.L, g.L) && sameBits(md.g.M, g.M) &&
		sameBits(md.v[0], v[0]) && sameBits(md.v[1], v[1]) &&
		sameBits(md.v[2], v[2]) && sameBits(md.v[3], v[3]) {
		if full {
			ws.completeMOS(d, opPartials|opCaps)
		}
		return true
	}
	var op devices.MOSOp
	var lack opParts
	if full {
		op = devices.EvalMOS(d.mos.Model, g, v[0], v[1], v[2], v[3])
	} else {
		op = devices.EvalMOSCurrent(d.mos.Model, g, v[0], v[1], v[2], v[3])
		lack = opPartials | opCaps
	}
	ws.mosOps[d.op] = op
	*md = mosDev{g: g, v: v, has: true, lack: lack}
	return false
}

// evalBJT brings BJT d's operating point to area at the current node
// voltages, keeping a stored point evaluated from the same inputs, bit
// for bit. A BJT is always evaluated in full. It reports whether it
// kept the stored point.
func (ws *EvalWorkspace) evalBJT(d *devPlan, area float64) (kept bool) {
	bd := &ws.bjtDevs[d.op]
	v := [3]float64{ws.nv(d.t[0]), ws.nv(d.t[1]), ws.nv(d.t[2])}
	if bd.has && sameBits(bd.area, area) &&
		sameBits(bd.v[0], v[0]) && sameBits(bd.v[1], v[1]) && sameBits(bd.v[2], v[2]) {
		return true
	}
	ws.bjtOps[d.op] = devices.EvalBJT(d.bjt.Model, area, v[0], v[1], v[2])
	*bd = bjtDev{area: area, v: v, has: true}
	return false
}

// completeOps computes the operating-point parts in want that each MOS's
// stored point lacks, from the geometry and bias it was evaluated at:
// the values a full evaluation there gives, bit for bit.
func (ws *EvalWorkspace) completeOps(want opParts) {
	for i := range ws.plan.devs {
		if d := &ws.plan.devs[i]; d.kind == DevMOS {
			ws.completeMOS(d, want)
		}
	}
}

// completeMOS computes the parts in want that MOS d's stored point
// lacks.
func (ws *EvalWorkspace) completeMOS(d *devPlan, want opParts) {
	md := &ws.mosDevs[d.op]
	todo := md.lack & want
	if todo == 0 {
		return
	}
	op := &ws.mosOps[d.op]
	if todo&opPartials != 0 {
		devices.EvalMOSPartials(d.mos.Model, md.g, op)
	}
	if todo&opCaps != 0 {
		devices.EvalMOSCaps(d.mos.Model, md.g, op)
	}
	md.lack &^= todo
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

// evalJig computes one jig's transfer functions on the engine jw. A jig
// that factors its own matrix (factor) first re-stamps the (G, C) pair
// and refactors; a jig sharing an earlier jig's matrix solves against
// the factors that jig left. Each transfer function costs one solve, for
// μ0: its order-0 model, all that dc_gain reads, and all that ugf and
// phase_margin read while the gain is at most unity. The full model is
// fitted from the same factors when something reads it (model).
//
// A model computed from the engine's current factors is kept: its
// moments, and so its fit, would repeat bit for bit. That holds when the
// stamped pair repeats the last one, which is common: a move that
// changes only bias currents or another lane's nodes leaves every
// small-signal parameter as it was. A kept model may be a full fit;
// dc_gain reads μ0 from either.
func (ws *EvalWorkspace) evalJig(jp *jigPlan, jw *jigWS, factor bool) error {
	if factor {
		if err := ws.stampJig(jp, jw); err != nil {
			return err
		}
		if err := jw.eng.Refactor(); err != nil {
			return fmt.Errorf("astrx: jig %s: %w", jp.name, err)
		}
		ws.clock.Mark(telemetry.StageFactor)
	}
	gen := jw.eng.Gen()
	for i := range jp.tfs {
		tp := &jp.tfs[i]
		if tp.err != nil {
			return fmt.Errorf("astrx: jig %s tf %s: %w", jp.name, tp.name, tp.err)
		}
		s := &ws.slots[tp.tfIdx]
		if s.gen == gen {
			continue
		}
		s.version++
		mu := jw.mu[:1]
		jw.eng.MomentsInto(mu, tp.b, tp.ip, tp.in)
		ws.tfs[tp.tfIdx].SetConstant(mu)
		ws.clock.Mark(telemetry.StageMoments)
		s.gen, s.fitted, s.unstable = gen, false, false
	}
	return nil
}

// fitTF computes one transfer function's 2q moments on the engine jw
// and reduces them to a pole/zero model in the workspace's TF slot,
// recorded as fitted from the engine's current factors. An unstable fit
// means no stable order reproduced the moments. The model is still
// measured — often the RHP pole is a Padé artifact at the edge of moment
// resolution, not a physically unstable circuit — but the slot records
// it, so runs dominated by unstable models some spec reads are visible
// in FailureStats.Unstable and the daemon's oblxd_eval_unstable_total
// metric.
func (ws *EvalWorkspace) fitTF(tp *tfPlan, jw *jigWS) *awe.TF {
	s := &ws.slots[tp.tfIdx]
	s.version++
	mu := jw.mu[:2*tp.q]
	jw.eng.MomentsInto(mu, tp.b, tp.ip, tp.in)
	ws.clock.Mark(telemetry.StageMoments)
	tf := &ws.tfs[tp.tfIdx]
	ws.fit.FitMomentsInto(tf, mu, tp.q)
	ws.clock.Mark(telemetry.StageFit)
	s.gen, s.fitted, s.unstable = jw.eng.Gen(), true, tf.Order > 0 && !tf.Stable()
	return tf
}

// model returns TF slot i's full model. The jig pass leaves μ0 alone in
// the slot; the first reader fits the model from the factors μ0 came
// from, which its jig's engine holds until a later run refactors it. A
// stage clock armed for a cost evaluation books the fit as moments,
// solve and fit, and the spec time before it as specs. The model's
// factors are gone only when a later run failed in its jig pass; such a
// model stays at order 0, and no cost evaluation reads it (a failed run
// evaluates no spec, and State reports no model after one).
func (ws *EvalWorkspace) model(i int) *awe.TF {
	if s := &ws.slots[i]; !s.fitted {
		r := ws.plan.tfRefs[i]
		if jw := &ws.jigs[r.mat]; s.gen != 0 && s.gen == jw.eng.Gen() {
			ws.clock.Mark(telemetry.StageSpecs)
			ws.fitTF(r.tp, jw)
		}
	}
	return &ws.tfs[i]
}

// completeTFs fits every model the last full run left at μ0, so that
// State reports full models. It makes the moment and fit calls a spec's
// read makes, and counts no unstable model: no spec read them.
func (ws *EvalWorkspace) completeTFs() {
	for i := range ws.slots {
		ws.model(i)
	}
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
// adaptive-weight EMAs as a side effect: the one-lane case of assemble.
func (ws *EvalWorkspace) costFromRun() CostBreakdown {
	lanes := [1]*EvalWorkspace{ws}
	include := [1]bool{true}
	evaluated := [1]bool{ws.err == nil}
	return assemble(ws.c, lanes[:], include[:], evaluated[:])
}

// regionViolation accumulates the operating-region violation (volts)
// from the last run — the raw C^dev quantity, without weights or EMA
// side effects.
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
		if res <= kclTolAbs {
			continue
		}
		kclViol += (res - kclTolAbs) / (ws.kclFlow[slot] + 1e-6)
	}
	return kclViol
}

// State projects the workspace's last evaluation into a name-keyed
// EvalState for inspection and verification code. Transfer functions
// whose model no spec read are fitted first (completeTFs), so every TF
// is a full model. The maps are freshly allocated, but TF
// pointers alias workspace storage: they are valid only until the next
// evaluation. Contents are meaningful when Err is
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
	ws.completeOps(opPartials | opCaps)
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
	ws.completeTFs()
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
// leaves unhandled reads the AWE models, each fitted in full when read,
// as in the cost function. Package verify uses this to re-measure the
// specs with direct AC sweeps.
func (ws *EvalWorkspace) MeasureSpec(e expr.Node, backend TFBackend) (float64, error) {
	ws.completeOps(opPartials | opCaps)
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
	// cost marks the cost function's environment (ws.specEnv): the
	// models its specs read count as read in the run, and an unstable
	// one counts toward UnstableCount.
	cost bool
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
	if e.backend != nil && netlist.IsTFMeasure(fn) && len(args) >= 1 && args[0].IsName {
		v, handled, err := e.backend.Measure(fn, args[0].Name, args[1:])
		if err != nil {
			return 0, err
		}
		if handled {
			return v, nil
		}
	}
	tfArg := func() (int, error) {
		if len(args) < 1 || !args[0].IsName {
			return 0, fmt.Errorf("astrx: %s needs a transfer function name", fn)
		}
		i, ok := ws.plan.tfIdx[args[0].Name]
		if !ok {
			return 0, fmt.Errorf("astrx: unknown transfer function %q", args[0].Name)
		}
		return i, nil
	}
	switch fn {
	case "dc_gain": // μ0, exact without a fit
		i, err := tfArg()
		if err != nil {
			return 0, err
		}
		return ws.tfs[i].DCGain(), nil
	case "ugf": // unity-gain frequency in Hz
		i, err := tfArg()
		if err != nil {
			return 0, err
		}
		return e.ugf(i) / (2 * math.Pi), nil
	case "phase_margin":
		i, err := tfArg()
		if err != nil {
			return 0, err
		}
		wu := e.ugf(i)
		if wu == 0 { // no crossing: PhaseMarginAt reads no model
			return 0, nil
		}
		return e.model(i).PhaseMarginAt(wu), nil
	case "bw3db": // -3 dB bandwidth in Hz
		i, err := tfArg()
		if err != nil {
			return 0, err
		}
		return e.model(i).BW3dB() / (2 * math.Pi), nil
	case "pole": // magnitude of i-th slowest pole, Hz (1-based)
		i, err := tfArg()
		if err != nil {
			return 0, err
		}
		if len(args) != 2 {
			return 0, fmt.Errorf("astrx: pole(tf, i) needs an index")
		}
		return ws.nthRootMag(e.model(i).Poles, int(args[1].Value))
	case "zero":
		i, err := tfArg()
		if err != nil {
			return 0, err
		}
		if len(args) != 2 {
			return 0, fmt.Errorf("astrx: zero(tf, i) needs an index")
		}
		return ws.nthRootMag(e.model(i).Zeros, int(args[1].Value))
	case "gain_at": // |H| at frequency f (Hz)
		i, err := tfArg()
		if err != nil {
			return 0, err
		}
		if len(args) != 2 {
			return 0, fmt.Errorf("astrx: gain_at(tf, hz) needs a frequency")
		}
		return e.model(i).GainMagAt(2 * math.Pi * args[1].Value), nil
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

// model returns TF slot i's full model for a measurement (see
// EvalWorkspace.model). The cost function's specs mark it read for the
// run, and count it once per run if it is unstable: an unstable model is
// still measured, since the fitter already preferred any stable order
// that reproduced the moments, but FailureStats.Unstable and the
// daemon's oblxd_eval_unstable_total metric tell operators how much to
// trust the numbers.
func (e *wsSpecEnv) model(i int) *awe.TF {
	ws := e.ws
	tf := ws.model(i)
	if s := &ws.slots[i]; e.cost && s.read != ws.runs {
		s.read = ws.runs
		if s.unstable {
			ws.unstable++
		}
	}
	return tf
}

// ugf returns TF slot i's unity-gain frequency (rad/s). A gain of at
// most unity in magnitude at DC has none: that is awe.TF.UGF's first
// test, which reads only μ0 (a NaN gain fails it), so such a model is
// neither read nor fitted.
func (e *wsSpecEnv) ugf(i int) float64 {
	if math.Abs(e.ws.tfs[i].DCGain()) <= 1 {
		return 0
	}
	e.model(i)
	return e.ws.tfUGF(i)
}

// tfUGF returns TF slot i's unity-gain frequency (rad/s), computing it
// at most once per write of the slot.
func (ws *EvalWorkspace) tfUGF(i int) float64 {
	s := &ws.slots[i]
	if s.ugfVer == 0 || s.ugfVer != s.version {
		s.ugfVer, s.ugf = s.version, ws.tfs[i].UGF()
	}
	return s.ugf
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
// summation order of the golden file. It reads the geometry the last
// run evaluated, and evaluates it itself only after a run that stopped
// before every device.
func (ws *EvalWorkspace) activeArea() (float64, error) {
	tot := 0.0
	for i := range ws.plan.devs {
		d := &ws.plan.devs[i]
		if d.kind != DevMOS {
			continue
		}
		g := ws.mosDevs[d.op].g
		if !ws.geomOK {
			var err error
			if g, err = ws.geometry(d); err != nil {
				return 0, err
			}
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
