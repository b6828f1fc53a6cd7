// Package oblx implements the OBLX solver: it minimizes an ASTRX-compiled
// cost function with simulated annealing, using the move palette §V-A of
// the paper describes — random single-variable perturbations, combined
// continuous steps, and full/partial Newton-Raphson moves that drive the
// relaxed-dc node voltages toward dc-correctness. Hustin's adaptive
// selection (in package anneal) learns which class pays off as cooling
// proceeds, and the constraint weights adapt so no problem-specific
// constants are needed.
//
// The solver is built for the paper's workflow — "5-10 annealing runs
// performed overnight" — so long runs are first-class citizens: every
// entry point takes a context.Context and returns the best-so-far design
// on cancellation, periodic checkpoints make interrupted runs resumable
// without losing a move, and the evaluation path absorbs evaluator
// panics and non-finite costs as counted move rejections instead of
// crashes (see DESIGN.md, "hardened evaluation contract").
package oblx

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"astrx/internal/anneal"
	"astrx/internal/astrx"
	"astrx/internal/dcsolve"
	"astrx/internal/faults"
	"astrx/internal/linalg"
	"astrx/internal/netlist"
	"astrx/internal/telemetry"
	"astrx/internal/trace"
)

// Options tunes a synthesis run.
type Options struct {
	Seed     int64
	MaxMoves int // annealing move budget (0 → 150_000)

	// NoFreeze disables the freezing criterion so the run consumes its
	// whole move budget — fixed-budget experiments and fault-injection
	// tests want deterministic move counts.
	NoFreeze bool

	// Cost passes through to the compiler.
	Cost astrx.CostOptions

	// Corners selects the operating corners to synthesize against: the
	// run compiles one evaluation plan per corner and anneals on the
	// worst spec value over all of them (plus the nominal). nil means
	// every corner the deck declares — a cornered deck is robust by
	// default; an explicit empty (non-nil) slice forces a nominal-only
	// run. Unknown names are an error.
	Corners []string

	// Progress, when set, receives a ProgressEvent every ProgressEvery
	// moves (0 → 500) — the hook behind the synthesis service's SSE feed
	// and move events, and the samples Fig. 2 plots. Each event costs
	// one extra circuit evaluation (spec values and the KCL residual are
	// measured at the current point), so the default cadence adds ~0.2%
	// overhead. The callback runs synchronously on the annealing
	// goroutine.
	Progress      ProgressFunc
	ProgressEvery int

	// CheckpointPath, when set, makes Run write a resumable state
	// snapshot there every CheckpointEvery moves (atomically: tmp file
	// + rename), and once more at the point of context cancellation.
	CheckpointPath  string
	CheckpointEvery int // moves between checkpoints (0 → 5000)

	// Resume restores a run from a checkpoint previously written via
	// CheckpointPath (load it with LoadCheckpoint). The deck must be the
	// same; Seed and MaxMoves are taken from the checkpoint.
	Resume *Checkpoint

	// Faults, when non-nil, injects evaluator panics, NaN costs, and
	// Newton non-convergence at the injector's configured rates — the
	// test harness for the recovery machinery. Production runs leave it
	// nil (a nil injector is inert).
	Faults *faults.Injector

	// StageTimer, when non-nil, receives sampled per-stage timings of
	// the compiled cost pipeline (stamp → LU → moments → fit → specs).
	// One timer may be shared across RunBest's parallel runs: each run
	// attaches its own clock. A nil timer keeps the hot path
	// uninstrumented.
	StageTimer *telemetry.EvalTimer

	// Trace, when non-nil, receives the run's lifecycle spans: one
	// "anneal" span per Run (with a resume event when restoring from a
	// checkpoint, the StageTimer's per-stage means as stage.<name>_us
	// attributes, and Result.FactorCounts as factor.sparse,
	// factor.dense and factor.symbolic_misses) and one "corner:<name>"
	// span per lane of a worst-case run, with quarantine/retry events as
	// they happen.
	// The recorder is nil-receiver safe, so a nil Trace keeps the hot
	// path at zero allocations — same contract as StageTimer. RunBest's
	// parallel runs may share one recorder (it is concurrency-safe);
	// sampled eval spans then attach to whichever run's anneal span
	// registered last.
	Trace *trace.Recorder
}

func (o *Options) defaults() {
	if o.MaxMoves == 0 {
		o.MaxMoves = 150_000
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 5000
	}
}

// ProgressEvent is one streaming telemetry sample of a live run: where
// the annealing is (move count, temperature, acceptance ratio), how good
// the design is so far (cost, best cost, spec values), and how far from
// dc-correctness the relaxed formulation currently sits (KCL error).
type ProgressEvent struct {
	// Run is the RunBest run index (0 for single runs).
	Run      int   `json:"run"`
	Move     int   `json:"move"`
	MaxMoves int   `json:"max_moves"`
	Evals    int   `json:"evals"`
	Seed     int64 `json:"seed"`

	Temp        float64 `json:"temp"`
	AcceptRatio float64 `json:"accept_ratio"`
	Cost        float64 `json:"cost"`
	BestCost    float64 `json:"best_cost"`
	// MaxKCLError is the worst relative KCL residual at the current
	// point — the paper's Fig. 2 "discrepancy from KCL-correct voltages".
	MaxKCLError float64 `json:"max_kcl_error"`
	// SpecVals are the measured spec values at the current point (nil
	// when the point fails to evaluate).
	SpecVals map[string]float64 `json:"spec_vals,omitempty"`

	// The most recent proposal's class and outcome, the Lam controller's
	// target acceptance ratio, and the Hustin selector's per-class
	// quality weights at this point of the run.
	MoveClass string             `json:"move_class,omitempty"`
	Accepted  bool               `json:"accepted,omitempty"`
	DCost     float64            `json:"dcost,omitempty"`
	LamTarget float64            `json:"lam_target,omitempty"`
	Hustin    map[string]float64 `json:"hustin,omitempty"`
	// WorstSpec names the most-violated (or least-satisfied) non-objective
	// spec at the current point, with its violation in normalized "good to
	// bad" units (positive ⇒ failing). Empty when nothing measured.
	WorstSpec  string  `json:"worst_spec,omitempty"`
	WorstSpecU float64 `json:"worst_spec_u,omitempty"`

	// SpanID is the anneal span this event occurred under (empty when
	// tracing is off) — the link from a move event on the job's root
	// span to the attempt that produced it.
	SpanID string `json:"span_id,omitempty"`
}

// MoveAttrs renders the event as the attributes of a "move" span event,
// as alternating key/value pairs: the per-job run record oblxd keeps on
// a job's root span and oblx -trace-spans writes. Hustin weights appear
// as hustin.<class>; empty strings are left out.
func (ev ProgressEvent) MoveAttrs() []string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	kv := []string{
		"run", strconv.Itoa(ev.Run),
		"move", strconv.Itoa(ev.Move),
		"evals", strconv.Itoa(ev.Evals),
		"accepted", strconv.FormatBool(ev.Accepted),
		"dcost", num(ev.DCost),
		"temp", num(ev.Temp),
		"lam_target", num(ev.LamTarget),
		"acc_ratio", num(ev.AcceptRatio),
		"cost", num(ev.Cost),
		"best_cost", num(ev.BestCost),
		"max_kcl_error", num(ev.MaxKCLError),
	}
	if ev.MoveClass != "" {
		kv = append(kv, "move_class", ev.MoveClass)
	}
	if ev.WorstSpec != "" {
		kv = append(kv, "worst_spec", ev.WorstSpec, "worst_spec_u", num(ev.WorstSpecU))
	}
	if ev.SpanID != "" {
		kv = append(kv, "span_id", ev.SpanID)
	}
	for class, q := range ev.Hustin {
		kv = append(kv, "hustin."+class, num(q))
	}
	return kv
}

// ProgressFunc receives streaming progress from a running synthesis.
type ProgressFunc func(ProgressEvent)

// finiteSpecVals copies m dropping NaN/±Inf entries. Individual specs
// can legitimately fail to measure mid-anneal (e.g. an unstable reduced
// model rejects its transfer-function specs), and progress events must
// stay JSON-encodable for consumers like the oblxd SSE stream.
func finiteSpecVals(m map[string]float64) map[string]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

// EarlyKCLError is Fig. 2's "early" discrepancy: the largest MaxKCLError
// over the progress samples with Move ≤ last.Move/4, the
// weight-adaptation stretch of the run. A single early sample can land
// on a KCL-correct point by chance; the maximum shows how far the
// relaxed-dc search roamed.
func EarlyKCLError(samples []ProgressEvent) float64 {
	if len(samples) == 0 {
		return 0
	}
	limit := samples[len(samples)-1].Move / 4
	worst := 0.0
	for _, s := range samples {
		if s.Move <= limit {
			worst = math.Max(worst, s.MaxKCLError)
		}
	}
	return worst
}

// FailureStats counts the numerical failures a run absorbed. A healthy
// run reports zeros everywhere; fault-injected and near-singular
// problems reports how much trouble the hardened evaluation path ate.
type FailureStats struct {
	// PanicsRecovered counts evaluator panics caught and converted into
	// failed evaluations.
	PanicsRecovered int `json:"panics_recovered"`
	// NonFiniteCosts counts evaluations whose cost came back NaN/±Inf
	// (including injected NaNs).
	NonFiniteCosts int `json:"non_finite_costs"`
	// Retries counts transient-failure retry attempts of the
	// retry-then-quarantine policy.
	Retries int `json:"retries"`
	// Quarantined counts evaluations that still failed after all retries
	// and were surfaced to the annealer as rejections.
	Quarantined int `json:"quarantined"`
	// RejectedMoves counts moves the annealer rejected for a non-finite
	// cost (per move class in Result.MoveStats[].Failed).
	RejectedMoves int `json:"rejected_moves"`
	// Unstable counts transfer-function fits where the AWE Padé reduction
	// produced a model with right-half-plane poles (awe.ErrUnstable). The
	// model is still measured — the RHP pole is frequently a fit artifact
	// rather than real instability — but a run dominated by unstable fits
	// deserves scrutiny, so the count is surfaced here and as the daemon's
	// oblxd_eval_unstable_total metric.
	Unstable int `json:"unstable,omitempty"`
	// Corners itemizes the failures per corner for worst-case runs (nil
	// for nominal-only runs). These are lane-level events the run
	// degraded around, not candidate-level rejections: a corner failure
	// charges that corner the worst-case penalty, and only quarantine
	// removes it from the assembly.
	Corners map[string]CornerFailures `json:"corners,omitempty"`
}

// CornerFailures is one corner's failure ledger.
type CornerFailures struct {
	// Fails counts evaluations that still failed after the in-move retry.
	Fails int `json:"fails"`
	// Retries counts in-move re-attempts after a failed lane evaluation.
	Retries int `json:"retries"`
	// Quarantined reports the corner was excluded from the worst-case
	// assembly after cornerQuarantineAfter consecutive failures.
	Quarantined bool `json:"quarantined"`
}

// Total sums all failure events.
func (f FailureStats) Total() int {
	return f.PanicsRecovered + f.NonFiniteCosts + f.Quarantined + f.RejectedMoves
}

// CornerResult is one lane's verdict at the final design of a
// worst-case run: whether its evaluation succeeded, whether its bias
// polished to dc-correctness, its measured spec values, and its failure
// history along the run.
type CornerResult struct {
	Name string `json:"name"`
	// Quarantined reports the corner was dropped from the worst-case
	// assembly (the run is Degraded).
	Quarantined bool `json:"quarantined,omitempty"`
	// Evaluated reports the final evaluation at this corner succeeded;
	// SpecVals and AllMet are meaningful only when it did.
	Evaluated bool `json:"evaluated"`
	DCSolved  bool `json:"dc_solved"`
	// AllMet reports every non-objective spec is satisfied at this
	// corner.
	AllMet   bool               `json:"all_met"`
	Fails    int                `json:"fails,omitempty"`
	Retries  int                `json:"retries,omitempty"`
	SpecVals map[string]float64 `json:"spec_vals,omitempty"`
}

// Result is a completed synthesis run.
type Result struct {
	Compiled *astrx.Compiled
	// DCSolved reports that the final Newton polish converged: the
	// returned design is dc-correct to simulator tolerances. RunBest
	// prefers solved designs over lower-cost unsolved ones.
	DCSolved bool
	X        []float64
	Cost     astrx.CostBreakdown
	State    *astrx.EvalState

	Moves     int
	Accepted  int
	Froze     bool
	Cancelled bool
	Duration  time.Duration
	EvalCount int
	MoveStats []anneal.MoveStat
	Seed      int64

	// Degraded reports that at least one corner was quarantined: the
	// returned design is the worst-case optimum over the surviving
	// corners only, and the per-corner breakdown says which dropped out.
	Degraded bool
	// Corners is the final per-lane breakdown of a worst-case run
	// (nominal first; nil for nominal-only runs).
	Corners []CornerResult

	// Failures itemizes the numerical failures absorbed along the run.
	Failures FailureStats
	// FactorCounts sums the annealer's jig-engine factorizations over
	// this incarnation of the run (every corner lane in a worst-case
	// run): sparse replays, dense fallbacks and symbolic-cache misses.
	FactorCounts linalg.FactorCounts
	// CheckpointErr records the last checkpoint-write failure, if any —
	// a checkpoint that cannot be written must not kill the run it
	// exists to protect.
	CheckpointErr error
}

// TimePerEval returns the mean wall time per circuit evaluation — the
// paper's "time/ckt eval" metric. Zero-eval runs (e.g. cancelled at
// birth) report 0 rather than dividing by zero.
func (r *Result) TimePerEval() time.Duration {
	if r.EvalCount == 0 {
		return 0
	}
	return r.Duration / time.Duration(r.EvalCount)
}

// weightAdaptEvery is the move cadence of the constraint-weight
// adaptation during the first quarter of a run.
const weightAdaptEvery = 500

// evalRetries bounds the retry-then-quarantine policy: a failed
// evaluation (panic or non-finite cost) is retried this many times —
// absorbing transient faults — before the move is quarantined, i.e.
// surfaced to the annealer as an unconditional rejection.
const evalRetries = 2

// problem wraps the compiled cost function. It counts evaluations and
// hardens the evaluation path: evaluator panics are recovered, NaN/Inf
// costs detected, and both are converted — after bounded retries — into
// move rejections the annealer counts per move class. The contract with
// the annealer: every returned cost is either finite or NaN, and NaN
// means "reject this move" (see anneal.Run).
type problem struct {
	c   *astrx.Compiled
	inj *faults.Injector
	// ce, when non-nil, routes evaluations through the worst-case-over-
	// corners assembly instead of the scalar cost; the candidate-level
	// hardening (panic recovery, NaN retry, quarantine) stays identical.
	ce *cornerEval

	evals       int
	panics      int
	nanCosts    int
	retries     int
	quarantined int
}

func (p *problem) Vars() []anneal.VarSpec {
	if p.ce != nil {
		return p.ce.cs.Vars()
	}
	return p.c.Vars()
}

func (p *problem) Cost(x []float64) float64 {
	p.evals++
	for attempt := 0; ; attempt++ {
		c, panicked := p.tryCost(x)
		switch {
		case panicked:
			p.panics++
		case math.IsNaN(c) || math.IsInf(c, 0):
			p.nanCosts++
		default:
			return c
		}
		if attempt >= evalRetries {
			p.quarantined++
			return math.NaN() // annealer treats NaN as a hard rejection
		}
		p.retries++
	}
}

// tryCost runs one guarded evaluation attempt.
func (p *problem) tryCost(x []float64) (cost float64, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			cost, panicked = math.NaN(), true
		}
	}()
	p.inj.EvalPanic() // inert when p.inj is nil
	if p.inj.NaNCost() {
		return math.NaN(), false
	}
	if p.ce != nil {
		return p.ce.cost(x), false
	}
	return p.c.Cost(x), false
}

// Run synthesizes one deck with one seed. Cancelling ctx (SIGINT, a
// deadline) stops the run cleanly and returns the best-so-far design
// with Cancelled set — never an error.
func Run(ctx context.Context, deck *netlist.Deck, opt Options) (*Result, error) {
	opt.defaults()
	if ctx == nil {
		ctx = context.Background()
	}
	cornerNames, err := astrx.SelectCorners(deck, opt.Corners)
	if err != nil {
		return nil, err
	}
	var (
		c  *astrx.Compiled
		ce *cornerEval
	)
	if len(cornerNames) > 0 {
		cs, err := astrx.CompileCorners(deck, cornerNames, opt.Cost)
		if err != nil {
			return nil, err
		}
		c = cs.Nominal
		ce = newCornerEval(cs, opt.Faults)
	} else {
		c, err = astrx.Compile(deck, opt.Cost)
		if err != nil {
			return nil, err
		}
	}
	p := &problem{c: c, inj: opt.Faults, ce: ce}
	vars := p.Vars()
	// nomX projects a (possibly master) annealing vector onto the
	// nominal lane, for the progress path that evaluates through the
	// nominal compiled problem.
	var nomBuf []float64
	nomX := func(x []float64) []float64 {
		if ce == nil {
			return x
		}
		nomBuf = ce.cs.LaneX(0, x, nomBuf)
		return nomBuf
	}
	if opt.StageTimer != nil {
		// Each Run compiles its own problem, so the shared workspace is
		// single-goroutine here; the clocks funnel into the (atomic)
		// shared timer.
		if ce != nil {
			for i := 0; i < ce.bw.K(); i++ {
				ce.bw.Lane(i).SetClock(opt.StageTimer.NewClock())
			}
		} else {
			c.Workspace().SetClock(opt.StageTimer.NewClock())
		}
	}

	// The anneal span covers this incarnation of the run. Errors below
	// (bad checkpoint, anneal failure) end it with status "error"; the
	// deferred End is a no-op once the span ended normally.
	asp := opt.Trace.Begin("anneal", "")
	defer asp.End("error")
	opt.Trace.SetEvalParent(asp.ID())
	if ce != nil {
		ce.span = asp
	}

	// The generic perturbation classes explore the scalar prefix only:
	// user variables plus the nominal node section. In a cornered run
	// the corner node sections are relaxation state that tracks each
	// corner's own bias — random kicks there can only add KCL violation
	// (summed over lanes, so an all-variable kick pays K× the scalar
	// uphill and is never accepted), and they dilute the user-variable
	// exploration the anneal actually needs. The corner Newton moves
	// are the sole writers of the corner sections.
	pvars := vars
	if ce != nil {
		pvars = vars[:ce.cs.NUser+ce.cs.NFree]
	}
	moves := []anneal.Move{
		anneal.NewRandomStep("random", pvars, 0.3),
		anneal.NewAllStep("all-cont", pvars),
		newtonMove(ctx, c, opt.Faults, "newton-full", 12),
		newtonMove(ctx, c, opt.Faults, "newton-step", 1),
	}
	if ce != nil {
		moves[2] = cornerNewtonMove(ctx, ce, "newton-full", 12)
		moves[3] = cornerNewtonMove(ctx, ce, "newton-step", 1)
	}
	moveNames := make([]string, len(moves))
	for i, m := range moves {
		moveNames[i] = m.Name()
	}

	var baseDur time.Duration
	if ck := opt.Resume; ck != nil {
		if err := ck.check(len(vars)); err != nil {
			return nil, err
		}
		opt.Seed = ck.Seed
		opt.MaxMoves = ck.MaxMoves
		c.Weights.Restore(ck.Weights)
		p.evals = ck.Evals
		p.panics = ck.Panics
		p.nanCosts = ck.NonFinite
		p.retries = ck.Retries
		p.quarantined = ck.Quarantined
		if ce != nil {
			if err := ce.restore(ck); err != nil {
				return nil, err
			}
		} else {
			if len(ck.Corners) > 0 {
				return nil, fmt.Errorf("oblx: checkpoint carries %d corners but the run is nominal-only — wrong corner selection?",
					len(ck.Corners))
			}
			c.Workspace().SetUnstableCount(ck.Unstable)
		}
		baseDur = time.Duration(ck.ElapsedNS)
		asp.Event("resume",
			"move", strconv.Itoa(ck.Anneal.Move),
			"evals", strconv.Itoa(ck.Evals))
	}
	asp.SetAttr("seed", strconv.FormatInt(opt.Seed, 10))
	asp.SetAttr("max_moves", strconv.Itoa(opt.MaxMoves))

	// The run's reporting workspace serves the progress hook and the
	// final nominal report. It must never be the
	// annealer's c.Workspace(): that one's unstable counter feeds
	// Failures.Unstable and the checkpoint, and its clock feeds the stage
	// timers. It is created on first use, so setup time stays Compile
	// plus the first Cost.
	var repWS *astrx.EvalWorkspace
	report := func() *astrx.EvalWorkspace {
		if repWS == nil {
			repWS = c.NewWorkspace()
		}
		return repWS
	}

	weightFreeze := opt.MaxMoves / 4
	adapt := func(tp anneal.TracePoint) {
		// Adaptive weights settle during the first quarter of the run;
		// afterwards the cost function is stationary (the annealer's
		// best-so-far bookkeeping is re-based at the freeze point).
		if tp.Move < weightFreeze {
			c.Weights.Adapt(deck)
		}
	}

	annealOpt := anneal.Options{
		Seed:        opt.Seed,
		MaxMoves:    opt.MaxMoves,
		Trace:       adapt,
		TraceEvery:  weightAdaptEvery,
		BestResetAt: weightFreeze,
	}
	if opt.Progress != nil {
		every := opt.ProgressEvery
		if every <= 0 {
			every = 500
		}
		annealOpt.ProgressEvery = every
		annealOpt.Progress = func(tp anneal.TracePoint) {
			ev := ProgressEvent{
				Move: tp.Move, MaxMoves: opt.MaxMoves, Evals: p.evals,
				Seed: opt.Seed, Temp: tp.Temp, AcceptRatio: tp.AccRate,
				Cost: tp.Cost, BestCost: tp.BestCost,
				MoveClass: tp.MoveClass, Accepted: tp.Accepted,
				DCost: tp.DCost, LamTarget: tp.LamTarget,
			}
			if len(tp.Quality) == len(moveNames) {
				ev.Hustin = make(map[string]float64, len(moveNames))
				for i, q := range tp.Quality {
					ev.Hustin[moveNames[i]] = q
				}
			}
			if st := report().Evaluate(nomX(tp.X)); st.Err == nil {
				ev.MaxKCLError = st.MaxKCLError()
				ev.SpecVals = finiteSpecVals(st.SpecVals)
				ev.WorstSpec, ev.WorstSpecU = worstSpec(c, st)
			}
			ev.SpanID = asp.ID()
			opt.Progress(ev)
		}
	}
	if opt.NoFreeze {
		annealOpt.FreezeStages = -1
	}
	if opt.Resume != nil {
		annealOpt.Resume = opt.Resume.Anneal
	}

	start := time.Now()
	var ckErr error
	if opt.CheckpointPath != "" {
		annealOpt.CheckpointEvery = opt.CheckpointEvery
		annealOpt.OnCheckpoint = func(ack *anneal.Checkpoint) {
			ck := &Checkpoint{
				Version:     checkpointVersion,
				Seed:        opt.Seed,
				MaxMoves:    opt.MaxMoves,
				Vars:        len(vars),
				Anneal:      ack,
				Weights:     c.Weights.State(),
				Evals:       p.evals,
				Panics:      p.panics,
				NonFinite:   p.nanCosts,
				Retries:     p.retries,
				Quarantined: p.quarantined,
				ElapsedNS:   int64(baseDur + time.Since(start)),
			}
			if ce != nil {
				ck.Unstable = ce.bw.Lane(0).UnstableCount()
				ck.Corners = ce.cornerCheckpoints()
			} else {
				ck.Unstable = c.Workspace().UnstableCount()
			}
			if err := SaveCheckpoint(opt.CheckpointPath, ck); err != nil {
				ckErr = err
			}
		}
	}

	res, err := anneal.Run(ctx, p, moves, annealOpt)
	if err != nil {
		return nil, fmt.Errorf("oblx: %w", err)
	}
	dur := baseDur + time.Since(start)
	var fc linalg.FactorCounts
	if ce != nil {
		for i := 0; i < ce.bw.K(); i++ {
			fc.Add(ce.bw.Lane(i).FactorCounts())
		}
	} else {
		fc = c.Workspace().FactorCounts()
	}

	// Polish: a final full Newton solve from the best point tightens the
	// bias to simulator-grade dc-correctness (the annealer's freezing
	// tolerance is looser than a simulator's). A cancelled run still
	// gets its polish — it is bounded work and the returned design
	// should be the best usable one.
	best := append([]float64(nil), res.Best...)
	var (
		dcOK   bool
		laneDC []bool
		st     *astrx.EvalState
		cost   astrx.CostBreakdown
	)
	if ce != nil {
		best, dcOK, laneDC = polishCorners(context.WithoutCancel(ctx), ce, best)
		// One final worst-case evaluation at the polished point: the
		// result's cost, the nominal state, and the per-corner verdicts
		// all come from this single pass.
		cost = ce.eval(best)
		st = ce.bw.Lane(0).State()
	} else {
		best, dcOK = polishDC(context.WithoutCancel(ctx), c, opt.Faults, best)
		rw := report()
		cost = rw.CostDetail(best)
		st = rw.State()
	}
	out := &Result{
		Compiled:  c,
		DCSolved:  dcOK,
		X:         best,
		Cost:      cost,
		State:     st,
		Moves:     res.Moves,
		Accepted:  res.Accepted,
		Froze:     res.Froze,
		Cancelled: res.Cancelled,
		Duration:  dur,
		EvalCount: p.evals,
		MoveStats: res.MoveStats,
		Seed:      opt.Seed,
		Failures: FailureStats{
			PanicsRecovered: p.panics,
			NonFiniteCosts:  p.nanCosts,
			Retries:         p.retries,
			Quarantined:     p.quarantined,
			RejectedMoves:   res.NonFinite,
			Unstable:        c.Workspace().UnstableCount(),
		},
		FactorCounts:  fc,
		CheckpointErr: ckErr,
	}
	if ce != nil {
		out.Failures.Unstable = ce.unstableCount()
		out.Failures.Corners = ce.failureStats()
		out.Degraded = ce.degraded()
		out.Corners = ce.cornerResults(laneDC)
	}

	// Per-corner lane spans: lanes run in lockstep with the anneal, so
	// each span covers this incarnation's wall time and carries the
	// lane's verdict; the live quarantine/retry events landed on the
	// anneal span as they happened.
	for _, cr := range out.Corners {
		opt.Trace.AddTimed("corner:"+cr.Name, asp.ID(), start, time.Since(start),
			"evaluated", strconv.FormatBool(cr.Evaluated),
			"dc_solved", strconv.FormatBool(cr.DCSolved),
			"all_met", strconv.FormatBool(cr.AllMet),
			"quarantined", strconv.FormatBool(cr.Quarantined),
			"fails", strconv.Itoa(cr.Fails),
			"retries", strconv.Itoa(cr.Retries))
	}
	asp.SetAttr("moves", strconv.Itoa(res.Moves))
	asp.SetAttr("evals", strconv.Itoa(p.evals))
	for _, b := range opt.StageTimer.Breakdown() {
		asp.SetAttr("stage."+b.Stage+"_us", strconv.FormatFloat(b.MeanSeconds*1e6, 'f', 3, 64))
	}
	asp.SetAttr("factor.sparse", strconv.FormatUint(fc.Sparse, 10))
	asp.SetAttr("factor.dense", strconv.FormatUint(fc.Dense, 10))
	asp.SetAttr("factor.symbolic_misses", strconv.FormatUint(fc.SymbolicMisses, 10))
	if out.Degraded {
		asp.SetAttr("degraded", "true")
	}
	status := "ok"
	if res.Cancelled {
		status = "cancelled"
	}
	asp.End(status)
	return out, nil
}

// worstSpec finds the most-violated (or, for a fully passing design, the
// least-satisfied) finite non-objective spec, in Normalize's good→bad
// units: positive means failing. Specs that failed to measure are
// skipped — SpecVals going missing already signals that.
func worstSpec(c *astrx.Compiled, st *astrx.EvalState) (string, float64) {
	name, worst := "", math.Inf(-1)
	for _, s := range c.Deck.Specs {
		if s.Objective {
			continue
		}
		v, ok := st.SpecVals[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if u := astrx.Normalize(s, v); u > worst {
			name, worst = s.Name, u
		}
	}
	if name == "" {
		return "", 0
	}
	return name, worst
}

// polishDC runs a full Newton solve on the node voltages of x. A
// finished design must be dc-correct within simulator tolerances — the
// paper's formulation guarantees the predicted performance only at a
// KCL-consistent point — so a converged Newton bias is kept even when
// the (penalty-weighted) cost rises slightly: reporting performance at a
// dc-inconsistent point would be fiction. On solver failure the original
// vector is returned unchanged.
func polishDC(ctx context.Context, c *astrx.Compiled, inj *faults.Injector, x []float64) ([]float64, bool) {
	dp := c.DCProblem(x)
	if dp.N() == 0 {
		return x, true
	}
	v0 := append([]float64(nil), x[c.NUser:]...)
	r, err := dcsolve.Solve(ctx, dp, v0, dcsolve.Options{
		MaxIter: 200, GminSteps: 4, FailHook: inj.NewtonHook(),
	})
	if err != nil {
		return x, false
	}
	out := append([]float64(nil), x...)
	copy(out[c.NUser:], r.V)
	return out, true
}

// newtonMove builds the gradient-directed move class: replace the node
// voltages with the result of iters damped Newton-Raphson steps at the
// current design variables. A Newton failure (real or injected) simply
// declines the proposal — the annealer falls back to its other classes.
func newtonMove(ctx context.Context, c *astrx.Compiled, inj *faults.Injector, label string, iters int) anneal.Move {
	// The move closure owns its solver scratch: steady-state annealing
	// performs one solve per proposal, and the workspace makes the whole
	// proposal allocation-free. Moves run one at a time on the annealer
	// goroutine, so the capture is safe.
	var (
		work dcsolve.Workspace
		vbuf []float64
	)
	return &anneal.FuncMove{
		Label: label,
		Fn: func(cur, next []float64, rng *rand.Rand) bool {
			dp := c.DCProblem(cur)
			n := dp.N()
			if n == 0 {
				return false
			}
			vbuf = append(vbuf[:0], cur[c.NUser:]...)
			v := vbuf
			if iters <= 1 {
				stepped, err := dcsolve.Step(dp, v, dcsolve.Options{FailHook: inj.NewtonHook(), Work: &work})
				if err != nil {
					return false
				}
				copy(next[c.NUser:], stepped)
				return true
			}
			r, _ := dcsolve.Solve(ctx, dp, v, dcsolve.Options{
				MaxIter: iters, BestEffort: true, FailHook: inj.NewtonHook(), Work: &work,
			})
			if r == nil {
				return false
			}
			// Decline no-op solutions (already dc-correct): the solve was
			// paid for, but proposing an identical point wastes a move.
			same := true
			for i, vv := range r.V {
				if vv != v[i] {
					same = false
					break
				}
			}
			if same {
				return false
			}
			copy(next[c.NUser:], r.V)
			return true
		},
	}
}

// runFn is the seam RunBest uses to launch individual runs; tests
// substitute it to exercise the per-run failure paths deterministically.
var runFn = Run

// reseedOffset separates a retry's random stream from the failed
// attempt's (a large prime, like the per-run 7919 stride).
const reseedOffset = 104729

// RunBest runs n independent seeded anneals (the paper's "5-10 annealing
// runs performed overnight") in parallel goroutines and returns the
// lowest-cost surviving result, every successful per-run result, and a
// per-run error slice (nil entries for successes). A failed run is
// retried once with a reseeded stream after a short backoff; if it fails
// again it is reported in its error slot but no longer discards its
// successful siblings. Only when every run fails is the best result nil.
//
// Cancelling ctx stops all runs; each returns its best-so-far design, so
// a deadline-bounded RunBest still yields n usable candidates.
//
// Checkpointing is a single-run feature: CheckpointPath/Resume are
// ignored here (n parallel runs would race on one file).
func RunBest(ctx context.Context, deck *netlist.Deck, n int, opt Options) (*Result, []*Result, []error) {
	if n <= 0 {
		n = 1
	}
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				// A panic that escapes Run's own recovery (e.g. from
				// Compile) must not kill the sibling runs.
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("oblx: run %d panicked: %v", i, r)
				}
			}()
			o := opt
			o.Seed = opt.Seed + int64(i)*7919
			o.CheckpointPath = ""
			o.Resume = nil
			if opt.Progress != nil {
				// Tag each run's telemetry with its index so a consumer
				// multiplexing the streams can tell them apart.
				run := i
				o.Progress = func(ev ProgressEvent) {
					ev.Run = run
					opt.Progress(ev)
				}
			}
			r, err := runFn(ctx, deck, o)
			if err != nil && ctx.Err() == nil {
				// One reseeded retry with backoff: a different random
				// stream avoids deterministically replaying the failure,
				// and the backoff de-synchronizes retries from whatever
				// transient (fault burst, resource pressure) caused it.
				time.Sleep(time.Duration(20*(i+1)) * time.Millisecond)
				o.Seed += reseedOffset
				if r2, err2 := runFn(ctx, deck, o); err2 == nil {
					r, err = r2, nil
				} else {
					err = fmt.Errorf("oblx: run %d (seed %d) failed: %w (reseeded retry: %v)",
						i, opt.Seed+int64(i)*7919, err, err2)
				}
			}
			results[i], errs[i] = r, err
		}(i)
	}
	wg.Wait()

	var best *Result
	all := make([]*Result, 0, n)
	better := func(a, b *Result) bool { // is a better than b?
		if a.DCSolved != b.DCSolved {
			return a.DCSolved // a dc-correct design beats any cheaper fiction
		}
		return a.Cost.Total < b.Cost.Total
	}
	for i, r := range results {
		if errs[i] != nil || r == nil {
			continue
		}
		all = append(all, r)
		if best == nil || better(r, best) {
			best = r
		}
	}
	return best, all, errs
}
