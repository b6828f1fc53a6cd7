// Package oblx implements the OBLX solver: it minimizes an ASTRX-compiled
// cost function with simulated annealing, using the move palette §V-A of
// the paper describes — random single-variable perturbations, combined
// continuous steps, and full/partial Newton-Raphson moves that drive the
// relaxed-dc node voltages toward dc-correctness. Hustin's adaptive
// selection (in package anneal) learns which class pays off as cooling
// proceeds, and the constraint weights adapt so no problem-specific
// constants are needed.
//
// Every run takes one path. It anneals C(x) over a corner set's lanes
// (nominal first), worst case over the deck's .corner cards; a
// nominal-only run is the one-lane set. The evaluator, the Newton moves,
// the final polish and the final evaluation are the same code for both,
// and only the result's per-corner breakdown is left out of a
// nominal-only run.
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
	"strconv"
	"sync"
	"time"

	"astrx/internal/anneal"
	"astrx/internal/astrx"
	"astrx/internal/faults"
	"astrx/internal/netlist"
	"astrx/internal/telemetry"
	"astrx/internal/trace"
)

// Options tunes a synthesis run.
type Options struct {
	Seed     int64
	MaxMoves int // annealing move budget (0 → DefaultMaxMoves)

	// NoFreeze disables the freezing criterion so the run consumes its
	// whole move budget — fixed-budget experiments and fault-injection
	// tests want deterministic move counts.
	NoFreeze bool

	// Corners selects the operating corners to synthesize against: the
	// run compiles one evaluation plan per corner and anneals on the
	// worst spec value over all of them (plus the nominal). nil means
	// every corner the deck declares — a cornered deck is robust by
	// default; an explicit empty (non-nil) slice forces a nominal-only
	// run. Unknown names are an error.
	Corners []string

	// Progress, when set, receives a ProgressEvent every ProgressEvery
	// moves (0 → DefaultProgressEvery) — the hook behind the synthesis
	// service's SSE feed and move events, and the samples Fig. 2 plots. Each event costs
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
	CheckpointEvery int // moves between checkpoints (0 → DefaultCheckpointEvery)

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

	// Trace, when non-nil, receives the run's spans: one "anneal" span
	// per Run (with a resume event when restoring from a checkpoint, the
	// StageTimer's per-stage means as stage.<name>_us attributes, and
	// each count of Result.Counts under its name, astrx.Count), one
	// "corner:<name>" span per lane of a worst-case run, with
	// quarantine/retry events as they happen, and under the anneal span
	// one "eval:<stage>" span per stage of each evaluation the
	// StageTimer samples.
	// The recorder is nil-receiver safe, so a nil Trace keeps the hot
	// path at zero allocations — same contract as StageTimer. RunBest's
	// parallel runs may share one recorder (it is concurrency-safe).
	Trace *trace.Recorder
}

// The run defaults every surface reads rather than restates: the move
// budget of one run, and the move intervals between checkpoints and
// between progress events.
const (
	DefaultMaxMoves        = 120_000
	DefaultCheckpointEvery = 5000
	DefaultProgressEvery   = 500
)

func (o *Options) defaults() {
	if o.MaxMoves == 0 {
		o.MaxMoves = DefaultMaxMoves
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	if o.ProgressEvery <= 0 {
		o.ProgressEvery = DefaultProgressEvery
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
	// Unstable counts the cost function's reads of transfer-function
	// models where the AWE Padé reduction produced right-half-plane
	// poles: once per evaluation per transfer function whose model a
	// spec of that evaluation read, a kept model counting again each
	// time it is read. A model no spec read (one read only through
	// dc_gain, or one whose gain stayed below unity for ugf) is not
	// counted. The model is still measured — the RHP pole is frequently
	// a fit artifact rather than real instability — but a run dominated
	// by unstable models deserves scrutiny, so the count is surfaced here
	// and as the daemon's oblxd_eval_unstable_total metric.
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
	// Counts is the annealer's work over this incarnation of the run,
	// summed over its lanes (every corner lane in a worst-case run), with
	// the Newton moves' proposals: read before the polish and the final
	// evaluation, and not checkpointed.
	Counts astrx.Counts
	// CheckpointErr records the last checkpoint-write failure, if any —
	// a checkpoint that cannot be written must not kill the run it
	// exists to protect.
	CheckpointErr error

	// evalTime is the wall time this incarnation spent in cost
	// evaluations, and evalsTimed how many it ran: a resumed run times
	// only its own.
	evalTime   time.Duration
	evalsTimed int
}

// TimePerEval returns the mean wall time per circuit evaluation — the
// paper's "time/ckt eval" metric — over the evaluations this process
// ran. Moves that decline to evaluate and the Newton moves' bias solves
// are not evaluations, so they do not count. Zero-eval runs (e.g.
// cancelled at birth) report 0 rather than dividing by zero.
func (r *Result) TimePerEval() time.Duration {
	if r.evalsTimed == 0 {
		return 0
	}
	return r.evalTime / time.Duration(r.evalsTimed)
}

// weightAdaptEvery is the move cadence of the constraint-weight
// adaptation during the first quarter of a run.
const weightAdaptEvery = 500

// evalRetries bounds the retry-then-quarantine policy: a failed
// evaluation (panic or non-finite cost) is retried this many times —
// absorbing transient faults — before the move is quarantined, i.e.
// surfaced to the annealer as an unconditional rejection.
const evalRetries = 2

// problem is the cost function the annealer minimizes: C(x) over a
// corner set's lanes, nominal first, assembled worst-case over corners.
// A nominal-only run is the one-lane set. problem counts evaluations and
// hardens the evaluation path on two levels. A candidate whose
// evaluation panics or returns a NaN/Inf cost is retried a bounded
// number of times, then surfaced to the annealer as a move rejection it
// counts per move class; a corner lane whose evaluation fails is retried
// in place, charged the worst-case penalty, and quarantined after a run
// of failures (eval, in corner.go). The contract with the annealer:
// every returned cost is either finite or NaN, and NaN means "reject
// this move" (see anneal.Run).
type problem struct {
	cs  *astrx.CornerSet
	bw  *astrx.BatchWorkspace
	inj *faults.Injector

	// Lane state, indexed like cs lanes.
	lanes     []cornerLane // [0] unused: the nominal fails the candidate
	bufs      [][]float64  // per-lane candidate scratch
	xs        [][]float64  // Run argument: bufs[i] or nil (skipped)
	include   []bool
	evaluated []bool

	// span is the run's anneal span; lane-state transitions (first
	// retry, quarantine) are recorded on it as events. Nil-safe, so the
	// untraced hot path pays nothing — events fire only on the rare
	// transitions, never per eval.
	span *trace.Active

	evals       int
	panics      int
	nanCosts    int
	retries     int
	quarantined int
	// counts holds the Newton moves' proposals and those their memos
	// answered; the lanes' workspaces count the rest of the run's work.
	counts astrx.Counts

	// evalTime and evalsTimed time this process's Cost calls, retries
	// included (Result.TimePerEval).
	evalTime   time.Duration
	evalsTimed int
}

func newProblem(cs *astrx.CornerSet, inj *faults.Injector) *problem {
	k := cs.K()
	return &problem{
		cs:        cs,
		bw:        cs.NewCornerBatch(),
		inj:       inj,
		lanes:     make([]cornerLane, k),
		bufs:      make([][]float64, k),
		xs:        make([][]float64, k),
		include:   make([]bool, k),
		evaluated: make([]bool, k),
	}
}

func (p *problem) Vars() []anneal.VarSpec { return p.cs.Vars() }

func (p *problem) Cost(x []float64) float64 {
	start := time.Now()
	c := p.cost(x)
	p.evalTime += time.Since(start)
	p.evalsTimed++
	return c
}

// cost is Cost without the timing.
func (p *problem) cost(x []float64) float64 {
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
	return p.eval(x).Total, false
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
	cs, err := astrx.CompileCorners(deck, cornerNames, astrx.CostOptions{})
	if err != nil {
		return nil, err
	}
	c := cs.Nominal
	p := newProblem(cs, opt.Faults)
	vars := p.Vars()

	// The anneal span covers this incarnation of the run. Errors below
	// (bad checkpoint, anneal failure) end it with status "error"; the
	// deferred End is a no-op once the span ended normally.
	asp := opt.Trace.Begin("anneal", "")
	defer asp.End("error")
	p.span = asp
	if opt.StageTimer != nil {
		// Each Run compiles its own problem, so its lanes are
		// single-goroutine here; the clocks funnel into the (atomic)
		// shared timer, and their samples into eval spans under the
		// anneal span.
		for i := 0; i < p.bw.K(); i++ {
			clock := opt.StageTimer.NewClock()
			clock.Trace(opt.Trace, asp.ID())
			p.bw.Lane(i).SetClock(clock)
		}
	}

	// The generic perturbation classes explore the scalar prefix only:
	// user variables plus the nominal node section (every variable of a
	// nominal-only run). In a cornered run the corner node sections are
	// relaxation state that tracks each corner's own bias — random kicks
	// there can only add KCL violation (summed over lanes, so an
	// all-variable kick pays K× the scalar uphill and is never accepted),
	// and they dilute the user-variable exploration the anneal actually
	// needs. The Newton moves are the sole writers of the corner sections.
	pvars := vars[:cs.NUser+cs.NFree]
	moves := []anneal.Move{
		anneal.NewRandomStep("random", pvars, 0.3),
		anneal.NewAllStep("all-cont", pvars),
		newtonMove(ctx, p, "newton-full", 12),
		newtonMove(ctx, p, "newton-step", 1),
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
		if err := p.restore(ck); err != nil {
			return nil, err
		}
		baseDur = time.Duration(ck.ElapsedNS)
		asp.Event("resume",
			"move", strconv.Itoa(ck.Anneal.Move),
			"evals", strconv.Itoa(ck.Evals))
	}
	asp.SetAttr("seed", strconv.FormatInt(opt.Seed, 10))
	asp.SetAttr("max_moves", strconv.Itoa(opt.MaxMoves))

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
		NoFreeze:    opt.NoFreeze,
		Trace:       adapt,
		TraceEvery:  weightAdaptEvery,
		BestResetAt: weightFreeze,
	}
	if opt.Progress != nil {
		// The progress hook measures the nominal lane on its own
		// reporting workspace, never on one of the annealer's lanes:
		// their unstable counters feed Failures.Unstable and the
		// checkpoint, and their clocks feed the stage timers. It is
		// created on first use, so setup time stays Compile plus the
		// first Cost.
		var (
			repWS  *astrx.EvalWorkspace
			nomBuf []float64
		)
		annealOpt.ProgressEvery = opt.ProgressEvery
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
			if repWS == nil {
				repWS = c.NewWorkspace()
			}
			nomBuf = cs.LaneX(0, tp.X, nomBuf)
			if st := repWS.Evaluate(nomBuf); st.Err == nil {
				ev.MaxKCLError = st.MaxKCLError()
				ev.SpecVals = finiteSpecVals(st.SpecVals)
				ev.WorstSpec, ev.WorstSpecU = worstSpec(c, st)
			}
			ev.SpanID = asp.ID()
			opt.Progress(ev)
		}
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
				Unstable:    p.bw.Lane(0).UnstableCount(),
				Corners:     p.cornerCheckpoints(),
				ElapsedNS:   int64(baseDur + time.Since(start)),
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
	// Every run counter is read here, before the polish and the final
	// evaluation, so each counts the annealer's work alone.
	counts := p.counts
	for i := 0; i < p.bw.K(); i++ {
		counts.Add(p.bw.Lane(i).Counts())
	}
	unstable := p.unstableCount()

	// Polish: a final full Newton solve from the best point tightens the
	// bias to simulator-grade dc-correctness (the annealer's freezing
	// tolerance is looser than a simulator's). A cancelled run still
	// gets its polish — it is bounded work and the returned design
	// should be the best usable one.
	best, dcOK, laneDC := polishLanes(context.WithoutCancel(ctx), p, res.Best)
	// One final evaluation at the polished point: the result's cost, the
	// nominal state, and the per-corner verdicts all come from this
	// single pass.
	cost := p.eval(best)
	out := &Result{
		Compiled:  c,
		DCSolved:  dcOK,
		X:         best,
		Cost:      cost,
		State:     p.bw.Lane(0).State(),
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
			Unstable:        unstable,
		},
		Counts:        counts,
		CheckpointErr: ckErr,
		evalTime:      p.evalTime,
		evalsTimed:    p.evalsTimed,
	}
	// A nominal-only run reports no corner breakdown.
	if len(cs.Corners) > 0 {
		out.Failures.Corners = p.failureStats()
		out.Degraded = p.degraded()
		out.Corners = p.cornerResults(laneDC)
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
	for i, n := range counts {
		asp.SetAttr(astrx.Count(i).String(), strconv.FormatUint(n, 10))
	}
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

// runFn is the seam RunBest uses to launch individual runs; tests
// substitute it to exercise the per-run failure paths deterministically.
var runFn = Run

// reseedOffset separates a retry's random stream from the failed
// attempt's (a large prime, like RunSeed's per-run stride).
const reseedOffset = 104729

// RunSeed is the seed of run i of a multi-start job: RunBest's runs and
// the runs a fleet fans out use the same seeds.
func RunSeed(seed int64, i int) int64 { return seed + int64(i)*7919 }

// Beats is the one rule for the winner among a job's runs, in RunBest
// and the fleet coordinator alike: a dc-correct design beats any cheaper
// fiction, then the lower total cost wins.
func Beats(aDCSolved bool, aCost float64, bDCSolved bool, bCost float64) bool {
	if aDCSolved != bDCSolved {
		return aDCSolved
	}
	return aCost < bCost
}

// RunBest is the one launcher for a synthesis request: it returns the
// best of n seeded runs (the paper's "5-10 annealing runs performed
// overnight") and each run's error (nil for a success). The best result
// is nil only when every run failed. For n ≤ 1 it is exactly Run.
//
// For n > 1 the runs are parallel goroutines seeded by RunSeed. A failed
// run is retried once with a reseeded stream after a short backoff; if
// it fails again it is reported in its error slot but does not discard
// its successful siblings. Checkpointing is a single-run feature:
// CheckpointPath and Resume are ignored (n runs would race on one file).
// Cancelling ctx stops all runs; each returns its best-so-far design, so
// a deadline-bounded RunBest still yields n usable candidates.
func RunBest(ctx context.Context, deck *netlist.Deck, n int, opt Options) (*Result, []error) {
	if n <= 1 {
		r, err := runFn(ctx, deck, opt)
		return r, []error{err}
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
			o.Seed = RunSeed(opt.Seed, i)
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
						i, RunSeed(opt.Seed, i), err, err2)
				}
			}
			results[i], errs[i] = r, err
		}(i)
	}
	wg.Wait()

	var best *Result
	for i, r := range results {
		if errs[i] != nil || r == nil {
			continue
		}
		if best == nil || Beats(r.DCSolved, r.Cost.Total, best.DCSolved, best.Cost.Total) {
			best = r
		}
	}
	return best, errs
}
