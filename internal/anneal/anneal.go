// Package anneal is the problem-independent simulated-annealing engine
// underneath OBLX. It implements the four components §V-A of the paper
// calls out:
//
//   - Representation: a mixed vector of continuous values and
//     logarithmically gridded discrete values (VarSpec).
//   - Move-set: pluggable move classes (Move interface) selected by the
//     adaptive quality scheme of Hustin, so the annealer itself learns
//     whether random, gradient-directed, or combined moves pay off at the
//     current point of the cooling.
//   - Cost function: any Problem implementation.
//   - Control: the Lam-Delosme cooling schedule in the "modified Lam"
//     form popularized by Swartz and Sechen (temperature chases a target
//     acceptance-ratio trajectory), plus the paper's freezing criterion —
//     stop when discrete variables stop changing and continuous ones move
//     less than a relative tolerance.
//
// The engine is deterministic for a fixed seed: all randomness flows from
// the *rand.Rand constructed in Run.
package anneal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// VarSpec describes one optimization variable.
type VarSpec struct {
	Name string
	Min  float64
	Max  float64
	// Continuous variables move in ℝ; discrete ones live on a log grid.
	Continuous bool
	// PointsPerDecade is the log-grid density for discrete variables
	// (0 → 50). The paper: "because small changes in device sizes make
	// proportionally less difference on larger devices, we typically use
	// a logarithmically spaced grid."
	PointsPerDecade int
	// Init is the starting value (0 → geometric/arithmetic midpoint).
	Init float64
}

// gridDensity returns the points-per-decade with default applied.
func (v *VarSpec) gridDensity() float64 {
	if v.PointsPerDecade <= 0 {
		return 50
	}
	return float64(v.PointsPerDecade)
}

// Clamp limits x to the variable's range.
func (v *VarSpec) Clamp(x float64) float64 {
	if x < v.Min {
		return v.Min
	}
	if x > v.Max {
		return v.Max
	}
	return x
}

// Snap maps x onto the variable's representable set: clamped for
// continuous variables, nearest log-grid point for discrete ones.
func (v *VarSpec) Snap(x float64) float64 {
	x = v.Clamp(x)
	if v.Continuous {
		return x
	}
	// Discrete: log grid between Min and Max. Guard non-positive ranges
	// (grid variables are sizes/currents, positive by construction).
	if v.Min <= 0 {
		return x
	}
	n := math.Round(math.Log10(x/v.Min) * v.gridDensity())
	return v.Clamp(v.Min * math.Pow(10, n/v.gridDensity()))
}

// StepGrid moves x by n grid steps (discrete variables only).
func (v *VarSpec) StepGrid(x float64, n int) float64 {
	if v.Continuous || v.Min <= 0 {
		return v.Clamp(x)
	}
	k := math.Round(math.Log10(x/v.Min)*v.gridDensity()) + float64(n)
	return v.Clamp(v.Min * math.Pow(10, k/v.gridDensity()))
}

// Start returns the initial value of the variable.
func (v *VarSpec) Start() float64 {
	if v.Init != 0 {
		return v.Snap(v.Init)
	}
	if v.Continuous || v.Min <= 0 {
		return (v.Min + v.Max) / 2
	}
	return v.Snap(math.Sqrt(v.Min * v.Max)) // geometric midpoint
}

// Problem is a scalar minimization problem over a mixed variable vector.
type Problem interface {
	Vars() []VarSpec
	Cost(x []float64) float64
}

// Move is one move class in the annealer's palette. Propose mutates next
// (a copy of cur) and reports whether a move could be generated.
// Feedback delivers the acceptance result so classes can adapt their own
// amplitudes.
type Move interface {
	Name() string
	Propose(cur, next []float64, rng *rand.Rand) bool
	Feedback(accepted bool, dCost float64)
}

// TracePoint is a periodic snapshot of the run: the raw material of
// progress samples (SSE, move events, Fig. 2) and of periodic hooks such
// as OBLX's constraint-weight adaptation.
type TracePoint struct {
	Move     int
	Temp     float64
	Cost     float64
	BestCost float64
	AccRate  float64
	X        []float64 // copy of the current state

	// MoveClass names the most recently proposed move class ("" before
	// the first proposal of a run); Accepted and DCost report its
	// outcome. Proposals rejected for a non-finite cost report
	// Accepted=false with DCost 0 (the delta is meaningless).
	MoveClass string
	Accepted  bool
	DCost     float64
	// LamTarget is the modified-Lam trajectory's target acceptance ratio
	// at this move; compare with AccRate to see whether the temperature
	// controller is ahead of or behind schedule.
	LamTarget float64
	// Quality is a copy of the Hustin selector's per-class quality
	// weights, indexed like the moves slice passed to Run.
	Quality []float64
}

// Freezing: a run stops early when, for freezeStages consecutive stages
// of stageMoves moves, no accepted move changed a discrete variable and
// accepted continuous changes stayed below freezeTol relative to the
// variable range. Stages also pace the Hustin selector's decay.
const (
	stageMoves   = 1000
	freezeStages = 8
	freezeTol    = 1e-4
)

// Options tunes a Run. The initial temperature is always calibrated
// from a short random walk.
type Options struct {
	Seed     int64
	MaxMoves int // total move budget; must be positive

	// NoFreeze disables freezing, so the run consumes its whole move
	// budget (fixed-budget runs).
	NoFreeze bool

	// Trace, when set, receives a TracePoint every TraceEvery moves.
	Trace      func(TracePoint)
	TraceEvery int // 0 → 500

	// Progress, when set together with a positive ProgressEvery, receives
	// a TracePoint at the top of every ProgressEvery-th move — before the
	// proposal, unconditionally. Unlike Trace (which fires on the
	// post-acceptance path and is skipped by rejected/no-op proposals),
	// Progress is a liveness signal: a run whose proposals all fail still
	// reports temperature and best-so-far on schedule. It is invoked
	// synchronously on the annealing goroutine; keep it cheap or hand off.
	Progress      func(TracePoint)
	ProgressEvery int

	// BestResetAt, when positive, re-bases the best-so-far bookkeeping
	// at that move: callers whose cost function is nonstationary early
	// in the run (e.g. OBLX's adaptive constraint weights settle during
	// the first quarter) use this so a stale early "best" cannot mask
	// later genuine improvements.
	BestResetAt int

	// OnCheckpoint, when set together with a positive CheckpointEvery,
	// receives a full state snapshot every CheckpointEvery moves —
	// captured at the top of the move loop, so resuming from it replays
	// the remaining moves exactly. On context cancellation one final
	// snapshot is emitted at the cancellation point regardless of the
	// interval, making an interrupted run resumable without losing a
	// single move.
	OnCheckpoint    func(*Checkpoint)
	CheckpointEvery int

	// Resume, when set, restores a previous run's complete state instead
	// of starting fresh. The problem, move palette, seed, and MaxMoves
	// must match the checkpointed run for the result to be meaningful;
	// structural mismatches are rejected with an error.
	Resume *Checkpoint
}

func (o *Options) defaults() {
	if o.TraceEvery == 0 {
		o.TraceEvery = 500
	}
}

// MoveStat reports per-class statistics after a run.
type MoveStat struct {
	Name     string `json:"name"`
	Proposed int    `json:"proposed"`
	Accepted int    `json:"accepted"`
	// Failed counts proposals of this class whose cost came back
	// non-finite and were rejected outright.
	Failed  int     `json:"failed"`
	Quality float64 `json:"quality"`
}

// Result is the outcome of a Run.
type Result struct {
	Best      []float64
	BestCost  float64
	FinalCost float64
	Moves     int
	Accepted  int
	Froze     bool
	// Cancelled reports that the context was cancelled; Best/BestCost
	// are the best-so-far at the point of cancellation, not an error.
	Cancelled bool
	// NonFinite counts moves rejected because the cost function returned
	// NaN or ±Inf — such moves never enter the acceptance machinery.
	NonFinite int
	FinalTemp float64
	MoveStats []MoveStat
}

// isFinite reports whether x is an ordinary float (not NaN, not ±Inf).
func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// Run minimizes p using the supplied move palette. Cancelling ctx stops
// the run cleanly: the best-so-far result is returned with Cancelled
// set, never an error.
func Run(ctx context.Context, p Problem, moves []Move, opt Options) (*Result, error) {
	opt.defaults()
	if ctx == nil {
		ctx = context.Background()
	}
	vars := p.Vars()
	if len(vars) == 0 {
		return nil, fmt.Errorf("anneal: problem has no variables")
	}
	if len(moves) == 0 {
		return nil, fmt.Errorf("anneal: no move classes supplied")
	}
	if opt.MaxMoves <= 0 {
		return nil, fmt.Errorf("anneal: move budget %d is not positive", opt.MaxMoves)
	}
	src := newRNGSource(opt.Seed)
	rng := rand.New(src)

	var (
		cur, best            []float64
		curCost, bestCost    float64
		temp, tMax           float64
		accRate              float64
		accepted, nonFinite  int
		frozenStages         int
		stageDiscreteChanged bool
		stageMaxContChange   float64
		startMove            int
	)
	sel := newSelector(moves)
	classFails := make([]int, len(moves))
	const lamDecay = 0.998

	if ck := opt.Resume; ck != nil {
		if err := ck.validate(len(vars), len(moves), opt.MaxMoves); err != nil {
			return nil, err
		}
		cur = append([]float64(nil), ck.Cur...)
		best = append([]float64(nil), ck.Best...)
		curCost, bestCost = ck.CurCost, ck.BestCost
		temp, tMax, accRate = ck.Temp, ck.TMax, ck.AccRate
		accepted, nonFinite = ck.Accepted, ck.NonFinite
		frozenStages = ck.FrozenStages
		stageDiscreteChanged = ck.StageDiscrete
		stageMaxContChange = ck.StageMaxCont
		src.state = ck.RNGState
		sel.restore(ck.Selector)
		copy(classFails, ck.ClassFails)
		for i, m := range moves {
			if sm, ok := m.(StatefulMove); ok && ck.MoveStates[i] != nil {
				sm.SetMoveState(ck.MoveStates[i])
			}
		}
		startMove = ck.Move
	} else {
		cur = make([]float64, len(vars))
		for i := range vars {
			cur[i] = vars[i].Start()
		}
		curCost = p.Cost(cur)
		if !isFinite(curCost) {
			// A poisoned start must not wedge the best-so-far tracking
			// (NaN comparisons are always false): pretend it is merely
			// terrible so the first finite cost becomes the best.
			nonFinite++
			curCost = math.MaxFloat64
		}
		best = append([]float64(nil), cur...)
		bestCost = curCost

		// --- Initial temperature: Aarts/White style calibration from the
		// cost deltas of a short random walk.
		temp = calibrateT0(p, moves, cur, curCost, rng)
		// Warming is bounded: cost cliffs (failed evaluations) must not
		// run the temperature away.
		tMax = temp * 1e3
		accRate = 0.5
	}

	// capture snapshots the complete engine state at the top of move mv.
	capture := func(mv int) *Checkpoint {
		ms := make([][]float64, len(moves))
		for i, m := range moves {
			if sm, ok := m.(StatefulMove); ok {
				ms[i] = sm.MoveState()
			}
		}
		return &Checkpoint{
			Seed: opt.Seed, MaxMoves: opt.MaxMoves, Move: mv,
			Cur: append([]float64(nil), cur...), CurCost: curCost,
			Best: append([]float64(nil), best...), BestCost: bestCost,
			Temp: temp, TMax: tMax, AccRate: accRate,
			Accepted: accepted, NonFinite: nonFinite,
			FrozenStages: frozenStages, StageDiscrete: stageDiscreteChanged,
			StageMaxCont: stageMaxContChange,
			RNGState:     src.state,
			Selector:     sel.state(),
			MoveStates:   ms,
			ClassFails:   append([]int(nil), classFails...),
		}
	}

	next := make([]float64, len(vars))
	mv := startMove
	froze := false
	cancelled := false

	// Last-proposal outcome, surfaced through TracePoint for progress
	// samples.
	var (
		lastClass    string
		lastAccepted bool
		lastDCost    float64
		target       float64
	)
	snap := func() TracePoint {
		return TracePoint{
			Move: mv, Temp: temp, Cost: curCost, BestCost: bestCost,
			AccRate: accRate, X: append([]float64(nil), cur...),
			MoveClass: lastClass, Accepted: lastAccepted, DCost: lastDCost,
			LamTarget: target, Quality: sel.qualities(),
		}
	}

	for ; mv < opt.MaxMoves; mv++ {
		select {
		case <-ctx.Done():
			cancelled = true
		default:
		}
		if cancelled {
			break
		}
		if opt.OnCheckpoint != nil && opt.CheckpointEvery > 0 &&
			mv > startMove && mv%opt.CheckpointEvery == 0 {
			opt.OnCheckpoint(capture(mv))
		}
		progress := float64(mv) / float64(opt.MaxMoves)
		target = lamTarget(progress)
		if opt.Progress != nil && opt.ProgressEvery > 0 && mv%opt.ProgressEvery == 0 {
			opt.Progress(snap())
		}

		mi := sel.pick(rng)
		lastClass = moves[mi].Name()
		lastAccepted = false
		lastDCost = 0
		copy(next, cur)
		if !moves[mi].Propose(cur, next, rng) {
			// A declined proposal (e.g. a Newton move whose solve failed)
			// still spent the move: charge the class, exactly like the
			// no-op path below — otherwise Hustin never learns a class is
			// stuck and re-picks it forever at points it cannot improve.
			sel.feedback(mi, false, 0)
			moves[mi].Feedback(false, 0)
			continue
		}
		// Snap proposed values onto the representable set.
		changed := false
		for i := range vars {
			next[i] = vars[i].Snap(next[i])
			if next[i] != cur[i] {
				changed = true
			}
		}
		if !changed {
			// A no-op proposal (e.g. a Newton move at an already
			// dc-correct point, or a clamped step at a range boundary)
			// must not pollute the acceptance-rate/temperature
			// statistics — but the move class must still be charged for
			// the wasted work, or Hustin keeps re-picking a class that
			// can make no progress and the run spins.
			sel.feedback(mi, false, 0)
			moves[mi].Feedback(false, 0)
			continue
		}
		nextCost := p.Cost(next)
		if !isFinite(nextCost) {
			// A NaN/Inf cost must never reach the acceptance test — NaN
			// comparisons would silently reject but poison the
			// acceptance-rate statistics, and -Inf would be accepted.
			// Treat it as a hard rejection and charge the class.
			nonFinite++
			classFails[mi]++
			sel.feedback(mi, false, 0)
			moves[mi].Feedback(false, 0)
			continue
		}
		d := nextCost - curCost
		acc := d <= 0
		if !acc && temp > 0 {
			acc = rng.Float64() < math.Exp(-d/temp)
		}
		sel.feedback(mi, acc, d)
		moves[mi].Feedback(acc, d)
		lastAccepted, lastDCost = acc, d

		if acc {
			accepted++
			// Track freezing signals.
			for i := range vars {
				if cur[i] == next[i] {
					continue
				}
				if vars[i].Continuous {
					rel := math.Abs(next[i]-cur[i]) / (vars[i].Max - vars[i].Min)
					if rel > stageMaxContChange {
						stageMaxContChange = rel
					}
				} else {
					stageDiscreteChanged = true
				}
			}
			cur, next = next, cur
			curCost = nextCost
			if curCost < bestCost {
				bestCost = curCost
				copy(best, cur)
			}
			accRate = lamDecay*accRate + (1 - lamDecay)
		} else {
			accRate = lamDecay * accRate
		}

		// Temperature chases the target acceptance ratio.
		if accRate > target {
			temp *= 0.999
		} else if temp < tMax {
			temp /= 0.999
		}

		// Re-base the best tracking once the cost function has settled.
		if opt.BestResetAt > 0 && mv == opt.BestResetAt {
			bestCost = curCost
			copy(best, cur)
		}

		if opt.Trace != nil && mv%opt.TraceEvery == 0 {
			opt.Trace(snap())
		}

		// Stage bookkeeping for the freezing criterion.
		if (mv+1)%stageMoves == 0 {
			if !stageDiscreteChanged && stageMaxContChange < freezeTol {
				frozenStages++
			} else {
				frozenStages = 0
			}
			stageDiscreteChanged = false
			stageMaxContChange = 0
			sel.stageReset()
			if !opt.NoFreeze && frozenStages >= freezeStages {
				froze = true
				mv++
				break
			}
		}
	}

	if cancelled && opt.OnCheckpoint != nil {
		// Final snapshot at the exact cancellation point: a resumed run
		// continues from this move as if never interrupted.
		opt.OnCheckpoint(capture(mv))
	}

	res := &Result{
		Best:      best,
		BestCost:  bestCost,
		FinalCost: curCost,
		Moves:     mv,
		Accepted:  accepted,
		Froze:     froze,
		Cancelled: cancelled,
		NonFinite: nonFinite,
		FinalTemp: temp,
		MoveStats: sel.stats(moves, classFails),
	}
	return res, nil
}

// lamTarget is the classic modified-Lam acceptance-ratio trajectory:
// warm (0.44→ high) start collapsing to 0.44 over the first 15% of the
// budget, flat 0.44 for the middle 50%, then exponential decay to ~0.
func lamTarget(progress float64) float64 {
	switch {
	case progress < 0.15:
		return 0.44 + 0.56*math.Pow(560, -progress/0.15)
	case progress < 0.65:
		return 0.44
	default:
		return 0.44 * math.Pow(440, -(progress-0.65)/0.35)
	}
}

// calibrateT0 estimates a starting temperature giving ≈95% initial
// acceptance, by sampling cost deltas of the move palette around the
// start state.
func calibrateT0(p Problem, moves []Move, start []float64, startCost float64, rng *rand.Rand) float64 {
	vars := p.Vars()
	cur := append([]float64(nil), start...)
	curCost := startCost
	next := make([]float64, len(cur))
	var deltas []float64
	for i := 0; i < 120; i++ {
		m := moves[rng.Intn(len(moves))]
		copy(next, cur)
		if !m.Propose(cur, next, rng) {
			continue
		}
		for j := range vars {
			next[j] = vars[j].Snap(next[j])
		}
		c := p.Cost(next)
		if !isFinite(c) {
			// A failed evaluation during calibration carries no usable
			// delta; stay at the current point and keep sampling.
			continue
		}
		if d := math.Abs(c - curCost); isFinite(d) && d < 1e300 {
			// Deltas against a sanitized (MaxFloat64) start are sentinel
			// cliffs, not real cost movement — exclude them too.
			deltas = append(deltas, d)
		}
		// Random walk: accept everything during calibration.
		cur, next = next, cur
		curCost = c
	}
	if len(deltas) == 0 {
		return 1
	}
	mean := 0.0
	for _, d := range deltas {
		mean += d
	}
	mean /= float64(len(deltas))
	if mean == 0 {
		return 1
	}
	// P(accept worst-average uphill) = exp(-mean/T0) = 0.95.
	return mean / 0.0513 // -ln(0.95)
}

// ---------------------------------------------------------------------------
// Hustin adaptive move selection.

type selector struct {
	quality  []float64
	proposed []int
	totProp  []int
	totAcc   []int
}

func newSelector(moves []Move) *selector {
	n := len(moves)
	s := &selector{
		quality:  make([]float64, n),
		proposed: make([]int, n),
		totProp:  make([]int, n),
		totAcc:   make([]int, n),
	}
	for i := range s.quality {
		s.quality[i] = 1
	}
	return s
}

// pick chooses a move class with probability proportional to its quality
// (per Hustin: classes whose accepted moves recently produced the largest
// cost movement get picked more).
func (s *selector) pick(rng *rand.Rand) int {
	tot := 0.0
	for _, q := range s.quality {
		tot += q
	}
	r := rng.Float64() * tot
	for i, q := range s.quality {
		r -= q
		if r <= 0 {
			return i
		}
	}
	return len(s.quality) - 1
}

func (s *selector) feedback(i int, accepted bool, dCost float64) {
	s.proposed[i]++
	s.totProp[i]++
	if accepted {
		s.totAcc[i]++
		s.quality[i] += math.Abs(dCost)
	}
}

// qualities returns a copy of the per-class quality weights.
func (s *selector) qualities() []float64 {
	return append([]float64(nil), s.quality...)
}

// stageReset decays qualities at each temperature stage so the mix can
// shift as the optimization character changes (random early, gradient
// late), while a floor keeps every class alive.
func (s *selector) stageReset() {
	for i := range s.quality {
		used := s.proposed[i]
		if used > 0 {
			s.quality[i] = 1 + s.quality[i]/float64(used)
		} else {
			s.quality[i] = 1 + s.quality[i]*0.5
		}
		s.proposed[i] = 0
	}
}

func (s *selector) stats(moves []Move, classFails []int) []MoveStat {
	out := make([]MoveStat, len(moves))
	for i := range moves {
		out[i] = MoveStat{
			Name:     moves[i].Name(),
			Proposed: s.totProp[i],
			Accepted: s.totAcc[i],
			Quality:  s.quality[i],
		}
		if classFails != nil {
			out[i].Failed = classFails[i]
		}
	}
	return out
}
