// Package telemetry provides the observability primitives shared by the
// synthesis engine and the oblxd daemon: sampled per-stage timing of the
// compiled cost-evaluation pipeline and structured-logging construction
// helpers. Everything here is stdlib-only and designed to stay off the
// zero-allocation hot path: when sampling is disabled the
// instrumentation reduces to a nil check, and even an active sample
// performs no heap allocation.
package telemetry

import (
	"sync/atomic"
	"time"

	"astrx/internal/trace"
)

// Stage identifies one phase of the compiled evaluation pipeline, in
// execution order. The names mirror the ASTRX cost-evaluation flow:
// bias point, matrix stamping, LU refactorization, AWE moment
// recursion, Padé fit + root finding, and spec expression evaluation.
type Stage uint8

const (
	// StageBias covers node-voltage assignment, device operating-point
	// models, and KCL residual accumulation.
	StageBias Stage = iota
	// StageStamp covers per-jig G/C matrix stamping.
	StageStamp
	// StageFactor covers the numeric LU refactorization (sparse replay
	// or dense fallback).
	StageFactor
	// StageSolve covers triangular solves against the factorization:
	// the DC solve plus one back/forward substitution per AWE moment.
	StageSolve
	// StageMoments covers the AWE moment recursion per transfer function
	// (right-hand-side assembly between solves).
	StageMoments
	// StageFit covers the Padé fit, root finding, and stability check.
	StageFit
	// StageSpecs covers evaluation of the compiled spec expressions.
	StageSpecs

	// NumStages is the number of pipeline stages.
	NumStages = int(StageSpecs) + 1
)

var stageNames = [NumStages]string{"bias", "stamp", "factor", "solve", "moments", "fit", "specs"}

func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames returns the stage names in pipeline order, indexed by Stage.
func StageNames() [NumStages]string { return stageNames }

// StageBuckets are histogram bucket bounds (seconds) suited to per-stage
// eval timings, which run from sub-microsecond stamps to multi-millisecond
// root-finding on large decks.
var StageBuckets = []float64{
	1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
}

// StageBreakdown is one row of a cumulative per-stage timing summary.
type StageBreakdown struct {
	Stage        string  `json:"stage"`
	SampledEvals int64   `json:"sampled_evals"`
	TotalSeconds float64 `json:"total_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
}

// EvalTimer accumulates sampled per-stage timings across every evaluation
// workspace attached to it. One timer serves a whole job: RunBest's
// parallel runs each attach their own Clock, and the clocks funnel into
// the timer's atomic totals. The zero EvalTimer (and a nil one) is inert.
type EvalTimer struct {
	every  int
	totals [NumStages]atomic.Int64 // nanoseconds
	counts [NumStages]atomic.Int64 // sampled evals that exercised the stage
}

// DefaultSampleEvery is oblxd's stage-timing cadence: one in 64
// evaluations, for local jobs and fleet leases alike.
const DefaultSampleEvery = 64

// NewEvalTimer returns a timer that samples one in every `every`
// evaluations per attached clock. every <= 0 disables sampling entirely:
// the timer still exists but records nothing and its clocks are no-ops.
func NewEvalTimer(every int) *EvalTimer {
	return &EvalTimer{every: every}
}

// SampleEvery reports the sampling cadence (0 when disabled).
func (t *EvalTimer) SampleEvery() int {
	if t == nil || t.every <= 0 {
		return 0
	}
	return t.every
}

// Breakdown returns the cumulative per-stage summary for every stage
// that recorded at least one sample, in pipeline order.
func (t *EvalTimer) Breakdown() []StageBreakdown {
	if t == nil {
		return nil
	}
	var out []StageBreakdown
	for s := 0; s < NumStages; s++ {
		n := t.counts[s].Load()
		if n == 0 {
			continue
		}
		tot := float64(t.totals[s].Load()) * 1e-9
		out = append(out, StageBreakdown{
			Stage:        Stage(s).String(),
			SampledEvals: n,
			TotalSeconds: tot,
			MeanSeconds:  tot / float64(n),
		})
	}
	return out
}

// NewClock returns a clock feeding this timer. Each evaluation workspace
// (one per concurrent annealing run) needs its own clock; clocks are not
// safe for concurrent use, timers are.
func (t *EvalTimer) NewClock() *Clock {
	if t == nil || t.every <= 0 {
		return nil
	}
	return &Clock{t: t, every: t.every}
}

// Clock is the per-workspace half of the stage timer: unsynchronized
// scratch state written from exactly one goroutine. A nil *Clock is a
// valid no-op receiver for every method, so instrumented code can call
// Begin/Mark/End unconditionally.
type Clock struct {
	t       *EvalTimer
	every   int
	n       int
	active  bool
	mark    time.Time
	scratch [NumStages]int64
	// rec and parent receive each sampled stage as an eval span (Trace).
	rec    *trace.Recorder
	parent string
}

// Trace makes the clock record each stage of a sampled evaluation as an
// "eval:<stage>" span under span parent of rec, besides adding it to the
// timer. This is the one place a stage sample becomes a span. A nil rec
// records none.
func (c *Clock) Trace(rec *trace.Recorder, parent string) {
	if c == nil {
		return
	}
	c.rec, c.parent = rec, parent
}

// Begin starts an evaluation. One in every `every` calls arms the clock;
// the rest (and every call on a nil clock) return immediately.
func (c *Clock) Begin() {
	if c == nil {
		return
	}
	c.n++
	if c.n%c.every != 0 {
		c.active = false
		return
	}
	c.active = true
	for i := range c.scratch {
		c.scratch[i] = 0
	}
	c.mark = time.Now()
}

// Mark attributes the time elapsed since the previous Mark (or Begin) to
// stage s. Stages hit multiple times per evaluation (per-jig stamping,
// per-TF moments) accumulate.
func (c *Clock) Mark(s Stage) {
	if c == nil || !c.active {
		return
	}
	now := time.Now()
	c.scratch[s] += now.Sub(c.mark).Nanoseconds()
	c.mark = now
}

// End finishes an armed evaluation, flushing the scratch timings into the
// shared timer and recording an eval span per stage hit when the clock
// is traced. Evaluations abandoned mid-pipeline (error paths return
// before End) are discarded at the next Begin.
func (c *Clock) End() {
	if c == nil || !c.active {
		return
	}
	c.active = false
	for s := 0; s < NumStages; s++ {
		ns := c.scratch[s]
		if ns == 0 {
			continue
		}
		c.t.totals[s].Add(ns)
		c.t.counts[s].Add(1)
		c.rec.RecordEval(c.parent, stageNames[s], time.Duration(ns))
	}
}
