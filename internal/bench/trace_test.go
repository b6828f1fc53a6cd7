package bench

import (
	"testing"
	"time"

	"astrx/internal/astrx"
	"astrx/internal/trace"
)

// TestTraceOffZeroAlloc pins the tracing-off guarantee: with tracing
// compiled in but disabled (nil *trace.Recorder, nil *trace.Active —
// exactly what the annealer and corner lanes hold when Options.Trace is
// unset), one cost evaluation wrapped in every nil-receiver trace call
// the hot path makes still performs zero heap allocations. This is the
// telemetry-guard companion to TestWorkspaceZeroAlloc: that test proves
// the eval core is alloc-free, this one proves the trace
// instrumentation adds nothing when off. Evaluations alternate between
// two points, so each runs the whole pipeline; a repeated point pins the
// path that keeps a jig's factors and models.
func TestTraceOffZeroAlloc(t *testing.T) {
	c, err := Compile(SimpleOTA)
	if err != nil {
		t.Fatal(err)
	}
	x := evalSequence(c, 0)[0]
	y := nodeMoved(c, x)
	ws := c.NewWorkspace()
	ws.Cost(x) // warm up lazy scratch at both points
	ws.Cost(y)

	var rec *trace.Recorder // tracing off
	traced := func(x []float64) {
		// The span shapes the instrumented pipeline emits around an
		// eval: an anneal-scoped Active, a sampled per-stage eval span,
		// and corner-lane events — all no-ops on nil receivers.
		span := rec.Begin("anneal", "")
		ws.Cost(x)
		rec.RecordEval(span.ID(), "eval", time.Microsecond)
		span.SetAttr("moves", "1")
		span.Event("corner-retry", "corner", "ss_cold")
		span.End("ok")
		rec.AddTimed("corner:tt", "", time.Now(), time.Microsecond)
	}
	reused := func() uint64 { return ws.Counts()[astrx.FactorReused] }
	checkAllocs(t, "eval of two points in turn with tracing off", func() { traced(x); traced(y) }, reused, false)
	checkAllocs(t, "eval of a repeated point with tracing off", func() { traced(x) }, reused, true)
}
