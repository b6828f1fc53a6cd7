package oblx

import (
	"context"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"astrx/internal/astrx"
	"astrx/internal/telemetry"
	"astrx/internal/trace"
)

// TestProgressFlightFields verifies that the enriched progress events
// carry the run-record payload (move class, Lam target, Hustin weights,
// worst spec), that MoveAttrs renders it under the move-event attribute
// names, and that a shared StageTimer collects per-stage timings across
// the run and lands them on the traced anneal span.
func TestProgressFlightFields(t *testing.T) {
	deck := parse(t, diffAmpDeck)
	timer := telemetry.NewEvalTimer(8)
	tid := trace.TraceIDFromRequest("progress-fields")
	rec := trace.NewRecorder(trace.Context{TraceID: tid, SpanID: trace.RootSpanID(tid)}, 0)
	var events []ProgressEvent
	res, err := Run(context.Background(), deck, Options{
		Seed: 3, MaxMoves: 4000, NoFreeze: true,
		Progress:      func(ev ProgressEvent) { events = append(events, ev) },
		ProgressEvery: 250,
		StageTimer:    timer,
		Trace:         rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(events) == 0 {
		t.Fatalf("no progress events")
	}

	classNames := map[string]bool{"random": true, "all-cont": true, "newton-full": true, "newton-step": true}
	var sawClass, sawWorst bool
	for _, ev := range events {
		if ev.MoveClass != "" {
			sawClass = true
			if !classNames[ev.MoveClass] {
				t.Fatalf("move %d: unknown class %q", ev.Move, ev.MoveClass)
			}
		}
		if ev.Move > 0 {
			if ev.LamTarget <= 0 || ev.LamTarget > 1 {
				t.Errorf("move %d: LamTarget = %g out of (0, 1]", ev.Move, ev.LamTarget)
			}
			if len(ev.Hustin) != 4 {
				t.Errorf("move %d: Hustin has %d classes, want 4: %v", ev.Move, len(ev.Hustin), ev.Hustin)
			}
			for name, q := range ev.Hustin {
				if !classNames[name] || q <= 0 {
					t.Errorf("move %d: Hustin[%q] = %g", ev.Move, name, q)
				}
			}
		}
		if ev.WorstSpec != "" {
			sawWorst = true
			if ev.WorstSpec != "ugf" {
				t.Errorf("move %d: WorstSpec = %q, want ugf (the only non-objective spec)", ev.Move, ev.WorstSpec)
			}
			if math.IsNaN(ev.WorstSpecU) || math.IsInf(ev.WorstSpecU, 0) {
				t.Errorf("move %d: WorstSpecU non-finite", ev.Move)
			}
		}
		// Every event must survive the SSE path's JSON encoding.
		if _, err := json.Marshal(ev); err != nil {
			t.Fatalf("move %d: event not JSON-encodable: %v", ev.Move, err)
		}
		checkMoveAttrs(t, ev)
	}
	if !sawClass {
		t.Error("no event carried a move class")
	}
	if !sawWorst {
		t.Error("no event carried a worst spec")
	}

	// The stage timer saw the full pipeline.
	bd := timer.Breakdown()
	stages := map[string]bool{}
	for _, row := range bd {
		stages[row.Stage] = true
		if row.SampledEvals <= 0 || row.TotalSeconds < 0 {
			t.Errorf("stage %s: bad breakdown row %+v", row.Stage, row)
		}
	}
	var anneal *trace.Span
	for _, sp := range rec.Snapshot() {
		if sp.Name == "anneal" {
			anneal = &sp
		}
	}
	if anneal == nil {
		t.Fatal("no anneal span recorded")
	}
	for _, want := range []string{"bias", "stamp", "factor", "solve", "moments", "fit", "specs"} {
		if !stages[want] {
			t.Errorf("stage %s missing from breakdown %+v", want, bd)
		}
		us, err := strconv.ParseFloat(anneal.Attrs["stage."+want+"_us"], 64)
		if err != nil || us < 0 {
			t.Errorf("anneal span stage.%s_us = %q", want, anneal.Attrs["stage."+want+"_us"])
		}
	}
	checkCounts(t, anneal, res)
}

// TestRunRecordsEvalSpans: given a StageTimer and a Trace, Run records
// each stage of every evaluation the timer samples as an eval:<stage>
// span under its anneal span, with no wiring by the caller, on every
// lane of a cornered run too.
func TestRunRecordsEvalSpans(t *testing.T) {
	for _, src := range []string{diffAmpDeck, diffAmpDeck + corneredDiffAmpCards} {
		timer := telemetry.NewEvalTimer(8)
		tid := trace.TraceIDFromRequest("eval-spans")
		rec := trace.NewRecorder(trace.Context{TraceID: tid, SpanID: trace.RootSpanID(tid)}, 1<<15)
		if _, err := Run(context.Background(), parse(t, src), Options{
			Seed: 1, MaxMoves: 1000, NoFreeze: true, StageTimer: timer, Trace: rec,
		}); err != nil {
			t.Fatal(err)
		}
		spans := rec.Snapshot()
		var annealID string
		for _, sp := range spans {
			if sp.Name == "anneal" {
				annealID = sp.SpanID
			}
		}
		evals := map[string]int64{}
		for _, sp := range spans {
			if stage, ok := strings.CutPrefix(sp.Name, "eval:"); ok {
				evals[stage]++
				if sp.Parent != annealID || annealID == "" {
					t.Fatalf("eval span %s under %q, want the anneal span %q", sp.Name, sp.Parent, annealID)
				}
			}
		}
		bd := timer.Breakdown()
		if len(bd) != telemetry.NumStages || rec.Dropped() != 0 {
			t.Fatalf("breakdown %+v, %d spans dropped: want every stage sampled and nothing dropped", bd, rec.Dropped())
		}
		for _, b := range bd {
			if evals[b.Stage] != b.SampledEvals {
				t.Errorf("stage %s: %d eval spans, want the %d samples the timer counted", b.Stage, evals[b.Stage], b.SampledEvals)
			}
		}
	}
}

// checkCounts requires the anneal span to carry every count of the
// run's record under its name, and the counts to hold together:
//   - each evaluation factors at least one jig per lane or reuses its
//     factors because the jig's matrices repeated, and the first
//     factorization of each jig misses the empty symbolic cache;
//   - the run made Newton moves, and every Jacobian reused the replay of
//     the residual before it (dcsolve always asks for the Jacobian at
//     the point it has just evaluated);
//   - no count of reuses exceeds the count it is part of;
//   - the run fitted, each fit ended in exactly one outcome, and every
//     fit that did not return the constant model attempted an order.
func checkCounts(t *testing.T, anneal *trace.Span, res *Result) {
	t.Helper()
	c := res.Counts
	for i, want := range c {
		name := astrx.Count(i).String()
		got, err := strconv.ParseUint(anneal.Attrs[name], 10, 64)
		if err != nil || got != want {
			t.Errorf("anneal span %s = %q, want %d", name, anneal.Attrs[name], want)
		}
	}
	lanes := uint64(max(1, len(res.Corners)))
	if c[astrx.FactorSparse]+c[astrx.FactorDense]+c[astrx.FactorReused] < lanes*uint64(res.EvalCount) ||
		c[astrx.FactorSymbolicMisses] < lanes {
		t.Errorf("factor counts %v too low for %d evaluations over %d lanes", c[:astrx.DeviceEvals], res.EvalCount, lanes)
	}
	if c[astrx.NewtonJacobians] == 0 || c[astrx.NewtonJacobiansReused] != c[astrx.NewtonJacobians] ||
		c[astrx.NewtonResiduals] < c[astrx.NewtonJacobians] {
		t.Errorf("counts %v: want Jacobians > 0, all reused, and no more Jacobians than residuals", c)
	}
	for _, pair := range [][2]astrx.Count{
		{astrx.DeviceEvals, astrx.DeviceReused},
		{astrx.NewtonDeviceEvals, astrx.NewtonDeviceReused},
		{astrx.NewtonProposals, astrx.NewtonProposalsReused},
	} {
		if n, r := c[pair[0]], c[pair[1]]; n == 0 || r > n {
			t.Errorf("%s %d, %s %d: want some, with no more reused than made", pair[0], n, pair[1], r)
		}
	}
	fits, outcomes := c[astrx.FitFits], c[astrx.FitValidatedStable]+c[astrx.FitValidatedUnstable]+
		c[astrx.FitUnvalidated]+c[astrx.FitConstant]
	if fits == 0 || outcomes != fits || c[astrx.FitAttempts] < fits-c[astrx.FitConstant] {
		t.Errorf("fit counts %v: want fits > 0, one outcome per fit, and an attempt per non-constant fit", c[astrx.FitFits:])
	}
}

// checkMoveAttrs decodes ev.MoveAttrs() and compares every attribute
// with the field it renders.
func checkMoveAttrs(t *testing.T, ev ProgressEvent) {
	t.Helper()
	kv := ev.MoveAttrs()
	if len(kv)%2 != 0 {
		t.Fatalf("move %d: odd attribute list %v", ev.Move, kv)
	}
	attrs := make(map[string]string, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		attrs[kv[i]] = kv[i+1]
	}
	num := func(k string) float64 {
		v, err := strconv.ParseFloat(attrs[k], 64)
		if err != nil {
			t.Fatalf("move %d: attribute %s = %q: %v", ev.Move, k, attrs[k], err)
		}
		return v
	}
	for k, want := range map[string]float64{
		"run": float64(ev.Run), "move": float64(ev.Move), "evals": float64(ev.Evals),
		"dcost": ev.DCost, "temp": ev.Temp, "lam_target": ev.LamTarget, "acc_ratio": ev.AcceptRatio,
		"cost": ev.Cost, "best_cost": ev.BestCost, "max_kcl_error": ev.MaxKCLError,
	} {
		if got := num(k); got != want {
			t.Errorf("move %d: %s = %g, want %g", ev.Move, k, got, want)
		}
	}
	if attrs["accepted"] != strconv.FormatBool(ev.Accepted) || attrs["move_class"] != ev.MoveClass ||
		attrs["worst_spec"] != ev.WorstSpec || attrs["span_id"] != ev.SpanID {
		t.Errorf("move %d: attrs %v do not match event %+v", ev.Move, attrs, ev)
	}
	if ev.WorstSpec != "" && num("worst_spec_u") != ev.WorstSpecU {
		t.Errorf("move %d: worst_spec_u = %s, want %g", ev.Move, attrs["worst_spec_u"], ev.WorstSpecU)
	}
	if ev.SpanID == "" {
		t.Errorf("move %d: traced run left SpanID empty", ev.Move)
	}
	for class, q := range ev.Hustin {
		if got := num("hustin." + class); got != q {
			t.Errorf("move %d: hustin.%s = %g, want %g", ev.Move, class, got, q)
		}
	}
}
