package oblx

import (
	"context"
	"encoding/json"
	"math"
	"strconv"
	"testing"

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
	checkFactorAttrs(t, anneal, res)
}

// checkFactorAttrs requires the anneal span to carry the run's
// factorization counts, and the counts to cover every evaluation: each
// one factors at least one jig per lane or reuses its factors because
// the jig's matrices repeated, and the first factorization of each jig
// misses the empty symbolic cache.
func checkFactorAttrs(t *testing.T, anneal *trace.Span, res *Result) {
	t.Helper()
	fc := res.FactorCounts
	for name, want := range map[string]uint64{
		"factor.sparse":          fc.Sparse,
		"factor.dense":           fc.Dense,
		"factor.symbolic_misses": fc.SymbolicMisses,
		"factor.reused":          fc.Reused,
	} {
		got, err := strconv.ParseUint(anneal.Attrs[name], 10, 64)
		if err != nil || got != want {
			t.Errorf("anneal span %s = %q, want %d", name, anneal.Attrs[name], want)
		}
	}
	lanes := max(1, len(res.Corners))
	if fc.Sparse+fc.Dense+fc.Reused < uint64(lanes*res.EvalCount) || fc.SymbolicMisses < uint64(lanes) {
		t.Errorf("factor counts %+v too low for %d evaluations over %d lanes", fc, res.EvalCount, lanes)
	}
	checkNewtonAttrs(t, anneal, res)
}

// checkNewtonAttrs requires the anneal span to carry the run's Newton
// and device counts, the run to have made Newton moves, every Jacobian
// to have reused the replay of the residual before it (dcsolve always
// asks for the Jacobian at the point it has just evaluated), and no
// count of reuses to exceed the count it is part of.
func checkNewtonAttrs(t *testing.T, anneal *trace.Span, res *Result) {
	t.Helper()
	nc, dc, pc := res.NewtonCounts, res.DeviceCounts, res.NewtonProposals
	for name, want := range map[string]uint64{
		"newton.residuals":        nc.Residuals,
		"newton.jacobians":        nc.Jacobians,
		"newton.jacobians_reused": nc.JacobiansReused,
		"newton.device_evals":     nc.Devices.Evals,
		"newton.device_reused":    nc.Devices.Reused,
		"newton.proposals":        pc.Proposals,
		"newton.proposals_reused": pc.Reused,
		"device.evals":            dc.Evals,
		"device.reused":           dc.Reused,
	} {
		got, err := strconv.ParseUint(anneal.Attrs[name], 10, 64)
		if err != nil || got != want {
			t.Errorf("anneal span %s = %q, want %d", name, anneal.Attrs[name], want)
		}
	}
	if nc.Jacobians == 0 || nc.JacobiansReused != nc.Jacobians || nc.Residuals < nc.Jacobians {
		t.Errorf("newton counts %+v: want Jacobians > 0, all reused, and no more Jacobians than residuals", nc)
	}
	if nc.Devices.Evals == 0 || nc.Devices.Reused > nc.Devices.Evals || dc.Evals == 0 || dc.Reused > dc.Evals ||
		pc.Proposals == 0 || pc.Reused > pc.Proposals {
		t.Errorf("device counts %+v, newton device counts %+v, proposals %+v: want evaluations and proposals, each with no more reused than made",
			dc, nc.Devices, pc)
	}
	checkFitAttrs(t, anneal, res)
}

// checkFitAttrs requires the anneal span to carry the run's fit counts,
// the run to have fitted, each fit to have ended in exactly one outcome,
// and every fit that did not return the constant model to have
// attempted at least one order.
func checkFitAttrs(t *testing.T, anneal *trace.Span, res *Result) {
	t.Helper()
	ft := res.FitCounts
	for name, want := range map[string]uint64{
		"fit.fits":               ft.Fits,
		"fit.attempts":           ft.Attempts,
		"fit.deferred":           ft.Deferred,
		"fit.validated_stable":   ft.ValidatedStable,
		"fit.validated_unstable": ft.ValidatedUnstable,
		"fit.unvalidated":        ft.Unvalidated,
		"fit.constant":           ft.Constant,
		"fit.unread":             ft.Unread,
	} {
		got, err := strconv.ParseUint(anneal.Attrs[name], 10, 64)
		if err != nil || got != want {
			t.Errorf("anneal span %s = %q, want %d", name, anneal.Attrs[name], want)
		}
	}
	if ft.Fits == 0 || ft.ValidatedStable+ft.ValidatedUnstable+ft.Unvalidated+ft.Constant != ft.Fits ||
		ft.Attempts < ft.Fits-ft.Constant {
		t.Errorf("fit counts %+v: want fits > 0, one outcome per fit, and an attempt per non-constant fit", ft)
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
