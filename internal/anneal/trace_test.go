package anneal

import (
	"context"
	"math"
	"testing"
)

// TestTracePointFlightFields verifies the per-move fields progress
// samples carry on TracePoint: move class, acceptance outcome, Δcost,
// Lam target, and the Hustin quality snapshot, on both the Progress and
// Trace paths.
func TestTracePointFlightFields(t *testing.T) {
	p := &funcProblem{
		vars: contVars(3, -5, 5),
		cost: func(x []float64) float64 {
			s := 0.0
			for _, v := range x {
				s += v * v
			}
			return s
		},
	}
	moves := []Move{
		NewRandomStep("single", p.vars, 0.25),
		NewAllStep("all", p.vars),
	}
	classNames := map[string]bool{"single": true, "all": true}

	var progress, trace []TracePoint
	_, err := Run(context.Background(), p, moves, Options{
		Seed: 7, MaxMoves: 4000, NoFreeze: true,
		Progress: func(tp TracePoint) { progress = append(progress, tp) }, ProgressEvery: 100,
		Trace: func(tp TracePoint) { trace = append(trace, tp) }, TraceEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(progress) == 0 || len(trace) == 0 {
		t.Fatalf("no events: %d progress, %d trace", len(progress), len(trace))
	}

	// The first progress event fires before any proposal: class empty.
	if progress[0].Move != 0 || progress[0].MoveClass != "" {
		t.Errorf("first progress = move %d class %q, want move 0 class \"\"", progress[0].Move, progress[0].MoveClass)
	}
	var sawAccepted, sawRejected bool
	for _, tp := range append(progress[1:], trace...) {
		if !classNames[tp.MoveClass] {
			t.Fatalf("move %d: unknown move class %q", tp.Move, tp.MoveClass)
		}
		if want := lamTarget(float64(tp.Move) / 4000); tp.LamTarget != want {
			t.Fatalf("move %d: LamTarget = %g, want %g", tp.Move, tp.LamTarget, want)
		}
		if len(tp.Quality) != len(moves) {
			t.Fatalf("move %d: %d quality weights, want %d", tp.Move, len(tp.Quality), len(moves))
		}
		for i, q := range tp.Quality {
			if q <= 0 || math.IsNaN(q) {
				t.Fatalf("move %d: quality[%d] = %g, want positive", tp.Move, i, q)
			}
		}
		if math.IsNaN(tp.DCost) || math.IsInf(tp.DCost, 0) {
			t.Fatalf("move %d: non-finite DCost %g", tp.Move, tp.DCost)
		}
		if tp.Accepted {
			sawAccepted = true
		} else {
			sawRejected = true
		}
	}
	if !sawAccepted {
		t.Error("no event recorded an accepted move")
	}
	if !sawRejected {
		t.Error("no event recorded a rejected move")
	}

	// Trace fires on the post-acceptance path: every trace point's DCost
	// must be consistent with its acceptance (accepted uphill moves exist,
	// but an accepted move with d <= 0 must always be accepted).
	for _, tp := range trace {
		if tp.DCost < 0 && !tp.Accepted {
			t.Fatalf("move %d: downhill move (d=%g) reported rejected", tp.Move, tp.DCost)
		}
	}

	// Quality snapshots are copies: mutating one must not corrupt the
	// selector (compare two consecutive events for independence).
	if len(progress) >= 2 {
		progress[0].Quality = append(progress[0].Quality[:0], -1)
		for _, q := range progress[1].Quality {
			if q == -1 {
				t.Fatal("Quality snapshots share backing storage")
			}
		}
	}
}
