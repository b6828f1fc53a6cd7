package anneal

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
)

// robustProblem is a deterministic quadratic bowl with an optional
// poisoned region where the cost comes back NaN.
func quadProblem(n int, poison func(x []float64) bool) *funcProblem {
	return &funcProblem{
		vars: contVars(n, -5, 5),
		cost: func(x []float64) float64 {
			if poison != nil && poison(x) {
				return math.NaN()
			}
			s := 0.0
			for _, v := range x {
				s += (v - 1) * (v - 1)
			}
			return s
		},
	}
}

func stdMoves(p Problem) []Move {
	return []Move{
		NewRandomStep("random", p.Vars(), 0.3),
		NewAllStep("all", p.Vars()),
	}
}

func TestRunCancellationReturnsBestSoFar(t *testing.T) {
	p := quadProblem(3, nil)
	ctx, cancel := context.WithCancel(context.Background())
	var cancelledAt int
	opt := Options{
		Seed: 5, MaxMoves: 1_000_000, NoFreeze: true,
		TraceEvery: 100,
		Trace: func(tp TracePoint) {
			if tp.Move >= 2000 && cancelledAt == 0 {
				cancelledAt = tp.Move
				cancel()
			}
		},
	}
	res, err := Run(ctx, p, stdMoves(p), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Error("Cancelled not set")
	}
	if res.Moves >= opt.MaxMoves {
		t.Errorf("run consumed the whole budget (%d moves) despite cancellation", res.Moves)
	}
	if res.Moves <= cancelledAt {
		t.Errorf("moves = %d, cancelled at %d", res.Moves, cancelledAt)
	}
	if !isFinite(res.BestCost) || res.BestCost > 75 {
		t.Errorf("best-so-far cost = %g", res.BestCost)
	}
	if len(res.Best) != 3 {
		t.Errorf("best vector len = %d", len(res.Best))
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	p := quadProblem(2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, p, stdMoves(p), Options{Seed: 1, MaxMoves: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled || res.Moves != 0 {
		t.Errorf("cancelled=%v moves=%d, want immediate cancellation", res.Cancelled, res.Moves)
	}
	if !isFinite(res.BestCost) {
		t.Errorf("best cost = %g, want the (finite) initial cost", res.BestCost)
	}
}

func TestNonFiniteCostsAreRejected(t *testing.T) {
	// Poison a whole half-space: any proposal with x[0] > 2 costs NaN.
	// The run must finish, count the rejections, and the best point must
	// stay outside the poisoned region.
	p := quadProblem(2, func(x []float64) bool { return x[0] > 2 })
	res, err := Run(context.Background(), p, stdMoves(p), Options{
		Seed: 3, MaxMoves: 20_000, NoFreeze: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NonFinite == 0 {
		t.Error("no non-finite rejections counted in a half-poisoned space")
	}
	if !isFinite(res.BestCost) {
		t.Fatalf("best cost = %g", res.BestCost)
	}
	if res.Best[0] > 2 {
		t.Errorf("best point x[0] = %g is inside the poisoned region", res.Best[0])
	}
	// Per-class Failed counters sum to the total.
	sum := 0
	for _, ms := range res.MoveStats {
		sum += ms.Failed
	}
	if sum != res.NonFinite {
		t.Errorf("per-class failed sum %d != NonFinite %d", sum, res.NonFinite)
	}
}

func TestNonFiniteInitialCost(t *testing.T) {
	// Start point is poisoned: the run must not wedge on a NaN best.
	p := quadProblem(2, func(x []float64) bool { return x[0] == 0 && x[1] == 0 })
	res, err := Run(context.Background(), p, stdMoves(p), Options{
		Seed: 4, MaxMoves: 5_000, NoFreeze: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !isFinite(res.BestCost) || res.BestCost >= math.MaxFloat64 {
		t.Errorf("best cost = %g, want a real best found after the poisoned start", res.BestCost)
	}
}

// resumeRun runs p to completion in two legs — cancelled at cancelAt
// moves, checkpointed, JSON round-tripped, resumed — and returns the
// final result of the second leg.
func resumeRun(t *testing.T, p Problem, opt Options, cancelAt int) *Result {
	t.Helper()
	return resumeRunEdited(t, p, opt, cancelAt, nil)
}

// resumeRunEdited is resumeRun with the checkpoint's JSON passed through
// edit (when non-nil) before the second leg decodes it.
func resumeRunEdited(t *testing.T, p Problem, opt Options, cancelAt int, edit func([]byte) []byte) *Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var last *Checkpoint
	leg1 := opt
	leg1.TraceEvery = 50
	leg1.Trace = func(tp TracePoint) {
		if tp.Move >= cancelAt {
			cancel()
		}
	}
	leg1.OnCheckpoint = func(ck *Checkpoint) { last = ck }
	leg1.CheckpointEvery = 1000
	r1, err := Run(ctx, p, stdMoves(p), leg1)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Cancelled {
		t.Fatal("leg 1 was not cancelled")
	}
	if last == nil {
		t.Fatal("no checkpoint captured")
	}
	// The checkpoint must survive serialization exactly (the on-disk
	// path): Go round-trips float64 through JSON losslessly.
	data, err := json.Marshal(last)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		data = edit(data)
	}
	restored := &Checkpoint{}
	if err := json.Unmarshal(data, restored); err != nil {
		t.Fatal(err)
	}
	leg2 := opt
	leg2.Resume = restored
	r2, err := Run(context.Background(), p, stdMoves(p), leg2)
	if err != nil {
		t.Fatal(err)
	}
	return r2
}

func TestCheckpointResumeIsDeterministic(t *testing.T) {
	mk := func() Problem { return quadProblem(3, nil) }
	opt := Options{Seed: 17, MaxMoves: 12_000, NoFreeze: true}

	full, err := Run(context.Background(), mk(), stdMoves(mk()), opt)
	if err != nil {
		t.Fatal(err)
	}
	resumed := resumeRun(t, mk(), opt, 4000)

	if resumed.BestCost != full.BestCost {
		t.Errorf("best cost: resumed %g != uninterrupted %g", resumed.BestCost, full.BestCost)
	}
	if resumed.FinalCost != full.FinalCost {
		t.Errorf("final cost: resumed %g != uninterrupted %g", resumed.FinalCost, full.FinalCost)
	}
	for i := range full.Best {
		if resumed.Best[i] != full.Best[i] {
			t.Fatalf("best[%d]: resumed %g != uninterrupted %g", i, resumed.Best[i], full.Best[i])
		}
	}
	if resumed.Moves != full.Moves || resumed.Accepted != full.Accepted {
		t.Errorf("moves/accepted: resumed %d/%d != uninterrupted %d/%d",
			resumed.Moves, resumed.Accepted, full.Moves, full.Accepted)
	}
	if resumed.FinalTemp != full.FinalTemp {
		t.Errorf("final temp: resumed %g != uninterrupted %g", resumed.FinalTemp, full.FinalTemp)
	}
}

// TestCheckpointWithSelectorAcceptedResumes: checkpoints written while
// the selector still recorded per-stage accepted counts (a field nothing
// read) decode and resume bit for bit like a current one.
func TestCheckpointWithSelectorAcceptedResumes(t *testing.T) {
	mk := func() Problem { return quadProblem(3, nil) }
	opt := Options{Seed: 17, MaxMoves: 12_000, NoFreeze: true}
	current := resumeRun(t, mk(), opt, 4000)
	addAccepted := func(data []byte) []byte {
		var ck map[string]json.RawMessage
		if err := json.Unmarshal(data, &ck); err != nil {
			t.Fatal(err)
		}
		var sel map[string]json.RawMessage
		if err := json.Unmarshal(ck["selector"], &sel); err != nil {
			t.Fatal(err)
		}
		var n []int
		if err := json.Unmarshal(sel["proposed"], &n); err != nil {
			t.Fatal(err)
		}
		acc, _ := json.Marshal(n) // any per-class counts: nothing reads them
		sel["accepted"] = acc
		var err error
		if ck["selector"], err = json.Marshal(sel); err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(out, []byte(`"accepted":[`)) {
			t.Fatal("edited checkpoint carries no selector accepted counts")
		}
		return out
	}
	legacy := resumeRunEdited(t, mk(), opt, 4000, addAccepted)
	if legacy.BestCost != current.BestCost || legacy.FinalCost != current.FinalCost ||
		legacy.Moves != current.Moves || legacy.Accepted != current.Accepted ||
		legacy.FinalTemp != current.FinalTemp {
		t.Errorf("resumed with accepted counts: best %g final %g moves %d accepted %d temp %g; "+
			"without: %g %g %d %d %g", legacy.BestCost, legacy.FinalCost, legacy.Moves,
			legacy.Accepted, legacy.FinalTemp, current.BestCost, current.FinalCost,
			current.Moves, current.Accepted, current.FinalTemp)
	}
	for i := range current.Best {
		if legacy.Best[i] != current.Best[i] {
			t.Fatalf("best[%d]: %g with accepted counts, %g without", i, legacy.Best[i], current.Best[i])
		}
	}
}

func TestCheckpointValidation(t *testing.T) {
	p := quadProblem(2, nil)
	good := &Checkpoint{
		Seed: 1, MaxMoves: 1000, Move: 10,
		Cur: []float64{0, 0}, Best: []float64{0, 0},
		Selector:   SelectorState{Quality: []float64{1, 1}, Proposed: []int{0, 0}, TotProp: []int{0, 0}, TotAcc: []int{0, 0}},
		MoveStates: [][]float64{nil, nil},
		ClassFails: []int{0, 0},
	}
	cases := map[string]func(ck *Checkpoint){
		"wrong var count":  func(ck *Checkpoint) { ck.Cur = []float64{0} },
		"wrong move count": func(ck *Checkpoint) { ck.ClassFails = []int{0} },
		"wrong budget":     func(ck *Checkpoint) { ck.MaxMoves = 99 },
		"move out of range": func(ck *Checkpoint) {
			ck.Move = 5000
		},
	}
	for name, corrupt := range cases {
		data, _ := json.Marshal(good)
		ck := &Checkpoint{}
		_ = json.Unmarshal(data, ck)
		corrupt(ck)
		_, err := Run(context.Background(), p, stdMoves(p), Options{
			Seed: 1, MaxMoves: 1000, Resume: ck,
		})
		if err == nil {
			t.Errorf("%s: corrupted checkpoint accepted", name)
		}
	}
}
