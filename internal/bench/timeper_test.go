package bench

import (
	"context"
	"testing"
	"time"

	"astrx/internal/oblx"
)

// TestTimePerEvalTimesEvaluations pins oblx's "time/ckt eval": the mean
// time of the cost evaluations a run made, not its wall time divided by
// them. It can never exceed Duration / EvalCount, and on a run that
// also sleeps in its progress callback the evaluations' time and the
// sleeps together fit in Duration: they never overlap, so a mean that
// counted the callback's time would overshoot by the sleeps, at any
// speed of the machine.
func TestTimePerEvalTimesEvaluations(t *testing.T) {
	run := func(ckt Circuit, seed int64, moves int, progress oblx.ProgressFunc) *oblx.Result {
		t.Helper()
		deck, err := Parse(ckt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := oblx.Run(context.Background(), deck, oblx.Options{
			Seed: seed, MaxMoves: moves, Progress: progress, ProgressEvery: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		tpe, perEval := res.TimePerEval(), res.Duration/time.Duration(res.EvalCount)
		if tpe <= 0 || tpe > perEval {
			t.Fatalf("%s seed %d: TimePerEval %v, want in (0, Duration/EvalCount = %v]", ckt, seed, tpe, perEval)
		}
		return res
	}
	run(SimpleOTA, 1, 4000, nil)

	// A progress callback that sleeps 5 ms every 10 moves spends about
	// 0.5 s of the run outside its cost evaluations over 1,000 moves.
	var slept time.Duration
	res := run(SimpleOTA, 1, 1000, func(oblx.ProgressEvent) {
		start := time.Now()
		time.Sleep(5 * time.Millisecond)
		slept += time.Since(start)
	})
	if evals := res.TimePerEval() * time.Duration(res.EvalCount); evals+slept > res.Duration {
		t.Errorf("run sleeping in its progress callback: evaluations %v (TimePerEval %v × %d) plus sleeps %v exceed Duration %v",
			evals, res.TimePerEval(), res.EvalCount, slept, res.Duration)
	}
}
