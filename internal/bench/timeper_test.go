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
// spends most of its time outside the cost evaluations it must be well
// below that.
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

	// A progress callback that sleeps 5 ms every 10 moves spends the
	// run's time outside its cost evaluations: about 0.5 s against
	// roughly 0.1 s of evaluations over 1,000 moves.
	res := run(SimpleOTA, 1, 1000, func(oblx.ProgressEvent) { time.Sleep(5 * time.Millisecond) })
	if perEval := res.Duration / time.Duration(res.EvalCount); 4*res.TimePerEval() > perEval {
		t.Errorf("run sleeping in its progress callback: TimePerEval %v, want well below Duration/EvalCount = %v", res.TimePerEval(), perEval)
	}
}
