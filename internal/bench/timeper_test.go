package bench

import (
	"context"
	"testing"
	"time"

	"astrx/internal/oblx"
)

// TestTimePerEvalTimesEvaluations pins oblx's "time/ckt eval": the mean
// time of the cost evaluations a run made, not its wall time divided by
// them. It can never exceed Duration / EvalCount, and on a run whose
// moves mostly decline to evaluate it must be well below that.
func TestTimePerEvalTimesEvaluations(t *testing.T) {
	run := func(ckt Circuit, seed int64, moves int) *oblx.Result {
		t.Helper()
		deck, err := Parse(ckt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := oblx.Run(context.Background(), deck, oblx.Options{Seed: seed, MaxMoves: moves})
		if err != nil {
			t.Fatal(err)
		}
		tpe, perEval := res.TimePerEval(), res.Duration/time.Duration(res.EvalCount)
		if tpe <= 0 || tpe > perEval {
			t.Fatalf("%s seed %d: TimePerEval %v, want in (0, Duration/EvalCount = %v]", ckt, seed, tpe, perEval)
		}
		return res
	}
	run(SimpleOTA, 1, 4000)

	// BiCMOS seed 2 is a declined-move storm: after newton-full's first
	// landing almost no move evaluates, so the run's time goes to
	// declined Newton proposals.
	res := run(BiCMOSTwoStage, 2, 40000)
	if res.EvalCount*20 > res.Moves {
		t.Fatalf("BiCMOS seed 2 evaluated %d of %d moves: no longer a declined-move storm; restate this test on a run that is", res.EvalCount, res.Moves)
	}
	if perEval := res.Duration / time.Duration(res.EvalCount); 4*res.TimePerEval() > perEval {
		t.Errorf("storm run: TimePerEval %v, want well below Duration/EvalCount = %v", res.TimePerEval(), perEval)
	}
}
