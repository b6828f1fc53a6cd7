package bench

import (
	"context"
	"reflect"
	"testing"

	"astrx/internal/oblx"
)

// TestReportingHooksDoNotPerturbRun pins why oblx reports through its
// own workspace: a fixed-seed run with the progress hook on must reach
// exactly the design, cost, evaluation count, move statistics and
// failure counts of the same run with it off. Evaluating the hook on
// the annealer's workspace would leak into its unstable counter
// (Failures.Unstable and the checkpoint) and its stage clock.
func TestReportingHooksDoNotPerturbRun(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis in -short mode")
	}
	for _, ckt := range []Circuit{SimpleOTA, BiCMOSTwoStage} {
		ckt := ckt
		t.Run(string(ckt), func(t *testing.T) {
			run := func(hooks bool) *oblx.Result {
				deck, err := Parse(ckt)
				if err != nil {
					t.Fatal(err)
				}
				opt := oblx.Options{Seed: 2, MaxMoves: 3000}
				events := 0
				if hooks {
					opt.ProgressEvery = 100
					opt.Progress = func(oblx.ProgressEvent) { events++ }
				}
				res, err := oblx.Run(context.Background(), deck, opt)
				if err != nil {
					t.Fatal(err)
				}
				if hooks && events == 0 {
					t.Fatal("progress hook never fired")
				}
				return res
			}
			plain, hooked := run(false), run(true)
			if !reflect.DeepEqual(plain.X, hooked.X) {
				t.Errorf("X differs:\n plain  %v\n hooked %v", plain.X, hooked.X)
			}
			if plain.Cost != hooked.Cost {
				t.Errorf("Cost differs: plain %+v, hooked %+v", plain.Cost, hooked.Cost)
			}
			if plain.EvalCount != hooked.EvalCount {
				t.Errorf("EvalCount differs: plain %d, hooked %d", plain.EvalCount, hooked.EvalCount)
			}
			if !reflect.DeepEqual(plain.MoveStats, hooked.MoveStats) {
				t.Errorf("MoveStats differ:\n plain  %+v\n hooked %+v", plain.MoveStats, hooked.MoveStats)
			}
			if !reflect.DeepEqual(plain.Failures, hooked.Failures) {
				t.Errorf("Failures differ: plain %+v, hooked %+v", plain.Failures, hooked.Failures)
			}
		})
	}
}
