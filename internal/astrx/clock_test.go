package astrx

import (
	"testing"

	"astrx/internal/telemetry"
)

// TestWorkspaceStageClock verifies that an attached stage clock sees
// every pipeline stage, that the timing does not perturb the cost, and
// that the instrumented hot path still performs zero heap allocations —
// even with sampling armed on every evaluation. Eight distinct points
// sample every stage eight times; a repeat of the last point keeps its
// factors and models, so it samples bias, stamp, factor and specs but
// not solve, moments or fit.
func TestWorkspaceStageClock(t *testing.T) {
	c := compileDeck(t, diffAmpDeck)
	x0 := make([]float64, len(c.Vars()))
	for i, v := range c.Vars() {
		x0[i] = v.Start()
	}
	// Widening the input pair (W, the first variable) 0.1% at a time
	// changes its small-signal parameters, so every point's stamped
	// matrices differ from the one before.
	const evals = 8
	pts := make([][]float64, evals)
	for i := range pts {
		pts[i] = append([]float64(nil), x0...)
		pts[i][0] *= 1 + float64(i)*1e-3
	}

	// Baseline: no clock attached.
	plain := c.NewWorkspace()
	timer := telemetry.NewEvalTimer(1)
	ws := c.NewWorkspace()
	ws.SetClock(timer.NewClock())
	eval := func(x []float64) {
		t.Helper()
		want := plain.CostDetail(x).Total
		if got := ws.CostDetail(x).Total; got != want {
			t.Fatalf("instrumented cost %v != plain cost %v", got, want)
		}
	}
	sampled := func(want map[string]int64) {
		t.Helper()
		bd := timer.Breakdown()
		got := map[string]int64{}
		for _, row := range bd {
			got[row.Stage] = row.SampledEvals
		}
		for stage, n := range want {
			if got[stage] != n {
				t.Errorf("stage %s sampled %d evals, want %d (breakdown %+v)", stage, got[stage], n, bd)
			}
		}
	}
	for _, x := range pts {
		eval(x)
	}
	sampled(map[string]int64{"bias": evals, "stamp": evals, "factor": evals,
		"solve": evals, "moments": evals, "fit": evals, "specs": evals})
	if fc := ws.FactorCounts(); fc.Reused != 0 {
		t.Fatalf("distinct points reused %d factorizations", fc.Reused)
	}
	eval(pts[evals-1])
	sampled(map[string]int64{"bias": evals + 1, "stamp": evals + 1, "factor": evals + 1,
		"solve": evals, "moments": evals, "fit": evals, "specs": evals + 1})
	if fc := ws.FactorCounts(); fc.Reused != 1 {
		t.Fatalf("repeat reused %d factorizations, want 1", fc.Reused)
	}

	// The annealer's promise: zero allocations per evaluation, clock or
	// not, whether the factors are reused or recomputed.
	x, y := pts[0], pts[1]
	ws.Cost(x) // warm any lazy scratch
	if allocs := testing.AllocsPerRun(200, func() { ws.Cost(x); ws.Cost(y) }); allocs != 0 {
		t.Errorf("instrumented Cost allocates %.1f per two evals, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { ws.Cost(x) }); allocs != 0 {
		t.Errorf("instrumented repeated Cost allocates %.1f/eval, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { plain.Cost(x); plain.Cost(y) }); allocs != 0 {
		t.Errorf("plain Cost allocates %.1f per two evals, want 0", allocs)
	}

	// Detach: sampling stops, costs unchanged.
	ws.SetClock(nil)
	before := timer.Breakdown()
	eval(pts[2])
	after := timer.Breakdown()
	for i := range before {
		if after[i].SampledEvals != before[i].SampledEvals {
			t.Errorf("detached workspace still sampled stage %s", after[i].Stage)
		}
	}
}

// TestWorkspaceStageClockSampling checks the 1-in-N cadence end to end
// through the workspace.
func TestWorkspaceStageClockSampling(t *testing.T) {
	c := compileDeck(t, dividerDeck)
	x := []float64{1000, 0.5}
	timer := telemetry.NewEvalTimer(4)
	ws := c.NewWorkspace()
	ws.SetClock(timer.NewClock())
	for i := 0; i < 40; i++ {
		ws.CostDetail(x)
	}
	for _, row := range timer.Breakdown() {
		if row.SampledEvals != 10 {
			t.Errorf("stage %s sampled %d evals, want 10", row.Stage, row.SampledEvals)
		}
	}
}
