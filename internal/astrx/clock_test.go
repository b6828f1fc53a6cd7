package astrx

import (
	"context"
	"testing"

	"astrx/internal/dcsolve"
	"astrx/internal/telemetry"
)

// TestWorkspaceStageClock verifies that an attached stage clock sees
// every pipeline stage an evaluation runs, that the timing does not
// perturb the cost, and that the instrumented hot path still performs
// zero heap allocations — even with sampling armed on every evaluation.
// Eight distinct points sample bias, stamp, factor, solve, moments and
// specs eight times each. Only the four whose gain is above unity sample
// fit: there ugf reads the model, which the other four leave at μ0. A
// repeat of the last point keeps its factors and its fitted model, so it
// samples bias, stamp, factor and specs but not solve, moments or fit.
func TestWorkspaceStageClock(t *testing.T) {
	c := compileDeck(t, diffAmpDeck)
	dead := make([]float64, len(c.Vars()))
	for i, v := range c.Vars() {
		dead[i] = v.Start()
	}
	live := diffAmpLive(t, c)
	// Widening the input pair (W, the first variable) 0.1% at a time
	// changes its small-signal parameters, so every point's stamped
	// matrices differ from the one before. The first half of the points
	// sit at the start bias, where the gain is 0, the second half at a
	// dc-correct bias.
	const evals = 8
	pts := make([][]float64, evals)
	for i := range pts {
		base := dead
		if i >= evals/2 {
			base = live
		}
		pts[i] = append([]float64(nil), base...)
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
		"solve": evals, "moments": evals, "fit": evals / 2, "specs": evals})
	if n := ws.Counts()[FactorReused]; n != 0 {
		t.Fatalf("distinct points reused %d factorizations", n)
	}
	if c := ws.Counts(); c[FitFits] != evals/2 || c[FitUnread] != evals/2 {
		t.Fatalf("%d fits and %d unread, want %d and %d", c[FitFits], c[FitUnread], evals/2, evals/2)
	}
	eval(pts[evals-1])
	sampled(map[string]int64{"bias": evals + 1, "stamp": evals + 1, "factor": evals + 1,
		"solve": evals, "moments": evals, "fit": evals / 2, "specs": evals + 1})
	if n := ws.Counts()[FactorReused]; n != 1 {
		t.Fatalf("repeat reused %d factorizations, want 1", n)
	}

	// The annealer's promise: zero allocations per evaluation, clock or
	// not, whether the factors are reused or recomputed, and whether the
	// gain is below unity (no fit) or above it (a fit as ugf reads it).
	for _, pair := range [][2][]float64{{pts[0], pts[1]}, {pts[evals-2], pts[evals-1]}} {
		x, y := pair[0], pair[1]
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

// diffAmpLive returns a point of c, the diff amp deck, at a dc-correct
// bias, where its differential gain is above unity.
func diffAmpLive(t *testing.T, c *Compiled) []float64 {
	t.Helper()
	x := make([]float64, len(c.Vars()))
	for i, v := range c.Vars() {
		x[i] = v.Start()
	}
	x[0], x[1], x[2], x[3] = 50e-6, 2e-6, 50e-6, 1.2
	p := c.NewWorkspace().DCProblem(x)
	r, err := dcsolve.Solve(context.Background(), p, make([]float64, p.N()), dcsolve.Options{GminSteps: 8, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	copy(x[c.NUser:], r.V)
	return x
}

// TestUnreadCountsSkippedFits checks the FitUnread count: a candidate whose
// gain is below unity leaves the model ugf would read unread (1), one
// above unity reads and fits it (0).
func TestUnreadCountsSkippedFits(t *testing.T) {
	c := compileDeck(t, diffAmpDeck)
	dead := make([]float64, len(c.Vars()))
	for i, v := range c.Vars() {
		dead[i] = v.Start()
	}
	for _, tc := range []struct {
		name         string
		x            []float64
		unread, fits uint64
	}{{"below unity", dead, 1, 0}, {"above unity", diffAmpLive(t, c), 0, 1}} {
		ws := c.NewWorkspace()
		ws.Cost(tc.x)
		if ws.Err() != nil {
			t.Fatalf("%s: %v", tc.name, ws.Err())
		}
		if c := ws.Counts(); c[FitUnread] != tc.unread || c[FitFits] != tc.fits {
			t.Errorf("%s: %d unread, %d fits; want %d and %d", tc.name, c[FitUnread], c[FitFits], tc.unread, tc.fits)
		}
	}
}
