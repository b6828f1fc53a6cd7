package anneal

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// funcProblem wraps a cost function for tests.
type funcProblem struct {
	vars []VarSpec
	cost func(x []float64) float64
}

func (p *funcProblem) Vars() []VarSpec          { return p.vars }
func (p *funcProblem) Cost(x []float64) float64 { return p.cost(x) }

func contVars(n int, lo, hi float64) []VarSpec {
	vs := make([]VarSpec, n)
	for i := range vs {
		vs[i] = VarSpec{Name: "x", Min: lo, Max: hi, Continuous: true}
	}
	return vs
}

func runOn(t *testing.T, p Problem, seed int64, maxMoves int) *Result {
	t.Helper()
	vars := p.Vars()
	moves := []Move{
		NewRandomStep("single", vars, 0.25),
		NewAllStep("all", vars),
	}
	res, err := Run(context.Background(), p, moves, Options{Seed: seed, MaxMoves: maxMoves})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQuadraticBowl(t *testing.T) {
	p := &funcProblem{
		vars: contVars(4, -10, 10),
		cost: func(x []float64) float64 {
			s := 0.0
			for i, v := range x {
				d := v - float64(i)
				s += d * d
			}
			return s
		},
	}
	res := runOn(t, p, 1, 60_000)
	if res.BestCost > 1e-3 {
		t.Errorf("quadratic best cost = %g, want < 1e-3", res.BestCost)
	}
	for i, v := range res.Best {
		if math.Abs(v-float64(i)) > 0.05 {
			t.Errorf("x[%d] = %g, want %d", i, v, i)
		}
	}
}

func TestRastriginEscapesLocalMinima(t *testing.T) {
	// Rastrigin has a lattice of local minima; a pure descent from the
	// default start gets stuck. The annealer must reach near the global
	// optimum at the (offset) origin.
	p := &funcProblem{
		vars: contVars(3, -5.12, 5.12),
		cost: func(x []float64) float64 {
			s := 10.0 * float64(len(x))
			for _, v := range x {
				s += v*v - 10*math.Cos(2*math.Pi*v)
			}
			return s
		},
	}
	res := runOn(t, p, 3, 120_000)
	if res.BestCost > 1.0 {
		t.Errorf("rastrigin best = %g, want < 1.0 (global ≈ 0)", res.BestCost)
	}
}

func TestMixedDiscreteContinuous(t *testing.T) {
	vars := []VarSpec{
		{Name: "w", Min: 1e-6, Max: 1e-3, PointsPerDecade: 50}, // discrete log grid
		{Name: "v", Min: 0, Max: 5, Continuous: true},          // continuous
		{Name: "l", Min: 1e-6, Max: 1e-4, PointsPerDecade: 25}, // discrete
	}
	target := []float64{37e-6, 2.25, 4.7e-6}
	p := &funcProblem{
		vars: vars,
		cost: func(x []float64) float64 {
			// log-scaled distance for the grid vars, linear for the volt.
			c := math.Pow(math.Log10(x[0]/target[0]), 2)
			c += math.Pow((x[1]-target[1])/5, 2)
			c += math.Pow(math.Log10(x[2]/target[2]), 2)
			return c
		},
	}
	res := runOn(t, p, 7, 80_000)
	if res.BestCost > 1e-3 {
		t.Fatalf("mixed best = %g, want < 1e-3", res.BestCost)
	}
	// Discrete results must lie exactly on their grids.
	for _, i := range []int{0, 2} {
		snapped := vars[i].Snap(res.Best[i])
		if res.Best[i] != snapped {
			t.Errorf("var %d = %g not on grid (snap %g)", i, res.Best[i], snapped)
		}
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *funcProblem {
		return &funcProblem{
			vars: contVars(3, -5, 5),
			cost: func(x []float64) float64 {
				return x[0]*x[0] + math.Abs(x[1]) + math.Pow(x[2]-1, 2)
			},
		}
	}
	r1 := runOn(t, mk(), 42, 20_000)
	r2 := runOn(t, mk(), 42, 20_000)
	if r1.BestCost != r2.BestCost || r1.Moves != r2.Moves || r1.Accepted != r2.Accepted {
		t.Errorf("same seed gave different runs: %+v vs %+v", r1, r2)
	}
	for i := range r1.Best {
		if r1.Best[i] != r2.Best[i] {
			t.Errorf("best[%d] differs: %g vs %g", i, r1.Best[i], r2.Best[i])
		}
	}
}

func TestFreezing(t *testing.T) {
	// A trivial convex problem freezes long before the move budget.
	p := &funcProblem{
		vars: contVars(1, -1, 1),
		cost: func(x []float64) float64 { return x[0] * x[0] },
	}
	res := runOn(t, p, 5, 500_000)
	if !res.Froze {
		t.Error("expected early freeze on trivial problem")
	}
	if res.Moves >= 500_000 {
		t.Error("freeze did not shorten the run")
	}
}

func TestTrace(t *testing.T) {
	p := &funcProblem{
		vars: contVars(2, -5, 5),
		cost: func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
	}
	var pts []TracePoint
	moves := []Move{NewRandomStep("single", p.vars, 0.25)}
	_, err := Run(context.Background(), p, moves, Options{
		Seed: 9, MaxMoves: 10_000,
		Trace: func(tp TracePoint) { pts = append(pts, tp) }, TraceEvery: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 10 {
		t.Fatalf("trace points = %d, want ≥ 10", len(pts))
	}
	// Costs must end lower than they start, temps positive.
	if pts[len(pts)-1].BestCost > pts[0].BestCost {
		t.Error("best cost did not improve along trace")
	}
	for _, tp := range pts {
		if tp.Temp <= 0 {
			t.Fatalf("non-positive temperature %g", tp.Temp)
		}
		if len(tp.X) != 2 {
			t.Fatalf("trace X wrong length")
		}
	}
}

func TestRunErrors(t *testing.T) {
	p := &funcProblem{vars: nil, cost: func([]float64) float64 { return 0 }}
	if _, err := Run(context.Background(), p, []Move{NewAllStep("a", nil)}, Options{}); err == nil {
		t.Error("no variables must error")
	}
	p2 := &funcProblem{vars: contVars(1, 0, 1), cost: func([]float64) float64 { return 0 }}
	if _, err := Run(context.Background(), p2, nil, Options{}); err == nil {
		t.Error("no moves must error")
	}
	for _, budget := range []int{0, -1} {
		if _, err := Run(context.Background(), p2, []Move{NewAllStep("a", p2.vars)},
			Options{MaxMoves: budget}); err == nil {
			t.Errorf("move budget %d must error", budget)
		}
	}
}

func TestVarSpecSnapProperties(t *testing.T) {
	v := VarSpec{Min: 1e-6, Max: 1e-3, PointsPerDecade: 50}
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		x := math.Abs(math.Mod(raw, 2e-3))
		s := v.Snap(x)
		if s < v.Min || s > v.Max {
			return false
		}
		// Idempotent.
		return v.Snap(s) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVarSpecStepGrid(t *testing.T) {
	v := VarSpec{Min: 1e-6, Max: 1e-3, PointsPerDecade: 10}
	x := v.Snap(1e-5)
	up := v.StepGrid(x, 1)
	dn := v.StepGrid(x, -1)
	if !(dn < x && x < up) {
		t.Errorf("grid steps not ordered: %g %g %g", dn, x, up)
	}
	// One step = 1/10 decade.
	if math.Abs(up/x-math.Pow(10, 0.1)) > 1e-9 {
		t.Errorf("step ratio = %g, want 10^0.1", up/x)
	}
	// Clamped at the ends.
	if v.StepGrid(v.Max, 5) != v.Max {
		t.Error("StepGrid must clamp at max")
	}
	if v.StepGrid(v.Min, -5) != v.Min {
		t.Error("StepGrid must clamp at min")
	}
}

func TestVarSpecStart(t *testing.T) {
	cont := VarSpec{Min: -2, Max: 4, Continuous: true}
	if cont.Start() != 1 {
		t.Errorf("continuous start = %g, want midpoint 1", cont.Start())
	}
	grid := VarSpec{Min: 1e-6, Max: 1e-4, PointsPerDecade: 50}
	s := grid.Start()
	if math.Abs(s-1e-5)/1e-5 > 0.05 {
		t.Errorf("grid start = %g, want ≈ geometric mid 1e-5", s)
	}
	withInit := VarSpec{Min: 0, Max: 10, Continuous: true, Init: 7}
	if withInit.Start() != 7 {
		t.Errorf("init start = %g, want 7", withInit.Start())
	}
}

func TestLamTargetShape(t *testing.T) {
	if lamTarget(0) < 0.95 {
		t.Errorf("lamTarget(0) = %g, want ≈ 1", lamTarget(0))
	}
	if math.Abs(lamTarget(0.4)-0.44) > 1e-12 {
		t.Errorf("lamTarget(0.4) = %g, want 0.44", lamTarget(0.4))
	}
	if lamTarget(0.99) > 0.01 {
		t.Errorf("lamTarget(0.99) = %g, want ≈ 0", lamTarget(0.99))
	}
	// Monotone nonincreasing.
	prev := 2.0
	for p := 0.0; p <= 1.0; p += 0.01 {
		v := lamTarget(p)
		if v > prev+1e-9 {
			t.Fatalf("lamTarget not monotone at %g", p)
		}
		prev = v
	}
}

func TestHustinSelectorPrefersGoodMoves(t *testing.T) {
	moves := []Move{
		&FuncMove{Label: "good"},
		&FuncMove{Label: "bad"},
	}
	s := newSelector(moves)
	rng := rand.New(rand.NewSource(1))
	// Feed: class 0 accepted with big deltas, class 1 always rejected.
	for i := 0; i < 100; i++ {
		s.feedback(0, true, -5)
		s.feedback(1, false, 2)
	}
	picks := [2]int{}
	for i := 0; i < 2000; i++ {
		picks[s.pick(rng)]++
	}
	if picks[0] < picks[1]*5 {
		t.Errorf("selector picks = %v, want strong preference for class 0", picks)
	}
	// After stage reset both stay alive.
	s.stageReset()
	picks = [2]int{}
	for i := 0; i < 2000; i++ {
		picks[s.pick(rng)]++
	}
	if picks[1] == 0 {
		t.Error("stage reset must keep losing classes alive")
	}
	st := s.stats(moves, make([]int, len(moves)))
	if st[0].Name != "good" || st[0].Accepted != 100 || st[1].Accepted != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMoveStatsReported(t *testing.T) {
	p := &funcProblem{
		vars: contVars(2, -5, 5),
		cost: func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
	}
	res := runOn(t, p, 2, 5000)
	if len(res.MoveStats) != 2 {
		t.Fatalf("move stats = %d", len(res.MoveStats))
	}
	tot := 0
	for _, ms := range res.MoveStats {
		tot += ms.Proposed
	}
	if tot == 0 {
		t.Error("no proposals recorded")
	}
}
