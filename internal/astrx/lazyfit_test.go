package astrx_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"astrx/internal/anneal"
	"astrx/internal/astrx"
	"astrx/internal/bench"
	"astrx/internal/dcsolve"
	"astrx/internal/expr"
)

// The evaluator fits a transfer function's model only when something
// reads it: the jig pass solves for μ0 alone, and ugf reads nothing more
// while the gain is at most unity. These tests hold it to the eager jig
// pass it replaced (SetEagerFit), which fits every model a spec can read
// beyond dc_gain.

// readMeasures are the measurements a readout takes of each transfer
// function: every one that reads μ0 or the model.
var readMeasures = []string{"dc_gain(%s)", "ugf(%s)", "phase_margin(%s)", "bw3db(%s)",
	"pole(%s, 1)", "zero(%s, 1)", "gain_at(%s, 1Meg)"}

// startPoint is the point with every variable, node voltages included,
// at its start value. No Table 2 amplifier has gain there.
func startPoint(vars []anneal.VarSpec) []float64 {
	x := make([]float64, len(vars))
	for i, v := range vars {
		x[i] = v.Start()
	}
	return x
}

// livePoint returns a point of c whose transfer function tf has a gain
// above unity: the first of a fixed random sequence of designs whose
// bias, solved from the start voltages, has one.
func livePoint(t testing.TB, c *astrx.Compiled) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ws := c.NewWorkspace()
	dc := expr.MustParse("dc_gain(tf)")
	for k := 0; k < 20; k++ {
		x := startPoint(c.Vars())
		for i, v := range c.Vars()[:c.NUser] {
			x[i] = v.Min + rng.Float64()*(v.Max-v.Min)
		}
		r, _ := dcsolve.Solve(context.Background(), ws.DCProblem(x), x[c.NUser:],
			dcsolve.Options{MaxIter: 50, BestEffort: true})
		if r == nil {
			continue
		}
		copy(x[c.NUser:], r.V)
		ws.Cost(x)
		if g, err := ws.MeasureSpec(dc, nil); ws.Err() == nil && err == nil && math.Abs(g) > 1 {
			return x
		}
	}
	t.Fatal("no design with gain above unity")
	return nil
}

// towards returns the point a fraction f of the way from x to y in the
// node voltages, with x's design variables.
func towards(x, y []float64, nu int, f float64) []float64 {
	out := append([]float64(nil), x...)
	for i := nu; i < len(x); i++ {
		out[i] = x[i] + f*(y[i]-x[i])
	}
	return out
}

// gainAboveUnity reports whether ws's last evaluation has |dc_gain(tf)|
// above 1.
func gainAboveUnity(t testing.TB, ws *astrx.EvalWorkspace) bool {
	t.Helper()
	g, err := ws.MeasureSpec(expr.MustParse("dc_gain(tf)"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return math.Abs(g) > 1
}

// lazyStep is one step of a sequence: a point, and the readout to take
// after evaluating it ("" for none).
type lazyStep struct {
	name, readout string
	x             []float64
}

// unitySteps is a move sequence over dead (gain 0) and live (gain above
// unity) points of one design that crosses unity gain in both
// directions: outright, by a bias-current move that keeps the factors,
// and gradually along the node voltages, with readouts of every kind in
// between.
func unitySteps(dead, live []float64, nu, ib int) []lazyStep {
	scale := func(x []float64, f float64) []float64 {
		out := append([]float64(nil), x...)
		out[ib] *= f
		return out
	}
	steps := []lazyStep{
		{"dead start", "", dead},
		{"up to live", "", live},
		{"live, bias current only", "state", scale(live, 1.1)},
		{"live, same point after State", "", scale(live, 1.1)},
		{"down to dead", "measure", dead},
		{"dead, bias current only", "", scale(dead, 0.9)},
		{"dead, bias current only after MeasureSpec", "evaluate", scale(dead, 0.9)},
		{"up, live nodes moved", "all", towards(live, dead, nu, 1e-4)},
		{"live, same point after the readouts", "", towards(live, dead, nu, 1e-4)},
	}
	for k := 1; k <= 8; k++ {
		steps = append(steps, lazyStep{fmt.Sprintf("live to dead %d/8", k), []string{"", "state", "", "measure"}[k%4], towards(live, dead, nu, float64(k)/8)})
	}
	for k := 7; k >= 0; k-- {
		steps = append(steps, lazyStep{fmt.Sprintf("dead to live %d/8", k), []string{"", "evaluate", "", "all"}[k%4], towards(live, dead, nu, float64(k)/8)})
	}
	return steps
}

func TestLazyFitMatchesEager(t *testing.T) {
	for _, ckt := range bench.Table2Suite {
		t.Run(string(ckt), func(t *testing.T) {
			// Each side compiles the deck, so each adapts its own
			// weights.
			src := bench.DeckSource(ckt)
			lc, ec := compileSrc(t, src), compileSrc(t, src)
			lazy, eager := lc.NewWorkspace(), ec.NewWorkspace()
			eager.SetEagerFit()
			dead, live := startPoint(lc.Vars()), livePoint(t, lc)
			crossed := map[bool]bool{}
			for _, st := range unitySteps(dead, live, lc.NUser, varIndex(t, lc, "ib")) {
				checkCostsMatch(t, st.name, lazy.CostDetail(st.x), eager.CostDetail(st.x))
				checkSnapshotsMatch(t, st.name, lazy, eager)
				if lazy.Err() == nil {
					crossed[gainAboveUnity(t, eager)] = true
				}
				checkReadoutsMatch(t, st, lazy, eager, lc.TFNames())
			}
			if !crossed[true] || !crossed[false] {
				t.Fatalf("the sequence never crossed unity gain: %v", crossed)
			}
		})
	}
	t.Run("cornered Simple OTA", testLazyFitCornerLanes)
}

// testLazyFitCornerLanes walks the cornered Simple OTA lanes between a
// live point and the dead start point, whole and one lane section at a
// time, so that some lanes cross unity gain while others stay.
func testLazyFitCornerLanes(t *testing.T) {
	lcs, ecs := cornerLanes(t), cornerLanes(t)
	lazy, eager := lcs.NewCornerBatch(), ecs.NewCornerBatch()
	for i := 0; i < eager.K(); i++ {
		eager.Lane(i).SetEagerFit()
	}
	live := cornerStart(t, lcs)
	dead := startPoint(lcs.Vars())
	section := func(x, from []float64, lane int) []float64 {
		out := append([]float64(nil), x...)
		off := lcs.NUser + lane*lcs.NFree
		copy(out[off:off+lcs.NFree], from[off:off+lcs.NFree])
		return out
	}
	steps := []lazyStep{
		{"live", "", live},
		{"live again", "state", live},
		{"dead", "measure", dead},
		{"nominal up", "", section(dead, live, 0)},
		{"slow corner up too", "evaluate", section(section(dead, live, 0), live, 1)},
		{"nominal down", "all", section(live, dead, 0)},
		{"all up", "", live},
	}
	for k := 1; k <= 8; k++ {
		steps = append(steps, lazyStep{fmt.Sprintf("live to dead %d/8", k), []string{"", "state", "", "all"}[k%4],
			towards(live, dead, lcs.NUser, float64(k)/8)})
	}
	k := lcs.K()
	include, evaluated := make([]bool, k), make([]bool, k)
	for i := range include {
		include[i] = true
	}
	crossed := map[bool]bool{}
	for _, st := range steps {
		xs := make([][]float64, k)
		for i := range xs {
			xs[i] = lcs.LaneX(i, st.x, nil)
		}
		worst := func(cs *astrx.CornerSet, bw *astrx.BatchWorkspace) astrx.CostBreakdown {
			bw.Run(xs)
			for i := range evaluated {
				evaluated[i] = bw.Lane(i).Err() == nil
			}
			return cs.WorstCase(bw, include, evaluated)
		}
		checkCostsMatch(t, st.name, worst(lcs, lazy), worst(ecs, eager))
		for i := 0; i < k; i++ {
			name := st.name + ", lane " + lcs.LaneName(i)
			checkSnapshotsMatch(t, name, lazy.Lane(i), eager.Lane(i))
			if lazy.Lane(i).Err() == nil {
				crossed[gainAboveUnity(t, eager.Lane(i))] = true
			}
			checkReadoutsMatch(t, lazyStep{name, st.readout, xs[i]}, lazy.Lane(i), eager.Lane(i), lcs.Lane(i).TFNames())
		}
	}
	if !crossed[true] || !crossed[false] {
		t.Fatalf("the sequence never crossed unity gain: %v", crossed)
	}
}

// checkCostsMatch compares two cost breakdowns field by field, floats by
// their bits.
func checkCostsMatch(t *testing.T, step string, got, want astrx.CostBreakdown) {
	t.Helper()
	g := []float64{got.Objective, got.Perf, got.Dev, got.DC, got.Total}
	w := []float64{want.Objective, want.Perf, want.Dev, want.DC, want.Total}
	same := got.Failed == want.Failed
	for i := range w {
		same = same && math.Float64bits(g[i]) == math.Float64bits(w[i])
	}
	if !same {
		t.Fatalf("%s: cost %+v, eager %+v", step, got, want)
	}
}

// checkSnapshotsMatch compares what the last evaluation left in both
// workspaces, the models as a reader sees them; the unstable counts
// differ on purpose.
func checkSnapshotsMatch(t *testing.T, step string, lazy, eager *astrx.EvalWorkspace) {
	t.Helper()
	got, want := lazy.Snapshot(), eager.Snapshot()
	got.Unstable, want.Unstable = 0, 0
	if d := astrx.DiffSnapshots(got, want); d != "" {
		t.Fatalf("%s: lazy workspace differs from the eager one: %s", step, d)
	}
}

// checkReadoutsMatch takes step's readout on ws and on the reference
// workspace ref after each evaluated step's point, and compares them:
// State (models, spec values, KCL), MeasureSpec of every measurement of
// every transfer function, Evaluate at the step's point, or all three.
// With State, ws's ugf and phase_margin must also equal ref's model's
// own UGF and phase margin. Nothing is read after a failed evaluation.
func checkReadoutsMatch(t *testing.T, st lazyStep, ws, ref *astrx.EvalWorkspace, names []string) {
	t.Helper()
	if st.readout == "" || ref.Err() != nil {
		return
	}
	if st.readout == "state" || st.readout == "all" {
		want := ref.State()
		checkStatesMatch(t, st.name+", State", ws.State(), want)
		for _, name := range names {
			tf := want.TFs[name]
			for fn, v := range map[string]float64{"ugf": tf.UGF() / (2 * math.Pi), "phase_margin": tf.PhaseMarginDeg()} {
				got, err := ws.MeasureSpec(expr.MustParse(fn+"("+name+")"), nil)
				if err != nil || math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("%s: %s(%s) = %v (%v), the reference model's %v", st.name, fn, name, got, err, v)
				}
			}
		}
	}
	if st.readout == "measure" || st.readout == "all" {
		for _, name := range names {
			for _, m := range readMeasures {
				e := expr.MustParse(fmt.Sprintf(m, name))
				g, gerr := ws.MeasureSpec(e, nil)
				w, werr := ref.MeasureSpec(e, nil)
				if (gerr != nil) != (werr != nil) || math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: %s = %v (%v), want %v (%v)", st.name, e, g, gerr, w, werr)
				}
			}
		}
	}
	if st.readout == "evaluate" || st.readout == "all" {
		checkStatesMatch(t, st.name+", Evaluate", ws.Evaluate(st.x), ref.Evaluate(st.x))
	}
}

// checkStatesMatch compares two reported states: error, models, spec
// values and KCL residuals, floats by their bits.
func checkStatesMatch(t *testing.T, step string, got, want *astrx.EvalState) {
	t.Helper()
	if fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
		t.Fatalf("%s: error %v, want %v", step, got.Err, want.Err)
	}
	if len(got.TFs) != len(want.TFs) {
		t.Fatalf("%s: %d models, want %d", step, len(got.TFs), len(want.TFs))
	}
	for name, tf := range want.TFs {
		if d := astrx.DiffTFs(got.TFs[name], tf); d != "" {
			t.Fatalf("%s: model %s: %s", step, name, d)
		}
	}
	for _, m := range []struct {
		what      string
		got, want map[string]float64
	}{{"spec", got.SpecVals, want.SpecVals}, {"KCL residual", got.KCL, want.KCL}, {"KCL flow", got.KCLFlow, want.KCLFlow}} {
		keys := make([]string, 0, len(m.want))
		for k := range m.want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if len(m.got) != len(m.want) {
			t.Fatalf("%s: %d %s values, want %d", step, len(m.got), m.what, len(m.want))
		}
		for _, k := range keys {
			if g, ok := m.got[k]; !ok || math.Float64bits(g) != math.Float64bits(m.want[k]) {
				t.Fatalf("%s: %s %s = %v, want %v", step, m.what, k, g, m.want[k])
			}
		}
	}
}
