package bench

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"astrx/internal/astrx"
	"astrx/internal/dcsolve"
	"astrx/internal/expr"
	"astrx/internal/netlist"
)

// cornerCards are the two process corners the corner benchmarks add to
// the Simple OTA: a hot slow corner and a cold fast one.
const cornerCards = `
.corner slow temp=85 nmos3.vto=0.95 vdd=2.4
.corner fast temp=-40 vdd=2.6
`

// compileCorneredOTA compiles the Simple OTA with cornerCards plus any
// extra corner cards, selecting every declared corner.
func compileCorneredOTA(t *testing.T, extra string) *astrx.CornerSet {
	t.Helper()
	deck, err := netlist.Parse(DeckSource(SimpleOTA) + cornerCards + extra)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := astrx.CompileCorners(deck, deck.CornerNames(), astrx.CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestBatchShortAndFailedLanes runs a corner lane set on a short xs
// (fewer vectors than lanes) holding a poisoned lane between two good
// ones, then a nil-skipped lane. Every evaluated lane must match a
// fresh scalar evaluation of its corner bit-for-bit, so the poisoned
// lane fails as the scalar path does without disturbing its
// neighbours; the nil lane must report the skip, and the lane past the
// end of xs must stay unevaluated.
func TestBatchShortAndFailedLanes(t *testing.T) {
	cs := compileCorneredOTA(t, ".corner hot temp=85\n.corner cold temp=-40\n")
	if cs.K() != 5 {
		t.Fatalf("K = %d, want nominal + 4 corners", cs.K())
	}
	x := make([]float64, cs.NVars())
	for i, v := range cs.Vars() {
		x[i] = v.Start()
	}
	bad := cs.LaneX(1, x, nil)
	bad[0] = 0 // zero width: device geometry fails the evaluation
	xs := [][]float64{cs.LaneX(0, x, nil), bad, cs.LaneX(2, x, nil), nil}

	bw := cs.NewCornerBatch()
	bw.Run(xs)

	for i, lx := range xs[:3] {
		ref := cs.Lane(i).NewWorkspace().Evaluate(lx)
		lane := bw.Lane(i)
		if (lane.Err() != nil) != (ref.Err != nil) {
			t.Fatalf("lane %s: err %v, scalar err %v", cs.LaneName(i), lane.Err(), ref.Err)
		}
		got := lane.State().SpecVals
		for name, want := range ref.SpecVals {
			if g := got[name]; g != want && !(math.IsNaN(g) && math.IsNaN(want)) {
				t.Errorf("lane %s spec %s: %.17g, scalar %.17g", cs.LaneName(i), name, g, want)
			}
		}
	}
	if bw.Lane(0).Err() != nil || bw.Lane(2).Err() != nil {
		t.Fatalf("good lanes failed: %v, %v", bw.Lane(0).Err(), bw.Lane(2).Err())
	}
	if bw.Lane(1).Err() == nil {
		t.Fatal("poisoned lane evaluated cleanly")
	}
	if err := bw.Lane(3).Err(); err == nil || !strings.Contains(err.Error(), "skipped") {
		t.Errorf("nil lane: err %v, want a skip", err)
	}
	if st := bw.Lane(4).State(); st.Err != nil || len(st.SpecVals) != 0 {
		t.Errorf("lane past the end of xs was evaluated: err %v, specs %v", st.Err, st.SpecVals)
	}
}

// nodeMoved returns x with the first free node voltage moved 1 mV. At
// a Table 2 deck's start point that changes the devices' small-signal
// parameters, so the two points' stamped matrices differ and each
// evaluation of one after the other runs the whole pipeline.
func nodeMoved(c *astrx.Compiled, x []float64) []float64 {
	y := append([]float64(nil), x...)
	y[c.NUser] += 1e-3
	return y
}

// cornerNodesMoved returns the master vector x with the first node
// voltage of every lane's section moved 1 mV, so every lane's stamped
// matrices change.
func cornerNodesMoved(cs *astrx.CornerSet, x []float64) []float64 {
	y := append([]float64(nil), x...)
	for i := 0; i < cs.K(); i++ {
		y[cs.NUser+i*cs.NFree] += 1e-3
	}
	return y
}

// checkAllocs requires eval to allocate nothing, and to reuse
// factorizations (read by reused) exactly when wantReuse.
func checkAllocs(t *testing.T, what string, eval func(), reused func() uint64, wantReuse bool) {
	t.Helper()
	r0 := reused()
	if allocs := testing.AllocsPerRun(20, eval); allocs != 0 {
		t.Errorf("%s allocates %.1f per run, want 0", what, allocs)
	}
	if got := reused() > r0; got != wantReuse {
		t.Errorf("%s: reused factorizations %v, want %v (%d before, %d after)", what, got, wantReuse, r0, reused())
	}
}

// checkFits runs eval once and requires it to fit a model a spec reads
// (FitFits grows, FitUnread does not) when wantFit, and otherwise to
// leave every such model unread (FitUnread grows, FitFits does not).
func checkFits(t *testing.T, what string, eval func(), counts func() astrx.Counts, wantFit bool) {
	t.Helper()
	before := counts()
	eval()
	after := counts()
	fb, fa := before[astrx.FitFits], after[astrx.FitFits]
	ub, ua := before[astrx.FitUnread], after[astrx.FitUnread]
	if fitted, unread := fa > fb, ua > ub; fitted != wantFit || unread == wantFit {
		t.Errorf("%s: fits %d → %d, unread %d → %d; want a fit %v", what, fb, fa, ub, ua, wantFit)
	}
}

// livePoint returns a point of c whose transfer function tf has a gain
// above unity, so ugf and phase_margin read its model: the first of a
// fixed random sequence of designs whose bias, solved from the start
// voltages, has one. Start points have no gain.
func livePoint(t *testing.T, c *astrx.Compiled) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ws := c.NewWorkspace()
	dc := expr.MustParse("dc_gain(tf)")
	for k := 0; k < 20; k++ {
		x := evalSequence(c, 0)[0]
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

// TestWorkspaceZeroAlloc pins the scalar hot path: after warm-up one
// cost evaluation on the compiled-plan workspace — sparse factorization
// included — performs zero heap allocations. Alternating two points
// pins the whole pipeline; repeating one pins the path that keeps a
// jig's factors and models. Both run at start points, whose gain is
// below unity so that no spec reads a model and none is fitted, and at
// points above unity, where ugf and phase_margin read the model and the
// evaluation fits it. The eval benchmarks measure the same thing with
// -benchmem, but this exact count runs in the plain test suite and in
// make telemetry-guard without timing noise.
func TestWorkspaceZeroAlloc(t *testing.T) {
	for _, ckt := range Table2Suite {
		ckt := ckt
		t.Run(string(ckt), func(t *testing.T) {
			c, err := Compile(ckt)
			if err != nil {
				t.Fatal(err)
			}
			for _, side := range []struct {
				name string
				x    []float64
				fit  bool
			}{{"below unity", evalSequence(c, 0)[0], false}, {"above unity", livePoint(t, c), true}} {
				x := side.x
				y := nodeMoved(c, x)
				ws := c.NewWorkspace()
				ws.Cost(x) // warm up lazy scratch at both points
				ws.Cost(y)
				reused := func() uint64 { return ws.Counts()[astrx.FactorReused] }
				checkAllocs(t, "scalar eval of two points in turn "+side.name, func() { ws.Cost(x); ws.Cost(y) }, reused, false)
				checkAllocs(t, "scalar eval of a repeated point "+side.name, func() { ws.Cost(x) }, reused, true)
				checkFits(t, "scalar eval of a new point "+side.name, func() { ws.Cost(y) }, ws.Counts, side.fit)
				for j, s := range ws.JigStats() {
					if !s.Sparse {
						t.Errorf("matrix %d took the dense path %s", j, side.name)
					}
				}
			}
		})
	}
}

// TestBatchZeroAlloc pins the cornered hot path: after warm-up one
// worst-case evaluation — a Run over nominal plus two corners and the
// WorstCase assembly — performs zero heap allocations, like the scalar
// path, whether every lane's matrices change or repeat, whether the
// lanes' gain is below unity (no model read or fitted) or above it (the
// model fitted as ugf reads it), and whether or not a lane is skipped,
// as a quarantined corner is.
func TestBatchZeroAlloc(t *testing.T) {
	cs := compileCorneredOTA(t, "")
	if cs.K() != 3 {
		t.Fatalf("K = %d, want nominal + 2 corners", cs.K())
	}
	x := make([]float64, cs.NVars())
	for i, v := range cs.Vars() {
		x[i] = v.Start()
	}
	// Every lane's nodes at the nominal bias solved from the start: each
	// lane's gain is above unity there.
	live := append([]float64(nil), x...)
	nom := cs.LaneX(0, live, nil)
	r, _ := dcsolve.Solve(context.Background(), cs.Nominal.NewWorkspace().DCProblem(nom), nom[cs.NUser:],
		dcsolve.Options{MaxIter: 20, BestEffort: true})
	if r == nil {
		t.Fatal("no nominal bias")
	}
	copy(nom[cs.NUser:], r.V)
	for i := 0; i < cs.K(); i++ {
		cs.StoreLaneNodes(i, nom, live)
	}
	include := make([]bool, cs.K())
	evaluated := make([]bool, cs.K())
	for i := range include {
		include[i] = true
	}
	bw := cs.NewCornerBatch()
	eval := func(xs [][]float64) {
		bw.Run(xs)
		for i := range evaluated {
			evaluated[i] = bw.Lane(i).Err() == nil
		}
		cs.WorstCase(bw, include, evaluated)
	}
	counts := func() astrx.Counts {
		var c astrx.Counts
		for i := 0; i < cs.K(); i++ {
			c.Add(bw.Lane(i).Counts())
		}
		return c
	}
	laneXs := func(x []float64) [][]float64 {
		xs := make([][]float64, cs.K())
		for i := range xs {
			xs[i] = cs.LaneX(i, x, nil)
		}
		return xs
	}
	var xs, ys [][]float64
	for _, side := range []struct {
		name string
		x    []float64
		fit  bool
	}{{"above unity", live, true}, {"below unity", x, false}} {
		xs, ys = laneXs(side.x), laneXs(cornerNodesMoved(cs, side.x))
		eval(ys) // warm up lazy scratch at both points
		eval(xs)
		for i, ok := range evaluated {
			if !ok {
				t.Fatalf("lane %s failed %s", cs.LaneName(i), side.name)
			}
		}
		// Each lane's reuse count is checked on its own, so a lane taking
		// the wrong path cannot hide behind the others.
		for i := 0; i < cs.K(); i++ {
			lane := bw.Lane(i)
			reused := func() uint64 { return lane.Counts()[astrx.FactorReused] }
			name := cs.LaneName(i) + " " + side.name
			checkAllocs(t, "cornered eval of two points in turn, lane "+name, func() { eval(ys); eval(xs) }, reused, false)
			checkAllocs(t, "cornered eval of a repeated point, lane "+name, func() { eval(xs) }, reused, true)
		}
		checkFits(t, "cornered eval of a new point "+side.name, func() { eval(ys) }, counts, side.fit)
		eval(xs) // end on xs, so the next eval of ys refactors
	}

	// Skip the slow corner in both point sets, as a run that quarantined
	// it does.
	xs[1], ys[1], include[1] = nil, nil, false
	nominal := bw.Lane(0)
	reused := func() uint64 { return nominal.Counts()[astrx.FactorReused] }
	checkAllocs(t, "cornered eval with a skipped lane", func() { eval(ys); eval(xs) }, reused, false)
	if err := bw.Lane(1).Err(); err == nil || !strings.Contains(err.Error(), "skipped") {
		t.Errorf("skipped lane: err %v, want a skip", err)
	}
}
