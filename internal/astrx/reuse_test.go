package astrx_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"astrx/internal/astrx"
	"astrx/internal/bench"
	"astrx/internal/dcsolve"
	"astrx/internal/expr"
	"astrx/internal/linalg"
	"astrx/internal/netlist"
)

// A jig whose stamped (G, C) pair repeats the one its engine factored
// last keeps the factors and the transfer-function models computed from
// them. These tests hold a workspace that has evaluated other points,
// and run the Newton and reporting paths in between, to a fresh
// workspace's evaluation of the same point, bit for bit.

// checkEval evaluates x on the reusing workspace ws and on a fresh
// workspace of c, fails unless both leave the same bits (the reusing
// side's unstable count taken as this evaluation's increment), and
// returns how many factorizations ws reused for it.
func checkEval(t *testing.T, step string, c *astrx.Compiled, ws *astrx.EvalWorkspace, x []float64) uint64 {
	t.Helper()
	before := ws.Snapshot()
	ws.CostDetail(x)
	got := ws.Snapshot()
	got.Unstable -= before.Unstable
	fresh := c.NewWorkspace()
	fresh.CostDetail(x)
	if d := astrx.DiffSnapshots(got, fresh.Snapshot()); d != "" {
		t.Fatalf("%s: reusing workspace differs from a fresh one: %s", step, d)
	}
	return got.FactorsReused - before.FactorsReused
}

// checkReadouts compares what State and MeasureSpec report on ws with a
// fresh workspace's readouts after evaluating x: every completed model,
// and every transfer function's ugf, phase_margin and dc_gain.
func checkReadouts(t *testing.T, step string, c *astrx.Compiled, ws *astrx.EvalWorkspace, x []float64) {
	t.Helper()
	checkReadoutsOf(t, step, c, ws, x, c.TFNames())
}

// checkReadoutsOf is checkReadouts measuring only the named transfer
// functions. After a failed evaluation State reports no models, and
// only those of the jigs the evaluation reached are its own.
func checkReadoutsOf(t *testing.T, step string, c *astrx.Compiled, ws *astrx.EvalWorkspace, x []float64, names []string) {
	t.Helper()
	fresh := c.NewWorkspace()
	fresh.CostDetail(x)
	got, want := ws.State(), fresh.State()
	if len(got.TFs) != len(want.TFs) {
		t.Fatalf("%s: State has %d TFs, fresh %d", step, len(got.TFs), len(want.TFs))
	}
	for name, tf := range want.TFs {
		if d := astrx.DiffTFs(got.TFs[name], tf); d != "" {
			t.Fatalf("%s: State TF %s: %s", step, name, d)
		}
	}
	for _, name := range names {
		for _, fn := range []string{"ugf", "phase_margin", "dc_gain"} {
			e := expr.MustParse(fn + "(" + name + ")")
			g, gerr := ws.MeasureSpec(e, nil)
			w, werr := fresh.MeasureSpec(e, nil)
			if (gerr != nil) != (werr != nil) || g != w {
				t.Fatalf("%s: %s(%s) = %v (%v), fresh %v (%v)", step, fn, name, g, gerr, w, werr)
			}
		}
	}
}

func varIndex(t *testing.T, c *astrx.Compiled, name string) int {
	t.Helper()
	for i, v := range c.Vars()[:c.NUser] {
		if strings.EqualFold(v.Name, name) {
			return i
		}
	}
	t.Fatalf("no design variable %s", name)
	return -1
}

func with(x []float64, i int, v float64) []float64 {
	out := append([]float64(nil), x...)
	out[i] = v
	return out
}

// unstablePoint returns a point of c whose cost evaluation counts an
// unstable fit, searching a fixed random sequence; nil when none of it
// does.
func unstablePoint(c *astrx.Compiled) []float64 {
	rng := rand.New(rand.NewSource(7))
	ws := c.NewWorkspace()
	for k := 0; k < 300; k++ {
		x := make([]float64, len(c.Vars()))
		for i, v := range c.Vars() {
			x[i] = v.Min + rng.Float64()*(v.Max-v.Min)
		}
		before := ws.UnstableCount()
		ws.Cost(x)
		if ws.Err() == nil && ws.UnstableCount() > before {
			return x
		}
	}
	return nil
}

func TestJigReuseMatchesFresh(t *testing.T) {
	for _, ckt := range bench.Table2Suite {
		t.Run(string(ckt), func(t *testing.T) {
			c := compileSrc(t, bench.DeckSource(ckt))
			ws := c.NewWorkspace() // the Newton problem's workspace too
			mats := uint64(len(ws.JigStats()))
			nu := c.NUser
			x0 := newtonPoint(t, ckt)
			ib := varIndex(t, c, "ib")
			step := func(name string, x []float64, wantReused uint64) {
				t.Helper()
				if got := checkEval(t, name, c, ws, x); got != wantReused {
					t.Fatalf("%s: %d factorizations reused, want %d", name, got, wantReused)
				}
			}

			step("start", x0, 0)
			step("(a) same x", x0, mats)
			xb := with(x0, ib, x0[ib]*1.1)
			step("(b) bias current only", xb, mats)
			xc := append(append([]float64(nil), xb[:nu]...), shifted(xb[nu:], 1e-3)...)
			step("(c) node voltages", xc, 0)

			// (e) A Newton residual and Jacobian elsewhere replay the bias
			// on the same workspace; the next evaluation re-stamps the
			// same matrices and keeps its factors.
			p := ws.DCProblem(xc)
			v := shifted(xc[nu:], 0.02)
			if err := p.Residual(v, make([]float64, p.N())); err != nil {
				t.Fatal(err)
			}
			if err := p.Jacobian(v, linalg.NewMatrix(p.N(), p.N())); err != nil {
				t.Fatal(err)
			}
			step("(e) after a Newton residual and Jacobian", xc, mats)

			// (f) State and MeasureSpec fit the dcOnly transfer functions;
			// evaluations after them keep or replace those fits.
			checkReadouts(t, "(f) readouts", c, ws, xc)
			step("(f) same x after the readouts", xc, mats)
			checkReadouts(t, "(f) readouts again", c, ws, xc)
			step("(f) bias current after the readouts", with(xc, ib, xc[ib]*0.9), mats)
			step("(f) node voltages after the readouts", xb, 0)
			checkReadouts(t, "(f) readouts after a move", c, ws, xb)

			// A failed evaluation stops before the jigs and leaves their
			// factors and models to the next one.
			bad := with(xb, 0, -1e-6)
			ws.CostDetail(bad)
			if ws.Err() == nil {
				t.Fatal("nonpositive geometry evaluated")
			}
			step("after a failed evaluation", xb, mats)

			if xu := unstablePoint(c); xu != nil {
				step("unstable fit", xu, 0)
				step("unstable fit repeated", xu, mats)
				checkReadouts(t, "unstable fit readouts", c, ws, xu)
				step("unstable fit after the readouts", xu, mats)
			}
		})
	}

	// (d) A load capacitance as a design variable moves C but not G.
	t.Run("Simple OTA, Cl a variable", func(t *testing.T) {
		src := strings.Replace(bench.DeckSource(bench.SimpleOTA), ".const Cl 1p", ".var Cl min=0.2p max=5p cont", 1)
		c := compileSrc(t, src)
		ws := c.NewWorkspace()
		cl := varIndex(t, c, "cl")
		x := make([]float64, len(c.Vars()))
		for i, v := range c.Vars() {
			x[i] = v.Start()
		}
		checkEval(t, "start", c, ws, x)
		if got := checkEval(t, "(d) Cl only", c, ws, with(x, cl, x[cl]*1.5)); got != 0 {
			t.Fatalf("(d): a change to C alone reused %d factorizations", got)
		}
	})

	t.Run("failed jig", testFailedJigReuse)
	t.Run("cornered Simple OTA", testCornerLaneReuse)
}

// twoJigDeck has a dcOnly transfer function with gain above unity in
// jig amp, and a load jig whose resistor R3 is a design variable that
// appears nowhere else, so R3 = 0 fails the load jig's stamp after the
// amp jig has evaluated.
const twoJigDeck = `
.jig amp
vin in 0 0 ac 1
e1 mid 0 in 0 100
r1 mid out 1k
c1 out 0 1n
.pz ta v(out) vin
.ends

.jig load
vin in 0 0 ac 1
r1 in out 1k
r3 out 0 R3
c1 out 0 1p
.pz tl v(out) vin
.ends

.bias
vb in 0 1
r1 in out 1k
r2 out 0 R2
.ends

.var R2 min=100 max=100k grid
.var R3 min=0 max=100k cont
.obj gain 'dc_gain(ta)' good=200 bad=10
.spec bw 'ugf(tl)' good=1Meg bad=1k
`

// testFailedJigReuse reads the dcOnly model while a failed evaluation
// has left it at order 0, then evaluates a point that repeats its jig's
// matrices: the fitted model the readouts then report must be measured
// afresh, not from what was read of the order-0 one.
func testFailedJigReuse(t *testing.T) {
	c := compileSrc(t, twoJigDeck)
	ws := c.NewWorkspace()
	r3 := varIndex(t, c, "r3")
	x := make([]float64, len(c.Vars()))
	for i, v := range c.Vars() {
		x[i] = v.Start()
	}
	checkEval(t, "start", c, ws, x)
	broken := with(x, r3, 0)
	ws.CostDetail(broken)
	if ws.Err() == nil {
		t.Fatal("zero load resistance evaluated")
	}
	checkReadoutsOf(t, "readouts after the failed load jig", c, ws, broken, []string{"ta"})
	// Both jigs keep their factors: the failed stamp never reached the
	// load jig's engine.
	if got := checkEval(t, "load jig mended", c, ws, x); got != 2 {
		t.Fatalf("%d factorizations reused, want 2", got)
	}
	checkReadouts(t, "readouts after the mend", c, ws, x)
}

// cornerLanes compiles the cornered Simple OTA lane set the corner
// benchmarks use: nominal, a hot slow corner and a cold fast one.
func cornerLanes(t testing.TB) *astrx.CornerSet {
	t.Helper()
	src := bench.DeckSource(bench.SimpleOTA) +
		"\n.corner slow temp=85 nmos3.vto=0.95 vdd=2.4\n.corner fast temp=-40 vdd=2.6\n"
	deck, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := astrx.CompileCorners(deck, deck.CornerNames(), astrx.CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// cornerStart is the master vector at the start point with every lane's
// node section at a short Newton solve of the nominal bias, so the
// devices conduct and node moves change their small-signal parameters.
func cornerStart(t testing.TB, cs *astrx.CornerSet) []float64 {
	t.Helper()
	x := make([]float64, cs.NVars())
	for i, v := range cs.Vars() {
		x[i] = v.Start()
	}
	nom := cs.LaneX(0, x, nil)
	if v := dcsolveBestEffort(cs.Nominal, nom); v != nil {
		copy(nom[cs.NUser:], v)
	}
	for i := 0; i < cs.K(); i++ {
		cs.StoreLaneNodes(i, nom, x)
	}
	return x
}

// checkLanes runs the master vector x on the reusing lane set bw and on a
// fresh one, and fails unless every lane leaves the same bits. It
// returns how many factorizations each lane reused.
func checkLanes(t testing.TB, step string, cs *astrx.CornerSet, bw *astrx.BatchWorkspace, x []float64) []uint64 {
	t.Helper()
	xs := make([][]float64, cs.K())
	before := make([]astrx.EvalSnapshot, cs.K())
	for i := range xs {
		xs[i] = cs.LaneX(i, x, nil)
		before[i] = bw.Lane(i).Snapshot()
	}
	bw.Run(xs)
	fresh := cs.NewCornerBatch()
	fresh.Run(xs)
	reused := make([]uint64, cs.K())
	for i := range xs {
		got := bw.Lane(i).Snapshot()
		got.Unstable -= before[i].Unstable
		if d := astrx.DiffSnapshots(got, fresh.Lane(i).Snapshot()); d != "" {
			t.Fatalf("%s: lane %s differs from a fresh lane set: %s", step, cs.LaneName(i), d)
		}
		reused[i] = got.FactorsReused - before[i].FactorsReused
	}
	return reused
}

func testCornerLaneReuse(t *testing.T) {
	cs := cornerLanes(t)
	bw := cs.NewCornerBatch()
	ib := -1
	for i, v := range cs.Vars()[:cs.NUser] {
		if strings.EqualFold(v.Name, "ib") {
			ib = i
		}
	}
	x0 := cornerStart(t, cs)
	step := func(name string, x []float64, want ...uint64) {
		t.Helper()
		got := checkLanes(t, name, cs, bw, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: reuses per lane %v, want %v", name, got, want)
			}
		}
	}
	step("start", x0, 0, 0, 0)
	step("(a) same x", x0, 1, 1, 1)
	xb := with(x0, ib, x0[ib]*1.1)
	step("(b) bias current only", xb, 1, 1, 1)
	xn := shiftSection(cs, xb, 0, 1e-3)
	step("(c) nominal nodes only", xn, 0, 1, 1)
	xs := shiftSection(cs, xn, 1, 1e-3)
	step("(c) slow corner nodes only", xs, 1, 0, 1)
	for i := 0; i < cs.K(); i++ {
		checkReadouts(t, "(f) readouts, lane "+cs.LaneName(i), cs.Lane(i), bw.Lane(i), cs.LaneX(i, xs, nil))
	}
	step("(f) same x after the readouts", xs, 1, 1, 1)
	step("device size", with(xs, 0, xs[0]*1.01), 0, 0, 0)
}

// shiftSection returns x with lane i's node-voltage section moved by d
// volts.
func shiftSection(cs *astrx.CornerSet, x []float64, i int, d float64) []float64 {
	out := append([]float64(nil), x...)
	off := cs.NUser + i*cs.NFree
	for k := off; k < off+cs.NFree; k++ {
		out[k] += d
	}
	return out
}

// dcsolveBestEffort runs a short best-effort Newton solve of c's bias
// from x's node voltages, returning the voltages it reached.
func dcsolveBestEffort(c *astrx.Compiled, x []float64) []float64 {
	r, _ := dcsolve.Solve(context.Background(), c.NewWorkspace().DCProblem(x), x[c.NUser:],
		dcsolve.Options{MaxIter: 20, BestEffort: true})
	if r == nil {
		return nil
	}
	return r.V
}

// FuzzJigReuse runs random sequences of repeats, single-variable moves,
// nominal-node-only moves, readouts, node voltages at +0 or −0, a NaN
// node voltage, and Newton replays on the cornered Simple OTA lane set.
// After every step each lane must match a fresh lane set bit for bit,
// device operating points and the models a reader sees included. A
// Newton step runs a residual and a Jacobian on one lane's workspace, as
// a Newton move does, at that lane's node voltages moved by at most
// 12.8 mV, so the next evaluation there meets the current-only points
// the replay left. A readout step reads one lane as State and
// MeasureSpec do (ugf, phase_margin and dc_gain), by every measurement
// of every transfer function, or by an Evaluate at the lane's point, and
// compares it with a fresh workspace's; each fits models the cost
// function left at μ0, which later steps then keep or replace. Each
// three bytes of input are one step: kind, which variable or lane, and
// how far.
func FuzzJigReuse(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 6, 20, 2, 1, 30, 0, 0, 0, 3, 1, 0, 1, 0, 200})
	f.Add([]byte{2, 0, 1, 2, 0, 255, 1, 9, 3, 3, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 100, 0, 0, 0, 1, 12, 128, 3, 2, 0})
	f.Add([]byte{4, 0, 0, 4, 1, 0, 4, 1, 255, 0, 0, 0, 4, 1, 1, 5, 2, 0, 6, 0, 0, 6, 1, 0})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 6, 0, 0, 2, 3, 50, 6, 2, 0, 5, 0, 0, 3, 0, 0})
	f.Add([]byte{7, 0, 0, 0, 0, 0, 8, 1, 0, 2, 0, 10, 7, 2, 0, 8, 0, 0, 1, 6, 20, 7, 1, 0})
	cs := cornerLanes(f)
	x0 := cornerStart(f, cs)
	f.Fuzz(func(t *testing.T, ops []byte) {
		bw := cs.NewCornerBatch()
		x := append([]float64(nil), x0...)
		checkLanes(t, "start", cs, bw, x)
		for k := 0; k+2 < len(ops) && k < 3*24; k += 3 {
			which, amt := int(ops[k+1]), float64(int8(ops[k+2]))
			step := "repeat"
			switch ops[k] % 9 {
			case 1:
				i := which % len(x)
				if i < cs.NUser {
					x[i] *= 1 + amt/1000 // sizes and currents stay positive
				} else {
					x[i] += amt * 1e-3
				}
				step = "move " + cs.Vars()[i].Name
			case 2:
				i := cs.NUser + which%cs.NFree
				x[i] += amt * 1e-4
				step = "move nominal " + cs.Vars()[i].Name
			case 3:
				l := which % cs.K()
				checkReadouts(t, "readouts, lane "+cs.LaneName(l), cs.Lane(l), bw.Lane(l), cs.LaneX(l, x, nil))
				step = "after readouts"
			case 4:
				i := cs.NUser + which%(len(x)-cs.NUser)
				x[i] = 0
				if amt < 0 {
					x[i] = math.Copysign(0, -1)
				}
				step = fmt.Sprintf("%s at %v", cs.Vars()[i].Name, x[i])
			case 5:
				i := cs.NUser + which%(len(x)-cs.NUser)
				checkLanes(t, cs.Vars()[i].Name+" at NaN", cs, bw, with(x, i, math.NaN()))
				step = "back from NaN"
			case 6:
				l := which % cs.K()
				lx := cs.LaneX(l, x, nil)
				p := bw.Lane(l).DCProblem(lx)
				v := shifted(lx[cs.NUser:], amt*1e-4)
				if p.Residual(v, make([]float64, p.N())) == nil {
					p.Jacobian(v, linalg.NewMatrix(p.N(), p.N()))
				}
				step = "after a Newton replay, lane " + cs.LaneName(l)
			case 7, 8:
				l := which % cs.K()
				lx := cs.LaneX(l, x, nil)
				fresh := cs.Lane(l).NewWorkspace()
				fresh.CostDetail(lx)
				readout := "measure"
				if ops[k]%9 == 8 {
					readout = "evaluate"
				}
				checkReadoutsMatch(t, lazyStep{readout + " readout, lane " + cs.LaneName(l), readout, lx},
					bw.Lane(l), fresh, cs.Lane(l).TFNames())
				step = "after a " + readout + " readout, lane " + cs.LaneName(l)
			}
			checkLanes(t, step, cs, bw, x)
		}
	})
}
