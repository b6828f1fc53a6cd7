package astrx_test

import (
	"math"
	"testing"

	"astrx/internal/astrx"
	"astrx/internal/bench"
	"astrx/internal/linalg"
)

// A device whose geometry and terminal voltages repeat, bit for bit, the
// inputs of the operating point it holds keeps that point; a cost
// evaluation computes only the parts the point lacks. These tests hold
// a workspace that has evaluated other points, on the cost path and on
// the Newton path, to a fresh workspace's evaluation of the same point:
// its snapshot, device operating points included, bit for bit.

// devReuseCase is one compiled deck, a conducting point of it, and a
// way to compile the deck afresh.
type devReuseCase struct {
	name    string
	c       *astrx.Compiled
	x       []float64
	compile func() *astrx.Compiled
}

// devReuseCases are the Simple OTA, the BiCMOS Two-Stage (BJTs) and the
// slow corner lane of the cornered Simple OTA.
func devReuseCases(t *testing.T) []devReuseCase {
	cs := cornerLanes(t)
	deck := func(ckt bench.Circuit) func() *astrx.Compiled {
		return func() *astrx.Compiled { return compileSrc(t, bench.DeckSource(ckt)) }
	}
	return []devReuseCase{
		{"Simple OTA", compileSrc(t, bench.DeckSource(bench.SimpleOTA)), newtonPoint(t, bench.SimpleOTA), deck(bench.SimpleOTA)},
		{"BiCMOS Two-Stage", compileSrc(t, bench.DeckSource(bench.BiCMOSTwoStage)), newtonPoint(t, bench.BiCMOSTwoStage), deck(bench.BiCMOSTwoStage)},
		{"Simple OTA slow corner lane", cs.Lane(1), cs.LaneX(1, cornerStart(t, cs), nil),
			func() *astrx.Compiled { return cornerLanes(t).Lane(1) }},
	}
}

// devEval evaluates x on ws, holds it to a fresh workspace as checkEval
// does, and returns how many device evaluations the cost evaluation
// asked for and how many of them kept a stored point.
func devEval(t *testing.T, step string, c *astrx.Compiled, ws *astrx.EvalWorkspace, x []float64) (evals, reused uint64) {
	t.Helper()
	before := ws.Counts()
	checkEval(t, step, c, ws, x)
	after := ws.Counts()
	return after[astrx.DeviceEvals] - before[astrx.DeviceEvals], after[astrx.DeviceReused] - before[astrx.DeviceReused]
}

// zeroSignNode returns x with every free node at +0, and the same vector
// with one of them at −0: the first whose sign of zero changes what a
// fresh workspace computes, so that reusing the +0 points at −0 would
// show. A terminal difference is −0 only when a −0 voltage meets a +0
// one, so the other nodes are held at +0.
func zeroSignNode(t *testing.T, c *astrx.Compiled, x []float64) (plus, minus []float64) {
	t.Helper()
	plus = append([]float64(nil), x...)
	clear(plus[c.NUser:])
	p := c.NewWorkspace()
	p.CostDetail(plus)
	for k := c.NUser; k < len(x); k++ {
		minus = with(plus, k, math.Copysign(0, -1))
		m := c.NewWorkspace()
		m.CostDetail(minus)
		if astrx.DiffSnapshots(p.Snapshot(), m.Snapshot()) != "" {
			return plus, minus
		}
	}
	t.Fatal("no free node whose sign of zero changes the evaluation")
	return nil, nil
}

func TestDeviceReuseMatchesFresh(t *testing.T) {
	for _, tc := range devReuseCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			c, x0 := tc.c, tc.x
			ws := c.NewWorkspace()
			evals, _ := devEval(t, "start", c, ws, x0)
			if evals == 0 {
				t.Fatal("no device evaluated")
			}
			if _, reused := devEval(t, "same x", c, ws, x0); reused != evals {
				t.Fatalf("same x: %d of %d devices reused, want all", reused, evals)
			}

			// One node voltage moves the devices on that node only; one
			// geometry variable the devices it sizes; a bias current none.
			xn := with(x0, c.NUser, x0[c.NUser]+1e-3)
			if _, reused := devEval(t, "one node voltage", c, ws, xn); reused == 0 || reused == evals {
				t.Fatalf("one node voltage: %d of %d devices reused, want some", reused, evals)
			}
			xg := with(xn, 0, xn[0]*1.01)
			if _, reused := devEval(t, "one geometry variable", c, ws, xg); reused == 0 || reused == evals {
				t.Fatalf("one geometry variable: %d of %d devices reused, want some", reused, evals)
			}
			ib := varIndex(t, c, "ib")
			if _, reused := devEval(t, "one bias current", c, ws, with(xg, ib, xg[ib]*1.1)); reused != evals {
				t.Fatalf("one bias current: %d of %d devices reused, want all", reused, evals)
			}

			// −0 and +0 are different keys.
			plus, minus := zeroSignNode(t, c, xg)
			devEval(t, "+0 at a node", c, ws, plus)
			if _, reused := devEval(t, "−0 at the node", c, ws, minus); reused == evals {
				t.Fatal("−0 at the node reused every device's +0 point")
			}
			devEval(t, "+0 at the node again", c, ws, plus)

			// A NaN node voltage matches only the same NaN.
			xnan := with(xg, c.NUser, math.NaN())
			devEval(t, "NaN at a node", c, ws, xnan)
			if _, reused := devEval(t, "NaN at the node again", c, ws, xnan); reused != evals {
				t.Fatalf("NaN at the node again: %d of %d devices reused, want all", reused, evals)
			}
			devEval(t, "back from NaN", c, ws, xg)
		})
	}
}

// TestDeviceReuseAfterNewton runs a Newton residual, then a Jacobian, at
// a point on a workspace, and then a cost evaluation there: it keeps
// every device's current-only point and computes the parts the Newton
// replay left out.
func TestDeviceReuseAfterNewton(t *testing.T) {
	for _, tc := range devReuseCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			c, x := tc.c, tc.x
			ws := c.NewWorkspace()
			devEval(t, "elsewhere", c, ws, with(x, 0, x[0]*1.2))
			for _, jac := range []bool{false, true} {
				p := ws.DCProblem(x)
				v := x[c.NUser:]
				if err := p.Residual(v, make([]float64, p.N())); err != nil {
					t.Fatal(err)
				}
				step := "after a residual"
				if jac {
					if err := p.Jacobian(v, linalg.NewMatrix(p.N(), p.N())); err != nil {
						t.Fatal(err)
					}
					step = "after a residual and a Jacobian"
				}
				evals, reused := devEval(t, step, c, ws, x)
				if reused != evals {
					t.Fatalf("%s: %d of %d devices reused, want all", step, reused, evals)
				}
				devEval(t, "elsewhere", c, ws, with(x, 0, x[0]*1.2))
			}
			// A Newton replay at a repeated point keeps every device's
			// point, and the Jacobian it feeds matches a fresh problem's.
			p := ws.DCProblem(x)
			v := x[c.NUser:]
			mustResidual(t, p, v)
			before := ws.Counts()
			mustResidual(t, p, v)
			after := ws.Counts()
			n := after[astrx.NewtonDeviceEvals] - before[astrx.NewtonDeviceEvals]
			if r := after[astrx.NewtonDeviceReused] - before[astrx.NewtonDeviceReused]; n == 0 || r != n {
				t.Fatalf("repeated residual: %d of %d device evaluations reused, want all", r, n)
			}
			want := jacobianOf(tc.compile().NewWorkspace().DCProblem(x), v)
			if d := jacDiff(jacobianOf(p, v), want); d != "" {
				t.Fatalf("Jacobian after a repeated residual: %s", d)
			}
		})
	}
}
