package oblx

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"astrx/internal/anneal"
	"astrx/internal/astrx"
	"astrx/internal/dcsolve"
	"astrx/internal/faults"
	"astrx/internal/trace"
)

// cornerQuarantineAfter is the per-corner quarantine threshold: a corner
// whose evaluation fails (after its in-move retry) this many times in a
// row is excluded from the worst-case assembly for the rest of the run.
// The run then completes on the remaining corners with Result.Degraded
// set, instead of paying full evaluation cost forever for a lane that
// drags every candidate to the failure penalty.
const cornerQuarantineAfter = 10

// cornerLane is the failure bookkeeping of one corner (lane 0, the
// nominal, is tracked by the candidate-level machinery instead).
type cornerLane struct {
	fails       int // evaluations that still failed after the retry
	retries     int // in-move scalar re-attempts
	consec      int // consecutive failed evaluations (resets on success)
	quarantined bool
}

// cornerEval evaluates one candidate against every selected corner and
// assembles the worst-case-over-corners cost. It owns the corner lane
// workspace, the per-corner failure accounting, and the retry-then-
// quarantine policy; the surrounding problem wrapper keeps its existing
// candidate-level panic/NaN hardening on top.
type cornerEval struct {
	cs  *astrx.CornerSet
	bw  *astrx.BatchWorkspace
	inj *faults.Injector

	lanes     []cornerLane // indexed like cs lanes; [0] unused
	bufs      [][]float64  // per-lane candidate scratch
	xs        [][]float64  // Run argument: bufs[i] or nil (skipped)
	include   []bool
	evaluated []bool

	// span is the run's anneal span; lane-state transitions (first
	// retry, quarantine) are recorded on it as events. Nil-safe, so the
	// untraced hot path pays nothing — events fire only on the rare
	// transitions, never per eval.
	span *trace.Active
}

func newCornerEval(cs *astrx.CornerSet, inj *faults.Injector) *cornerEval {
	k := cs.K()
	return &cornerEval{
		cs:        cs,
		bw:        cs.NewCornerBatch(),
		inj:       inj,
		lanes:     make([]cornerLane, k),
		bufs:      make([][]float64, k),
		xs:        make([][]float64, k),
		include:   make([]bool, k),
		evaluated: make([]bool, k),
	}
}

// eval runs one worst-case evaluation of the master vector x. Exactly
// one adaptive-weight EMA update happens per call, like one scalar
// CostDetail — the invariant checkpoint/resume bit-exactness rests on.
func (ce *cornerEval) eval(x []float64) astrx.CostBreakdown {
	cs := ce.cs
	k := cs.K()
	for i := 0; i < k; i++ {
		ce.include[i] = i == 0 || !ce.lanes[i].quarantined
		ce.xs[i] = nil
		if ce.include[i] {
			ce.bufs[i] = cs.LaneX(i, x, ce.bufs[i])
			ce.xs[i] = ce.bufs[i]
		}
	}
	ce.bw.Run(ce.xs)

	// Nominal failure is candidate failure: WorstCase charges FailCost,
	// exactly like the scalar evaluator.
	ce.evaluated[0] = ce.bw.Lane(0).Err() == nil

	// Corners degrade instead: a lane whose evaluation failed (Err) is
	// retried once in place, the failure counted, and the corner
	// quarantined after a run of them. A failed-but-included corner
	// charges the deterministic worst-case penalty (the same
	// unmeasurable-spec units the scalar cost uses), so one failed lane
	// evaluation never blanks the candidate. An unstable Padé fit is not
	// a failure: its model is measured and counted, as on the nominal
	// lane.
	for i := 1; i < k; i++ {
		if !ce.include[i] {
			ce.evaluated[i] = false
			continue
		}
		name := cs.LaneName(i)
		failed := ce.bw.Lane(i).Err() != nil
		if ce.inj.CornerFail(name) {
			failed = true
		}
		if failed {
			ce.lanes[i].retries++
			if ce.lanes[i].retries == 1 {
				ce.span.Event("corner-retry", "corner", name)
			}
			failed = ce.inj.CornerFail(name) || ce.bw.RerunLane(i, ce.xs[i]) != nil
		}
		if failed {
			ce.lanes[i].fails++
			ce.lanes[i].consec++
			if ce.lanes[i].consec >= cornerQuarantineAfter {
				ce.lanes[i].quarantined = true
				ce.span.Event("corner-quarantined",
					"corner", name, "fails", strconv.Itoa(ce.lanes[i].fails))
			}
		} else {
			ce.lanes[i].consec = 0
		}
		ce.evaluated[i] = !failed
	}
	return cs.WorstCase(ce.bw, ce.include, ce.evaluated)
}

func (ce *cornerEval) cost(x []float64) float64 { return ce.eval(x).Total }

// degraded reports whether any corner has been quarantined.
func (ce *cornerEval) degraded() bool {
	for i := 1; i < len(ce.lanes); i++ {
		if ce.lanes[i].quarantined {
			return true
		}
	}
	return false
}

// unstableCount sums the Padé-instability counters over all lanes.
func (ce *cornerEval) unstableCount() int {
	n := 0
	for i := 0; i < ce.cs.K(); i++ {
		n += ce.bw.Lane(i).UnstableCount()
	}
	return n
}

// cornerCheckpoints snapshots the per-corner failure state for the
// checkpoint (corners only; the nominal lane's unstable counter rides
// in the checkpoint's existing field).
func (ce *cornerEval) cornerCheckpoints() []CornerCheckpoint {
	out := make([]CornerCheckpoint, 0, ce.cs.K()-1)
	for i := 1; i < ce.cs.K(); i++ {
		l := ce.lanes[i]
		out = append(out, CornerCheckpoint{
			Name:        ce.cs.LaneName(i),
			Fails:       l.fails,
			Retries:     l.retries,
			Consec:      l.consec,
			Quarantined: l.quarantined,
			Unstable:    ce.bw.Lane(i).UnstableCount(),
		})
	}
	return out
}

// restore rehydrates the per-corner state from a checkpoint. The
// checkpoint must carry exactly this run's corners, in order — resuming
// a cornered run under a different corner selection would silently
// change the cost function mid-run.
func (ce *cornerEval) restore(ck *Checkpoint) error {
	if len(ck.Corners) != ce.cs.K()-1 {
		return fmt.Errorf("oblx: checkpoint has %d corners, run selects %d — wrong corner set?",
			len(ck.Corners), ce.cs.K()-1)
	}
	for i, cc := range ck.Corners {
		lane := i + 1
		if name := ce.cs.LaneName(lane); cc.Name != name {
			return fmt.Errorf("oblx: checkpoint corner %d is %q, run selects %q", i, cc.Name, name)
		}
		ce.lanes[lane] = cornerLane{
			fails:       cc.Fails,
			retries:     cc.Retries,
			consec:      cc.Consec,
			quarantined: cc.Quarantined,
		}
		ce.bw.Lane(lane).SetUnstableCount(cc.Unstable)
	}
	ce.bw.Lane(0).SetUnstableCount(ck.Unstable)
	return nil
}

// failureStats builds the per-corner failure breakdown.
func (ce *cornerEval) failureStats() map[string]CornerFailures {
	out := make(map[string]CornerFailures, ce.cs.K()-1)
	for i := 1; i < ce.cs.K(); i++ {
		l := ce.lanes[i]
		out[ce.cs.LaneName(i)] = CornerFailures{
			Fails:       l.fails,
			Retries:     l.retries,
			Quarantined: l.quarantined,
		}
	}
	return out
}

// cornerResults builds the final per-lane breakdown. Call it after the
// final eval(best) so the lanes hold the verdict at the returned
// design; laneDC is the per-lane Newton-polish outcome.
func (ce *cornerEval) cornerResults(laneDC []bool) []CornerResult {
	out := make([]CornerResult, 0, ce.cs.K())
	for i := 0; i < ce.cs.K(); i++ {
		l := ce.lanes[i]
		cr := CornerResult{
			Name:        ce.cs.LaneName(i),
			Quarantined: l.quarantined,
			Evaluated:   ce.evaluated[i],
			DCSolved:    laneDC != nil && laneDC[i],
			Fails:       l.fails,
			Retries:     l.retries,
		}
		if cr.Evaluated {
			st := ce.bw.Lane(i).State()
			cr.SpecVals = finiteSpecVals(st.SpecVals)
			cr.AllMet = allSpecsMet(ce.cs.Lane(i), st.SpecVals)
		}
		out = append(out, cr)
	}
	return out
}

// allSpecsMet reports whether every non-objective spec is satisfied
// (normalized good→bad value ≤ 0) at the measured values.
func allSpecsMet(c *astrx.Compiled, specVals map[string]float64) bool {
	for _, s := range c.Deck.Specs {
		if s.Objective {
			continue
		}
		v, ok := specVals[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		if astrx.Normalize(s, v) > 0 {
			return false
		}
	}
	return true
}

// cornerNewtonMove is the corner-aware Newton move: every live lane's
// relaxed-dc node-voltage section is driven toward its own corner's
// dc-correct bias (each corner has different supplies and thresholds,
// so each needs its own solve). Quarantined corners are skipped — their
// sections are annealing ballast, not worth a solve. The move proposes
// when at least one lane's section actually moved.
//
// The two variants divide the labor: the single-iteration step move
// tracks each lane's bias by continuation from its own current section,
// while the full solve warm-starts every corner lane from the nominal
// section it just solved. A corner is a small perturbation of the
// nominal operating point, so the nominal bias is an excellent initial
// guess — and, crucially, it lets a corner lane escape a dead basin
// (e.g. an all-devices-cutoff solution, a perfectly valid KCL point)
// that pure continuation from its own history would keep it in forever
// while the max-over-lanes region penalty pins the cost.
//
// Like newtonMove's, the solves ignore ctx's cancellation, so a cancel
// never cuts a move short.
func cornerNewtonMove(ctx context.Context, ce *cornerEval, label string, iters int) anneal.Move {
	cs := ce.cs
	var (
		work     dcsolve.Workspace
		vbuf     []float64
		nomNodes []float64
		lbuf     [][]float64 = make([][]float64, cs.K())
	)
	solveCtx := context.WithoutCancel(ctx)
	return &anneal.FuncMove{
		Label: label,
		Fn: func(cur, next []float64, rng *rand.Rand) bool {
			any := false
			nomNodes = nomNodes[:0]
			for i := 0; i < cs.K(); i++ {
				if i > 0 && ce.lanes[i].quarantined {
					continue
				}
				lbuf[i] = cs.LaneX(i, cur, lbuf[i])
				lx := lbuf[i]
				c := cs.Lane(i)
				if i > 0 && iters > 1 && len(nomNodes) == cs.NFree {
					copy(lx[c.NUser:], nomNodes)
				}
				dp := c.DCProblem(lx)
				if dp.N() == 0 {
					continue
				}
				vbuf = append(vbuf[:0], lx[c.NUser:]...)
				if iters <= 1 {
					stepped, err := dcsolve.Step(dp, vbuf, dcsolve.Options{FailHook: ce.inj.NewtonHook(), Work: &work})
					if err != nil {
						continue
					}
					copy(lx[c.NUser:], stepped)
				} else {
					r, _ := dcsolve.Solve(solveCtx, dp, vbuf, dcsolve.Options{
						MaxIter: iters, BestEffort: true, FailHook: ce.inj.NewtonHook(), Work: &work,
					})
					if r == nil {
						continue
					}
					copy(lx[c.NUser:], r.V)
				}
				cs.StoreLaneNodes(i, lx, next)
				if i == 0 {
					nomNodes = append(nomNodes[:0], lx[cs.NUser:cs.NUser+cs.NFree]...)
				}
				// Any successful lane solve is a proposal, like the scalar
				// Newton move; the annealer's own no-op detection handles
				// the already-converged case.
				any = true
			}
			return any
		},
	}
}

// polishCorners runs the final full Newton polish on every live lane's
// node-voltage section (see polishDC). It returns the polished master
// vector, whether every live lane converged, and the per-lane verdict
// (quarantined lanes report false — their bias was never polished).
func polishCorners(ctx context.Context, ce *cornerEval, x []float64) ([]float64, bool, []bool) {
	cs := ce.cs
	out := append([]float64(nil), x...)
	laneDC := make([]bool, cs.K())
	allOK := true
	for i := 0; i < cs.K(); i++ {
		if i > 0 && ce.lanes[i].quarantined {
			continue
		}
		lx := cs.LaneX(i, out, nil)
		lx, ok := polishDC(ctx, cs.Lane(i), ce.inj, lx)
		laneDC[i] = ok
		if ok {
			cs.StoreLaneNodes(i, lx, out)
		} else {
			allOK = false
		}
	}
	return out, allOK, laneDC
}
