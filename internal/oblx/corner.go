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
	retries     int // in-move re-attempts of the lane alone
	consec      int // consecutive failed evaluations (resets on success)
	quarantined bool
}

// eval runs one evaluation of the master vector x over every live lane
// and assembles C(x). Exactly one adaptive-weight EMA update happens per
// call — the invariant checkpoint/resume bit-exactness rests on.
func (p *problem) eval(x []float64) astrx.CostBreakdown {
	cs := p.cs
	k := cs.K()
	for i := 0; i < k; i++ {
		p.include[i] = i == 0 || !p.lanes[i].quarantined
		p.xs[i] = nil
		if p.include[i] {
			p.bufs[i] = cs.LaneX(i, x, p.bufs[i])
			p.xs[i] = p.bufs[i]
		}
	}
	p.bw.Run(p.xs)

	// Nominal failure is candidate failure: WorstCase charges FailCost.
	p.evaluated[0] = p.bw.Lane(0).Err() == nil

	// Corners degrade instead: a lane whose evaluation failed (Err) is
	// retried once in place, the failure counted, and the corner
	// quarantined after a run of them. A failed-but-included corner
	// charges the deterministic worst-case penalty (the same
	// unmeasurable-spec units the nominal gets), so one failed lane
	// evaluation never blanks the candidate. An unstable Padé fit is not
	// a failure: its model is measured and counted, as on the nominal
	// lane.
	for i := 1; i < k; i++ {
		if !p.include[i] {
			p.evaluated[i] = false
			continue
		}
		name := cs.LaneName(i)
		failed := p.bw.Lane(i).Err() != nil
		if p.inj.CornerFail(name) {
			failed = true
		}
		if failed {
			p.lanes[i].retries++
			if p.lanes[i].retries == 1 {
				p.span.Event("corner-retry", "corner", name)
			}
			failed = p.inj.CornerFail(name) || p.bw.RerunLane(i, p.xs[i]) != nil
		}
		if failed {
			p.lanes[i].fails++
			p.lanes[i].consec++
			if p.lanes[i].consec >= cornerQuarantineAfter {
				p.lanes[i].quarantined = true
				p.span.Event("corner-quarantined",
					"corner", name, "fails", strconv.Itoa(p.lanes[i].fails))
			}
		} else {
			p.lanes[i].consec = 0
		}
		p.evaluated[i] = !failed
	}
	return cs.WorstCase(p.bw, p.include, p.evaluated)
}

// degraded reports whether any corner has been quarantined.
func (p *problem) degraded() bool {
	for i := 1; i < len(p.lanes); i++ {
		if p.lanes[i].quarantined {
			return true
		}
	}
	return false
}

// unstableCount sums the Padé-instability counters over all lanes.
func (p *problem) unstableCount() int {
	n := 0
	for i := 0; i < p.cs.K(); i++ {
		n += p.bw.Lane(i).UnstableCount()
	}
	return n
}

// cornerCheckpoints snapshots the per-corner failure state for the
// checkpoint (corners only, so nil for a nominal-only run; the nominal
// lane's unstable counter rides in the checkpoint's own field).
func (p *problem) cornerCheckpoints() []CornerCheckpoint {
	var out []CornerCheckpoint
	for i := 1; i < p.cs.K(); i++ {
		l := p.lanes[i]
		out = append(out, CornerCheckpoint{
			Name:        p.cs.LaneName(i),
			Fails:       l.fails,
			Retries:     l.retries,
			Consec:      l.consec,
			Quarantined: l.quarantined,
			Unstable:    p.bw.Lane(i).UnstableCount(),
		})
	}
	return out
}

// restore rehydrates the per-lane state from a checkpoint. The
// checkpoint must carry exactly this run's corners, in order — resuming
// under a different corner selection would silently change the cost
// function mid-run.
func (p *problem) restore(ck *Checkpoint) error {
	if len(ck.Corners) != p.cs.K()-1 {
		return fmt.Errorf("oblx: checkpoint has %d corners, run selects %d — wrong corner set?",
			len(ck.Corners), p.cs.K()-1)
	}
	for i, cc := range ck.Corners {
		lane := i + 1
		if name := p.cs.LaneName(lane); cc.Name != name {
			return fmt.Errorf("oblx: checkpoint corner %d is %q, run selects %q", i, cc.Name, name)
		}
		p.lanes[lane] = cornerLane{
			fails:       cc.Fails,
			retries:     cc.Retries,
			consec:      cc.Consec,
			quarantined: cc.Quarantined,
		}
		p.bw.Lane(lane).SetUnstableCount(cc.Unstable)
	}
	p.bw.Lane(0).SetUnstableCount(ck.Unstable)
	return nil
}

// failureStats builds the per-corner failure breakdown.
func (p *problem) failureStats() map[string]CornerFailures {
	out := make(map[string]CornerFailures, p.cs.K()-1)
	for i := 1; i < p.cs.K(); i++ {
		l := p.lanes[i]
		out[p.cs.LaneName(i)] = CornerFailures{
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
func (p *problem) cornerResults(laneDC []bool) []CornerResult {
	out := make([]CornerResult, 0, p.cs.K())
	for i := 0; i < p.cs.K(); i++ {
		l := p.lanes[i]
		cr := CornerResult{
			Name:        p.cs.LaneName(i),
			Quarantined: l.quarantined,
			Evaluated:   p.evaluated[i],
			DCSolved:    laneDC[i],
			Fails:       l.fails,
			Retries:     l.retries,
		}
		if cr.Evaluated {
			st := p.bw.Lane(i).State()
			cr.SpecVals = finiteSpecVals(st.SpecVals)
			cr.AllMet = allSpecsMet(p.cs.Lane(i), st.SpecVals)
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

// newtonMove builds the gradient-directed move class: every live lane's
// relaxed-dc node-voltage section is replaced by the result of iters
// damped Newton-Raphson steps at the current design variables, toward
// its own corner's dc-correct bias (each corner has different supplies
// and thresholds, so each needs its own solve). Quarantined corners are
// skipped — their sections are annealing ballast, not worth a solve. A
// lane whose Newton solve fails (really or by injection) is left as it
// was; the move proposes when at least one lane's solve succeeded, and
// otherwise declines, so the annealer falls back to its other classes.
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
// The solves ignore ctx's cancellation. A cancel that cut one short would
// still commit the move (selector feedback, RNG draws, perhaps an
// evaluation) before the annealer noticed the cancel at the top of the
// next move, so a resume from the cancellation checkpoint would start
// from a state the uninterrupted run never reached. Each solve is bounded
// by iters, so ignoring the cancel costs at most a few iterations.
//
// Without a fault injector a proposal depends only on the start vector
// and the lanes' quarantine flags, so the move answers a repeat of its
// previous proposal's, bit for bit, from a memo instead of solving
// again: a run of declined moves leaves the start vector as it was. A
// fault hook draws from the injector on every solve, so with one
// attached every proposal solves. The memo is not checkpointed; a
// resumed run solves its first proposal, which gives the same bits.
func newtonMove(ctx context.Context, p *problem, label string, iters int) anneal.Move {
	cs := p.cs
	// The move closure owns its solver scratch: steady-state annealing
	// performs one solve per lane and proposal, and the workspace makes
	// the whole proposal allocation-free. Moves run one at a time on the
	// annealer goroutine, so the capture is safe.
	var (
		work     dcsolve.Workspace
		vbuf     []float64
		nomNodes []float64
		lbuf     [][]float64 = make([][]float64, cs.K())
		memo     proposalMemo
	)
	useMemo := p.inj == nil
	solveCtx := context.WithoutCancel(ctx)
	return &anneal.FuncMove{
		Label: label,
		Fn: func(cur, next []float64, rng *rand.Rand) bool {
			p.counts[astrx.NewtonProposals]++
			if useMemo {
				if ok, hit := memo.answer(cur, next, p.lanes); hit {
					p.counts[astrx.NewtonProposalsReused]++
					return ok
				}
			}
			any := false
			nomNodes = nomNodes[:0]
			for i := 0; i < cs.K(); i++ {
				if i > 0 && p.lanes[i].quarantined {
					continue
				}
				lbuf[i] = cs.LaneX(i, cur, lbuf[i])
				lx := lbuf[i]
				c := cs.Lane(i)
				if i > 0 && iters > 1 && len(nomNodes) == cs.NFree {
					copy(lx[c.NUser:], nomNodes)
				}
				dp := p.bw.Lane(i).DCProblem(lx)
				if dp.N() == 0 {
					continue
				}
				vbuf = append(vbuf[:0], lx[c.NUser:]...)
				if iters <= 1 {
					stepped, err := dcsolve.Step(dp, vbuf, dcsolve.Options{FailHook: p.inj.NewtonHook(), Work: &work})
					if err != nil {
						continue
					}
					copy(lx[c.NUser:], stepped)
				} else {
					r, _ := dcsolve.Solve(solveCtx, dp, vbuf, dcsolve.Options{
						MaxIter: iters, BestEffort: true, FailHook: p.inj.NewtonHook(), Work: &work,
					})
					if r == nil {
						continue
					}
					// A one-lane set declines a full solve that lands on its
					// start point (already dc-correct); a cornered set
					// proposes it and leaves the no-op to the annealer. The
					// main loop treats the two alike, but calibrateT0
					// evaluates a proposed no-op as a zero delta, so each
					// rule keeps its runs' trajectories. ROADMAP item 1's
					// re-baseline is where one rule gets picked.
					if cs.K() == 1 && sameValues(r.V, vbuf) {
						continue
					}
					copy(lx[c.NUser:], r.V)
				}
				cs.StoreLaneNodes(i, lx, next)
				if i == 0 {
					nomNodes = append(nomNodes[:0], lx[cs.NUser:cs.NUser+cs.NFree]...)
				}
				any = true
			}
			if useMemo {
				memo.store(cur, next, p.lanes, any)
			}
			return any
		},
	}
}

// proposalMemo is a Newton move's previous proposal: its start vector
// (empty before the first) and the lanes' quarantine flags, and the
// verdict and proposed vector they gave.
type proposalMemo struct {
	start []float64
	quar  []bool // quar[i]: lane i was quarantined
	ok    bool
	next  []float64
}

// answer copies the previous proposal into next and returns its verdict
// when cur and the lanes' quarantine flags repeat its inputs bit for
// bit; hit reports whether they did.
func (m *proposalMemo) answer(cur, next []float64, lanes []cornerLane) (ok, hit bool) {
	if len(cur) != len(m.start) {
		return false, false
	}
	for i, l := range lanes {
		if l.quarantined != m.quar[i] {
			return false, false
		}
	}
	for i, v := range cur {
		if math.Float64bits(v) != math.Float64bits(m.start[i]) {
			return false, false
		}
	}
	copy(next, m.next)
	return m.ok, true
}

// store records a proposal from cur under the lanes' quarantine flags.
func (m *proposalMemo) store(cur, next []float64, lanes []cornerLane, ok bool) {
	m.start = append(m.start[:0], cur...)
	m.next = append(m.next[:0], next...)
	m.quar = m.quar[:0]
	for _, l := range lanes {
		m.quar = append(m.quar, l.quarantined)
	}
	m.ok = ok
}

// sameValues reports whether a and b hold equal values, element by
// element.
func sameValues(a, b []float64) bool {
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// polishLanes runs the final full Newton polish on every live lane's
// node-voltage section (see polishDC). It returns the polished master
// vector, whether every live lane converged, and the per-lane verdict
// (quarantined lanes report false — their bias was never polished).
func polishLanes(ctx context.Context, p *problem, x []float64) ([]float64, bool, []bool) {
	cs := p.cs
	out := append([]float64(nil), x...)
	laneDC := make([]bool, cs.K())
	allOK := true
	for i := 0; i < cs.K(); i++ {
		if i > 0 && p.lanes[i].quarantined {
			continue
		}
		lx := cs.LaneX(i, out, nil)
		ok := polishDC(ctx, p.bw.Lane(i), p.inj, lx, cs.NUser)
		laneDC[i] = ok
		if ok {
			cs.StoreLaneNodes(i, lx, out)
		} else {
			allOK = false
		}
	}
	return out, allOK, laneDC
}

// polishDC runs a full Newton solve of the node voltages of one lane's
// vector x (those after its nu user variables) on the lane's workspace
// ws. A finished design must be dc-correct within simulator
// tolerances — the paper's formulation guarantees the predicted
// performance only at a KCL-consistent point — so a converged Newton
// bias is kept even when the (penalty-weighted) cost rises slightly:
// reporting performance at a dc-inconsistent point would be fiction.
// polishDC writes the solution into x and reports whether the solve
// converged; on solver failure x is left unchanged.
func polishDC(ctx context.Context, ws *astrx.EvalWorkspace, inj *faults.Injector, x []float64, nu int) bool {
	dp := ws.DCProblem(x)
	if dp.N() == 0 {
		return true
	}
	v0 := append([]float64(nil), x[nu:]...)
	r, err := dcsolve.Solve(ctx, dp, v0, dcsolve.Options{
		MaxIter: 200, GminSteps: 4, FailHook: inj.NewtonHook(),
	})
	if err != nil {
		return false
	}
	copy(x[nu:], r.V)
	return true
}
