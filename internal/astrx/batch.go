package astrx

import (
	"context"
	"fmt"

	"astrx/internal/awe"
)

// BatchWorkspace evaluates K candidate design vectors against one
// compiled problem at once. Each candidate owns a full EvalWorkspace
// lane, but the jig factorizations and AWE moment recursions of lanes
// whose matrices share the deck's compile-time sparsity skeleton run as
// one SoA batch (awe.BatchEngine): one symbolic structure, K numeric
// replays, one batched triangular solve per moment. Everything outside
// the linear algebra — bias, stamping, Padé fits, spec expressions —
// replays per lane in the scalar order.
//
// Results are bit-identical to evaluating the candidates sequentially
// through EvalWorkspace.CostDetail on fresh workspaces: the adaptive
// cost-weight EMA updates are applied in lane order after all lanes
// have run, which is exactly the sequence of side effects K sequential
// evaluations produce. After warm-up a batch evaluation performs zero
// heap allocations, like the scalar hot path.
type BatchWorkspace struct {
	c *Compiled
	// laneC is the compiled problem behind each lane. For the plain
	// K-candidate batch every entry is c; a corner batch points each
	// lane at its corner's plan (same structure, corner-specific
	// values), so stamping and fitting replay that corner's program
	// while the factorizations still share the SoA batch.
	laneC []*Compiled
	lanes []*EvalWorkspace
	bes   []*awe.BatchEngine
	live  []bool
	mus   [][]float64
}

// NewBatchWorkspace allocates a K-lane batch evaluator for this
// compiled problem. K must be at least 1.
func (c *Compiled) NewBatchWorkspace(k int) *BatchWorkspace {
	if k < 1 {
		panic(fmt.Sprintf("astrx: NewBatchWorkspace: k = %d", k))
	}
	cs := make([]*Compiled, k)
	for i := range cs {
		cs[i] = c
	}
	return newBatch(c, cs)
}

// NewCornerBatch builds a K-lane batch evaluator with one lane per
// corner-set lane (nominal first). Lanes share the nominal plan's
// sparsity skeleton; the batch engine verifies each lane's runtime
// pattern, so a corner that drifts structurally just falls back to its
// scalar factorization instead of corrupting the batch.
func (set *CornerSet) NewCornerBatch() *BatchWorkspace {
	cs := make([]*Compiled, set.K())
	for i := range cs {
		cs[i] = set.Lane(i)
	}
	nom := set.Nominal
	for i, c := range cs[1:] {
		if len(c.plan.jigs) != len(nom.plan.jigs) {
			panic(fmt.Sprintf("astrx: corner %s: %d jigs, nominal has %d",
				set.Names[i], len(c.plan.jigs), len(nom.plan.jigs)))
		}
		for j := range c.plan.jigs {
			if len(c.plan.jigs[j].tfs) != len(nom.plan.jigs[j].tfs) ||
				c.plan.jigs[j].size != nom.plan.jigs[j].size {
				panic(fmt.Sprintf("astrx: corner %s: jig %s shape differs from nominal",
					set.Names[i], c.plan.jigs[j].name))
			}
		}
	}
	return newBatch(nom, cs)
}

func newBatch(c *Compiled, laneC []*Compiled) *BatchWorkspace {
	k := len(laneC)
	p := c.plan
	bw := &BatchWorkspace{
		c:     c,
		laneC: laneC,
		lanes: make([]*EvalWorkspace, k),
		bes:   make([]*awe.BatchEngine, len(p.jigs)),
		live:  make([]bool, k),
		mus:   make([][]float64, k),
	}
	for i := range bw.lanes {
		bw.lanes[i] = laneC[i].NewWorkspace()
	}
	for j := range p.jigs {
		engs := make([]*awe.Engine, k)
		for i := range bw.lanes {
			engs[i] = &bw.lanes[i].jigs[j].eng
		}
		bw.bes[j] = awe.NewBatchEngine(p.jigs[j].sym, engs)
	}
	return bw
}

// K returns the number of candidate lanes.
func (bw *BatchWorkspace) K() int { return len(bw.lanes) }

// Lane exposes lane i's workspace for post-evaluation inspection
// (State, Err, UnstableCount). Its contents are valid until the next
// CostsInto call.
func (bw *BatchWorkspace) Lane(i int) *EvalWorkspace { return bw.lanes[i] }

// Batched reports whether lane's factorization for jig j ran in the SoA
// batch during the last CostsInto (false means the lane fell back to
// its scalar engine: pattern mismatch, tripped pivot guard, or a dead
// lane). Exposed for telemetry and tests.
func (bw *BatchWorkspace) Batched(j, lane int) bool { return bw.bes[j].InBatch(lane) }

// Jigs returns the number of small-signal jigs in the compiled plan.
func (bw *BatchWorkspace) Jigs() int { return len(bw.bes) }

// CostsInto evaluates the candidates xs (len(xs) ≤ K) and writes each
// total cost into dst[:len(xs)]. Failed candidates cost Opt.FailCost,
// as in the scalar path; per-lane detail is available via Lane(i).Err.
func (bw *BatchWorkspace) CostsInto(dst []float64, xs [][]float64) {
	bw.Run(xs)
	// Cost in lane order so the adaptive-weight EMA sees the identical
	// update sequence as len(xs) sequential evaluations.
	for i := range xs {
		dst[i] = bw.lanes[i].costFromRun().Total
	}
}

// RerunLane re-evaluates lane i alone through its compiled plan's
// scalar path (bias → jigs → specs), overwriting the lane's state from
// the last batch run. The per-corner retry policy uses it: a lane whose
// batched evaluation failed gets one sequential re-attempt before the
// failure is charged to its corner.
func (bw *BatchWorkspace) RerunLane(i int, x []float64) error {
	ws := bw.lanes[i]
	ws.run(x, true)
	return ws.err
}

// Run evaluates the candidates xs (len(xs) ≤ K) without computing costs
// or touching the compiled problem's adaptive-weight statistics — the
// batch analogue of EvalWorkspace.Evaluate. A nil xs[i] skips lane i for
// this call (its Err reports the skip) — how corner batches avoid
// paying for quarantined corners. Per-lane results are read via
// Lane(i).State and Lane(i).Err.
func (bw *BatchWorkspace) Run(xs [][]float64) {
	bw.runCtx(nil, xs) //nolint:errcheck // nil ctx never cancels
}

// RunCtx is Run with cooperative cancellation: the context is checked
// between pipeline stages (cheap — never inside the linear-algebra
// inner loops), and on cancellation every lane still pending is marked
// failed with the context's error and RunCtx returns it promptly.
// Already-completed stages are untouched and the workspace remains
// fully reusable: the next Run starts from a clean slate, with lane
// death semantics identical to an uncancelled call.
func (bw *BatchWorkspace) RunCtx(ctx context.Context, xs [][]float64) error {
	return bw.runCtx(ctx, xs)
}

func (bw *BatchWorkspace) runCtx(ctx context.Context, xs [][]float64) error {
	k := len(xs)
	if k > len(bw.lanes) {
		panic(fmt.Sprintf("astrx: batch: %d candidates > %d lanes", k, len(bw.lanes)))
	}
	// live stays full-length: lanes beyond len(xs) are dead this call.
	live := bw.live
	for i := range live {
		live[i] = false
	}
	cancelled := func() error {
		if ctx == nil {
			return nil
		}
		if err := ctx.Err(); err != nil {
			for i := 0; i < k; i++ {
				if live[i] {
					bw.lanes[i].err = fmt.Errorf("astrx: batch cancelled: %w", err)
					live[i] = false
				}
			}
			return err
		}
		return nil
	}
	if err := cancelled(); err != nil {
		// Even lanes that never started report the cancellation, so a
		// caller reading Lane(i).Err cannot mistake stale results for
		// this call's.
		for i := 0; i < k; i++ {
			bw.lanes[i].err = fmt.Errorf("astrx: batch cancelled: %w", ctx.Err())
		}
		return err
	}

	// Bias prefix per lane: node voltages, device operating points, KCL.
	for i := 0; i < k; i++ {
		ws := bw.lanes[i]
		if xs[i] == nil {
			ws.err = fmt.Errorf("astrx: batch lane %d skipped", i)
			continue
		}
		ws.run(xs[i], false)
		live[i] = ws.err == nil
	}

	// Jigs: stamp per lane, factor as a batch, advance every transfer
	// function's moment recursion in lockstep, fit per lane. A lane that
	// fails is dead for all remaining work, exactly like the scalar
	// evaluator's early return. Corner batches stamp and fit each lane
	// through its own corner's plan; the reference (nominal) plan drives
	// the shared structure.
	p := bw.c.plan
	for j := range p.jigs {
		if err := cancelled(); err != nil {
			return err
		}
		jp := p.jigs[j]
		be := bw.bes[j]
		for i := 0; i < k; i++ {
			if !live[i] {
				continue
			}
			ws := bw.lanes[i]
			if err := ws.stampJig(bw.laneC[i].plan.jigs[j], &ws.jigs[j]); err != nil {
				ws.err = err
				live[i] = false
			}
		}
		be.RefactorAll(live)
		for i, err := range be.Errs()[:k] {
			if live[i] && err != nil {
				bw.lanes[i].err = fmt.Errorf("astrx: jig %s: %w", jp.name, err)
				live[i] = false
			}
		}
		for t := range jp.tfs {
			tp := &jp.tfs[t]
			for i := 0; i < k; i++ {
				if tpl := &bw.laneC[i].plan.jigs[j].tfs[t]; live[i] && tpl.err != nil {
					bw.lanes[i].err = fmt.Errorf("astrx: jig %s tf %s: %w", jp.name, tpl.name, tpl.err)
					live[i] = false
				}
			}
			for i := range bw.mus {
				bw.mus[i] = nil
				if live[i] {
					bw.mus[i] = bw.lanes[i].jigs[j].mu[:2*tp.q]
				}
			}
			be.MomentsAll(live, bw.mus, tp.b, tp.ip, tp.in)
			for i := 0; i < k; i++ {
				if live[i] {
					bw.lanes[i].fitTF(&bw.laneC[i].plan.jigs[j].tfs[t], bw.mus[i])
				}
			}
		}
	}
	if err := cancelled(); err != nil {
		return err
	}

	// Specs per lane.
	for i := 0; i < k; i++ {
		if live[i] {
			bw.lanes[i].evalSpecs()
		}
	}
	return nil
}
