// Package verify is the reference "detailed simulation" of a finished
// design: a true Newton-Raphson operating-point solve followed by direct
// complex AC sweeps of every test jig. It produces the "/ Simulation"
// columns of the paper's Tables 2 and 3. Because it shares the
// encapsulated device evaluators with OBLX, any discrepancy between
// prediction and simulation isolates the AWE reduced-order model and the
// residual relaxed-dc error — exactly the comparison the paper makes
// (its own residual differences were attributed to HSPICE-vs-SPICE3
// model mismatches, which this design removes; see DESIGN.md §4).
package verify

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"astrx/internal/acsim"
	"astrx/internal/astrx"
	"astrx/internal/dcsolve"
	"astrx/internal/expr"
	"astrx/internal/mna"
	"astrx/internal/netlist"
)

// SpecResult compares OBLX's prediction with the reference simulation
// for one specification.
type SpecResult struct {
	Name      string  `json:"name"`
	Objective bool    `json:"objective"`
	Good      float64 `json:"good"`
	Bad       float64 `json:"bad"`
	Predicted float64 `json:"predicted"` // OBLX / AWE value at the synthesized point
	Simulated float64 `json:"simulated"` // Newton bias + AC sweep value
	// RelErr is |Predicted - Simulated| / max(|Simulated|, tiny).
	RelErr float64 `json:"rel_err"`
	// Met reports whether the *simulated* value satisfies the spec
	// (objectives count as met when they reach Good).
	Met bool `json:"met"`
}

// Report is a full verification of a synthesized design.
type Report struct {
	Specs []SpecResult
	// BiasIterations is the Newton iteration count of the reference
	// bias solve.
	BiasIterations int
	// BiasConverged reports whether the reference Newton solve reached
	// simulator tolerances; when false the report is computed at the
	// best-effort point and MaxKCL shows the residual honestly.
	BiasConverged bool
	// MaxKCL is the absolute residual after the reference solve (A).
	MaxKCL float64
	// WorstRelErr is the largest prediction error across specs.
	WorstRelErr float64
	// State is the evaluated state at the simulator-grade bias point.
	State *astrx.EvalState
}

// Spec returns the named row or nil.
func (r *Report) Spec(name string) *SpecResult {
	for i := range r.Specs {
		if r.Specs[i].Name == name {
			return &r.Specs[i]
		}
	}
	return nil
}

// Design verifies a synthesized design: x is the full OBLX variable
// vector (user variables + relaxed-dc node voltages); predicted are
// OBLX's spec values at that point.
func Design(c *astrx.Compiled, x []float64, predicted map[string]float64) (*Report, error) {
	// A worst-case (cornered) run hands back the master vector
	// [user vars][nominal nodes][corner nodes...]; verification targets
	// the nominal lane, which is exactly this plan's variable prefix.
	if n := len(c.Vars()); len(x) > n {
		x = x[:n]
	}
	// 1. Reference bias: full Newton from OBLX's node voltages.
	dp := c.DCProblem(x)
	xref := append([]float64(nil), x...)
	iters := 0
	converged := true
	if dp.N() > 0 {
		v0 := append([]float64(nil), x[c.NUser:]...)
		// Verification is short and runs after synthesis, often to salvage
		// a cancelled run's best-so-far — so it deliberately does not
		// inherit the (possibly already-cancelled) synthesis context.
		r, err := dcsolve.Solve(context.Background(), dp, v0,
			dcsolve.Options{MaxIter: 300, GminSteps: 6, BestEffort: true})
		if r == nil {
			return nil, fmt.Errorf("verify: reference bias solve failed: %w", err)
		}
		converged = err == nil
		copy(xref[c.NUser:], r.V)
		iters = r.Iterations
	}
	ws := c.NewWorkspace()
	st := ws.Evaluate(xref)
	if st.Err != nil {
		return nil, fmt.Errorf("verify: %w", st.Err)
	}
	maxKCL := 0.0
	for _, r := range st.KCL {
		if a := math.Abs(r); a > maxKCL {
			maxKCL = a
		}
	}

	// 2. AC analyzers per transfer function.
	backend, err := newACBackend(st)
	if err != nil {
		return nil, err
	}

	// 3. Re-measure every spec against the simulator.
	rep := &Report{BiasIterations: iters, BiasConverged: converged, MaxKCL: maxKCL, State: st}
	for _, s := range c.Deck.Specs {
		sim, err := ws.MeasureSpec(s.Expr, backend)
		if err != nil {
			return nil, fmt.Errorf("verify: spec %s: %w", s.Name, err)
		}
		pred := predicted[s.Name]
		rel := math.Abs(pred-sim) / math.Max(math.Abs(sim), 1e-12)
		met := sim >= s.Good
		if !s.Maximize() {
			met = sim <= s.Good
		}
		rep.Specs = append(rep.Specs, SpecResult{
			Name: s.Name, Objective: s.Objective,
			Good: s.Good, Bad: s.Bad,
			Predicted: pred, Simulated: sim, RelErr: rel, Met: met,
		})
		if rel > rep.WorstRelErr {
			rep.WorstRelErr = rel
		}
	}
	return rep, nil
}

// acBackend measures transfer-function quantities with direct AC solves.
type acBackend struct {
	an  map[string]*acsim.Analyzer // per tf name
	req map[string]*netlist.TFReq
	st  *astrx.EvalState
}

func newACBackend(st *astrx.EvalState) (*acBackend, error) {
	b := &acBackend{
		an:  make(map[string]*acsim.Analyzer),
		req: make(map[string]*netlist.TFReq),
		st:  st,
	}
	for _, j := range st.C.Jigs {
		nl, jc, err := st.JigNetlist(j.Name)
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		sys, err := mna.Build(nl, expr.MapEnv(st.Vals))
		if err != nil {
			return nil, fmt.Errorf("verify: jig %s: %w", j.Name, err)
		}
		an := acsim.NewAnalyzer(sys)
		for _, req := range jc.TFs {
			b.an[req.Name] = an
			b.req[req.Name] = req
		}
	}
	return b, nil
}

// sweepRange picks the interesting frequency window from the AWE model's
// pole/zero set (the simulator needs bounds; the reduced model knows the
// circuit's time constants).
func (b *acBackend) sweepRange(tfName string) (lo, hi float64) {
	lo, hi = 1.0, 1e12
	tf := b.st.TFs[tfName]
	if tf == nil || tf.Order == 0 {
		return lo, hi
	}
	minMag, maxMag := math.Inf(1), 0.0
	for _, p := range tf.Poles {
		m := cmplx.Abs(p)
		if m > 0 && m < minMag {
			minMag = m
		}
		if m > maxMag {
			maxMag = m
		}
	}
	if !math.IsInf(minMag, 1) {
		lo = minMag / 1e3
		hi = maxMag * 1e3
	}
	if lo < 1e-2 {
		lo = 1e-2
	}
	return lo, hi
}

// Measure implements astrx.TFBackend with exact AC analysis. Pole/zero
// queries stay on the AWE backend (an AC sweep has no direct pole view).
func (b *acBackend) Measure(fn, tfName string, extra []expr.Arg) (float64, bool, error) {
	an, ok := b.an[tfName]
	if !ok {
		return 0, false, fmt.Errorf("verify: unknown transfer function %q", tfName)
	}
	req := b.req[tfName]
	lo, hi := b.sweepRange(tfName)
	switch fn {
	case "dc_gain":
		h, err := an.TransferAt(req.Src, req.OutPos, req.OutNeg, lo/100)
		if err != nil {
			return 0, false, err
		}
		return real(h), true, nil
	case "ugf":
		w, err := an.UGF(req.Src, req.OutPos, req.OutNeg, lo, hi)
		if err != nil {
			return 0, false, err
		}
		return w / (2 * math.Pi), true, nil
	case "phase_margin":
		pm, err := an.PhaseMarginDeg(req.Src, req.OutPos, req.OutNeg, lo, hi)
		if err != nil {
			return 0, false, err
		}
		return pm, true, nil
	case "bw3db":
		w, err := b.bw3db(an, req, lo, hi)
		if err != nil {
			return 0, false, err
		}
		return w / (2 * math.Pi), true, nil
	case "gain_at":
		if len(extra) != 1 {
			return 0, false, fmt.Errorf("verify: gain_at needs a frequency")
		}
		h, err := an.TransferAt(req.Src, req.OutPos, req.OutNeg, 2*math.Pi*extra[0].Value)
		if err != nil {
			return 0, false, err
		}
		return cmplx.Abs(h), true, nil
	case "pole", "zero":
		// Defer to the AWE reduced model: poles are model-space objects.
		return 0, false, nil
	}
	return 0, false, nil
}

// bw3db locates the -3 dB point by log scan + bisection of exact solves.
func (b *acBackend) bw3db(an *acsim.Analyzer, req *netlist.TFReq, lo, hi float64) (float64, error) {
	h0, err := an.TransferAt(req.Src, req.OutPos, req.OutNeg, lo/100)
	if err != nil {
		return 0, err
	}
	target := cmplx.Abs(h0) / math.Sqrt2
	if target == 0 {
		return 0, nil
	}
	const steps = 200
	ratio := math.Pow(hi/lo, 1.0/steps)
	prev := lo
	w := lo
	for i := 0; i < steps; i++ {
		w *= ratio
		h, err := an.TransferAt(req.Src, req.OutPos, req.OutNeg, w)
		if err != nil {
			return 0, err
		}
		if cmplx.Abs(h) <= target {
			a, c := prev, w
			for it := 0; it < 50; it++ {
				mid := math.Sqrt(a * c)
				h, err := an.TransferAt(req.Src, req.OutPos, req.OutNeg, mid)
				if err != nil {
					return 0, err
				}
				if cmplx.Abs(h) > target {
					a = mid
				} else {
					c = mid
				}
			}
			return math.Sqrt(a * c), nil
		}
		prev = w
	}
	return 0, nil
}

// SortedSpecNames returns spec names of a report in declaration order of
// the deck (already the case) — helper for deterministic printing.
func (r *Report) SortedSpecNames() []string {
	names := make([]string, len(r.Specs))
	for i, s := range r.Specs {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}
