// Package yield implements the paper's declared next step: §VI closes by
// noting that the manual designer of the novel folded cascode "was
// willing to trade nominal performance for better estimated yield and
// performance over varying operating conditions. Adding this ability to
// ASTRX/OBLX is one of our highest priorities for future effort."
//
// This package provides that ability for finished designs:
//
//   - Sensitivities: finite-difference derivatives of every spec with
//     respect to every design variable at the synthesized point — the
//     designer's first-order picture of how fragile the design is.
//   - MonteCarlo: mismatch/yield estimation by re-simulating the design
//     under random per-device threshold and mobility perturbations,
//     reporting per-spec spread and the fraction of samples that still
//     meet every constraint.
//
// Both use the reference-simulation path (true Newton bias solve per
// sample), not the annealer's relaxed-dc shortcut, so the numbers are
// simulator-grade.
package yield

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"astrx/internal/astrx"
	"astrx/internal/dcsolve"
	"astrx/internal/netlist"
)

// Sensitivity is ∂spec/∂var scaled to relative terms.
type Sensitivity struct {
	Spec string
	Var  string
	// Rel is the normalized sensitivity d(spec)/spec ÷ d(var)/var — the
	// percent change in the spec per percent change in the variable.
	Rel float64
}

// Sensitivities computes the relative sensitivity matrix of all specs to
// all user design variables at x, using central differences with a true
// Newton bias re-solve per perturbation. Cancelling ctx aborts between
// points.
func Sensitivities(ctx context.Context, c *astrx.Compiled, x []float64) ([]Sensitivity, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Build the evaluation schedule: the base point, then ±h per user
	// variable.
	pts := make([][]float64, 0, 2*c.NUser+1)
	pts = append(pts, append([]float64(nil), x...))
	hs := make([]float64, c.NUser)
	for vi := 0; vi < c.NUser; vi++ {
		v := c.Vars()[vi]
		h := 0.01 * math.Abs(x[vi])
		if h == 0 {
			h = 0.01 * (v.Max - v.Min)
		}
		hs[vi] = h
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[vi] += h
		xm[vi] -= h
		pts = append(pts, xp, xm)
	}
	label := func(p int) string {
		if p == 0 {
			return "base"
		}
		sign := "+"
		if (p-1)%2 == 1 {
			sign = "-"
		}
		return sign + c.Vars()[(p-1)/2].Name
	}

	vals := make([]map[string]float64, len(pts))
	for p, pt := range pts {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("yield: %w", err)
		}
		v, err := simulateAt(ctx, c, pt)
		if err != nil {
			return nil, fmt.Errorf("yield: %s: %w", label(p), err)
		}
		vals[p] = v
	}
	base := vals[0]

	var out []Sensitivity
	for vi := 0; vi < c.NUser; vi++ {
		v := c.Vars()[vi]
		up, dn := vals[1+2*vi], vals[2+2*vi]
		for _, s := range c.Deck.Specs {
			b := base[s.Name]
			if b == 0 || math.IsNaN(b) {
				continue
			}
			d := (up[s.Name] - dn[s.Name]) / (2 * hs[vi])
			out = append(out, Sensitivity{
				Spec: s.Name,
				Var:  v.Name,
				Rel:  d * x[vi] / b,
			})
		}
	}
	return out, nil
}

// TopSensitivities returns the n largest-magnitude entries.
func TopSensitivities(ss []Sensitivity, n int) []Sensitivity {
	out := append([]Sensitivity(nil), ss...)
	sort.Slice(out, func(i, j int) bool {
		return math.Abs(out[i].Rel) > math.Abs(out[j].Rel)
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// simulateAt evaluates all specs at a true (Newton-solved) bias point.
func simulateAt(ctx context.Context, c *astrx.Compiled, x []float64) (map[string]float64, error) {
	xr := append([]float64(nil), x...)
	ws := c.NewWorkspace()
	dp := ws.DCProblem(xr)
	if dp.N() > 0 {
		v0 := append([]float64(nil), xr[c.NUser:]...)
		r, err := dcsolve.Solve(ctx, dp, v0, dcsolve.Options{MaxIter: 250, GminSteps: 5})
		if err != nil {
			return nil, err
		}
		copy(xr[c.NUser:], r.V)
	}
	st := ws.Evaluate(xr)
	if st.Err != nil {
		return nil, st.Err
	}
	out := make(map[string]float64, len(st.SpecVals))
	for k, v := range st.SpecVals {
		out[k] = v
	}
	return out, nil
}

// MismatchModel describes the random per-device process variation
// applied in a Monte Carlo sample.
type MismatchModel struct {
	// VthSigma is the 1σ threshold shift in volts (default 15 mV).
	VthSigma float64
	// BetaSigma is the 1σ relative current-factor variation (default 2%).
	BetaSigma float64
}

func (m *MismatchModel) defaults() {
	if m.VthSigma == 0 {
		m.VthSigma = 0.015
	}
	if m.BetaSigma == 0 {
		m.BetaSigma = 0.02
	}
}

// SpecStats summarizes one spec over the Monte Carlo samples.
type SpecStats struct {
	Spec       string
	Mean, Std  float64
	Min, Max   float64
	FailCount  int // samples where the constraint is violated
	Objective  bool
	Good, Bad  float64
	SampleSize int
}

// MCResult is a Monte Carlo run summary.
type MCResult struct {
	Samples int
	// Yield is the fraction of samples meeting every constraint spec.
	Yield float64
	Specs []SpecStats
	// Failed counts samples whose bias solve or evaluation failed
	// outright (these also count against yield).
	Failed int
}

// MonteCarlo estimates mismatch yield: n samples of per-device Vth/beta
// perturbations, each re-simulated at a true bias point. The perturbation
// mechanism uses the deck-level model cards (vto and u0/kp shifts applied
// per *instance* via cloned models), which keeps the encapsulated
// evaluators untouched — variation enters exactly where a foundry's
// statistical models would.
func MonteCarlo(ctx context.Context, deckSrc string, x []float64, n int, mm MismatchModel, seed int64) (*MCResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mm.defaults()
	if n <= 0 {
		n = 50
	}
	rng := rand.New(rand.NewSource(seed))

	baseDeck, err := netlist.Parse(deckSrc)
	if err != nil {
		return nil, err
	}
	baseComp, err := astrx.Compile(baseDeck, astrx.CostOptions{})
	if err != nil {
		return nil, err
	}
	if len(x) < baseComp.NUser {
		return nil, fmt.Errorf("yield: x has %d values, need ≥ %d user variables", len(x), baseComp.NUser)
	}

	type sampleResult struct {
		specs map[string]float64
		ok    bool
	}
	results := make([]sampleResult, 0, n)

	for s := 0; s < n; s++ {
		if ctx.Err() != nil {
			// Cancellation degrades gracefully: the estimate is built from
			// the samples already simulated instead of being thrown away.
			break
		}
		// Clone the deck's model cards with per-sample global shifts plus
		// per-device mismatch folded into a per-sample process tilt.
		// (True per-instance mismatch would need one model per device;
		// we approximate with a global lot shift plus a smaller random
		// component per device family, which captures the yield picture
		// the paper's future-work note is after.)
		deck, err := netlist.Parse(deckSrc)
		if err != nil {
			return nil, err
		}
		lot := rng.NormFloat64()
		// Draw in model-name order: ranging over the map would hand the
		// same draws to different cards from call to call.
		names := make([]string, 0, len(deck.Models))
		for name := range deck.Models {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			mcard := deck.Models[name]
			switch mcard.Type {
			case "nmos", "pmos":
				dv := mm.VthSigma * (lot + 0.5*rng.NormFloat64())
				db := 1 + mm.BetaSigma*(lot+0.5*rng.NormFloat64())
				if db < 0.5 {
					db = 0.5
				}
				p := cloneParams(mcard.Params)
				p["vto"] = mcard.P("vto", 0.8) + dv
				if u0 := mcard.P("u0", 0); u0 != 0 {
					p["u0"] = u0 * db
				}
				if kp := mcard.P("kp", 0); kp != 0 {
					p["kp"] = kp * db
				}
				mcard.Params = p
			case "npn", "pnp":
				p := cloneParams(mcard.Params)
				p["is"] = mcard.P("is", 1e-16) * (1 + 0.1*rng.NormFloat64())
				mcard.Params = p
			}
		}
		comp, err := astrx.Compile(deck, astrx.CostOptions{})
		if err != nil {
			return nil, err
		}
		xs := make([]float64, len(comp.Vars()))
		copy(xs, x[:comp.NUser])
		if len(x) == len(comp.Vars()) {
			copy(xs[comp.NUser:], x[comp.NUser:])
		}
		specs, err := simulateAt(ctx, comp, xs)
		results = append(results, sampleResult{specs: specs, ok: err == nil})
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("yield: no samples completed: %w", ctx.Err())
	}
	// Aggregate over the samples that actually ran.
	n = len(results)
	res := &MCResult{Samples: n}
	acc := map[string][]float64{}
	pass := 0
	for _, r := range results {
		if !r.ok {
			res.Failed++
			continue
		}
		allMet := true
		for _, s := range baseDeck.Specs {
			v := r.specs[s.Name]
			acc[s.Name] = append(acc[s.Name], v)
			if !s.Objective && !s.Met(v) {
				allMet = false
			}
		}
		if allMet {
			pass++
		}
	}
	res.Yield = float64(pass) / float64(n)
	for _, s := range baseDeck.Specs {
		vals := acc[s.Name]
		st := SpecStats{
			Spec: s.Name, Objective: s.Objective, Good: s.Good, Bad: s.Bad,
			SampleSize: len(vals), Min: math.Inf(1), Max: math.Inf(-1),
		}
		for _, v := range vals {
			st.Mean += v
			if v < st.Min {
				st.Min = v
			}
			if v > st.Max {
				st.Max = v
			}
			if !s.Objective && !s.Met(v) {
				st.FailCount++
			}
		}
		if len(vals) > 0 {
			st.Mean /= float64(len(vals))
			for _, v := range vals {
				st.Std += (v - st.Mean) * (v - st.Mean)
			}
			st.Std = math.Sqrt(st.Std / float64(len(vals)))
		}
		res.Specs = append(res.Specs, st)
	}
	return res, nil
}

func cloneParams(p map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}
