// Package eqbase is the equation-based prior-approach stand-in used by
// experiment E5 (Fig. 3): a miniature OASYS/OPASYN-style synthesis
// procedure for the Simple OTA built from hand-derived square-law design
// equations. It embodies the workflow the paper argues against — the
// equations below took "designer effort" to derive and are only as
// accurate as the square-law model, so their performance predictions
// diverge from detailed simulation on a short-channel process. The
// divergence, measured against the same reference simulator used to
// verify OBLX results, reproduces the left-hand cluster of Fig. 3.
package eqbase

import (
	"fmt"
	"math"

	"astrx/internal/astrx"
	"astrx/internal/bench"
	"astrx/internal/devices"
	"astrx/internal/netlist"
	"astrx/internal/verify"
)

// EquationLines is the size of the hand-derived design-equation "library"
// below, in source lines — the preparatory-effort proxy Fig. 3 plots.
// (The paper equates 1000 lines of circuit-specific code to a month of
// designer time; these ~140 lines for ONE fixed topology make the point
// at miniature scale. An industrial equation library covers many corner
// cases and runs to thousands of lines.)
const EquationLines = 140

// Targets are the user's performance targets for the OTA design
// procedure.
type Targets struct {
	GBWHz   float64 // unity-gain bandwidth target (Hz)
	SR      float64 // slew rate (V/s)
	CL      float64 // load capacitance (F)
	VovLoad float64 // chosen load overdrive (V); 0 → 0.3
	L       float64 // channel length to use everywhere; 0 → 4 µm
}

// SquareLawProcess is the designer's simplified view of the process: the
// handful of numbers a textbook flow extracts from the full model deck.
type SquareLawProcess struct {
	KPn, KPp         float64 // µ·Cox (A/V²)
	VTn, VTp         float64 // thresholds (V)
	LambdaN, LambdaP float64 // channel-length modulation (1/V)
	Vdd, Vss         float64
}

// ExtractSquareLaw pulls square-law parameters out of a process
// library's Level-1 cards, the way a designer reads nominal numbers off
// a process summary sheet.
func ExtractSquareLaw(lib string) (SquareLawProcess, error) {
	cards, err := devices.Library(lib)
	if err != nil {
		return SquareLawProcess{}, err
	}
	n, p := cards["nmos1"], cards["pmos1"]
	if n == nil || p == nil {
		return SquareLawProcess{}, fmt.Errorf("eqbase: library %q lacks level-1 cards", lib)
	}
	cox := devices.EpsOx / n.P("tox", 40e-9)
	coxP := devices.EpsOx / p.P("tox", 40e-9)
	return SquareLawProcess{
		KPn:     n.P("u0", 600) * 1e-4 * cox,
		KPp:     p.P("u0", 250) * 1e-4 * coxP,
		VTn:     n.P("vto", 0.8),
		VTp:     p.P("vto", 0.9),
		LambdaN: n.P("lambda", 0.04),
		LambdaP: p.P("lambda", 0.05),
		Vdd:     2.5,
		Vss:     -2.5,
	}, nil
}

// Design is the sized OTA with the equations' performance predictions.
type Design struct {
	// Device sizes and bias (deck variable values).
	W1, L1, W3, L3, W5, L5, Ib float64

	// Performance as the equations predict it.
	PredGainDB float64
	PredGBWHz  float64
	PredPM     float64
	PredSR     float64
	PredPower  float64
	PredSwing  float64
}

// DesignOTA runs the square-law design procedure — the equation core a
// prior-approach tool executes in milliseconds once someone has spent
// the weeks deriving and coding it.
func DesignOTA(t Targets, p SquareLawProcess) (*Design, error) {
	if t.CL <= 0 || t.GBWHz <= 0 || t.SR <= 0 {
		return nil, fmt.Errorf("eqbase: targets must be positive")
	}
	if t.VovLoad == 0 {
		t.VovLoad = 0.3
	}
	if t.L == 0 {
		t.L = 4e-6
	}

	d := &Design{L1: t.L, L3: t.L, L5: t.L}

	// 1. Tail current from the slew-rate requirement: SR = I/CL.
	itail := t.SR * t.CL

	// 2. Input-pair transconductance from GBW: gm1 = 2π·GBW·CL.
	gm1 := 2 * math.Pi * t.GBWHz * t.CL

	// A feasibility nudge a real tool would also make: gm/Id is bounded
	// in strong inversion, so raise the tail current until vov1 ≥ 150 mV.
	if vov := 2 * (itail / 2) / gm1; vov < 0.15 {
		itail = 0.15 * gm1
	}
	id1 := itail / 2

	// 3. Pair sizing from the square law: W/L = gm²/(2·kp·Id).
	wl1 := gm1 * gm1 / (2 * p.KPn * id1)
	d.W1 = wl1 * d.L1

	// 4. Mirror load sized for the chosen overdrive.
	wl3 := itail / (p.KPp * t.VovLoad * t.VovLoad)
	d.W3 = wl3 * d.L3

	// 5. Tail and reference devices at the same overdrive.
	wl5 := 2 * itail / (p.KPn * t.VovLoad * t.VovLoad)
	d.W5 = wl5 * d.L5
	d.Ib = itail

	// 6. Performance prediction — with the classic simplifications:
	// square-law output conductance gds = λ·Id, a single-pole response,
	// and a 90° phase margin by assumption.
	gain := gm1 / ((p.LambdaN + p.LambdaP) * id1)
	d.PredGainDB = 20 * math.Log10(gain)
	d.PredGBWHz = gm1 / (2 * math.Pi * t.CL) // = t.GBWHz by construction
	d.PredPM = 90
	d.PredSR = itail / t.CL
	d.PredPower = (p.Vdd - p.Vss) * 2 * itail
	vov1 := 2 * id1 / gm1
	d.PredSwing = (p.Vdd - p.Vss) - 2*t.VovLoad - vov1

	// Clamp sizes into the deck's variable ranges.
	clamp := func(v, lo, hi float64) float64 {
		return math.Max(lo, math.Min(hi, v))
	}
	d.W1 = clamp(d.W1, 2e-6, 500e-6)
	d.W3 = clamp(d.W3, 2e-6, 500e-6)
	d.W5 = clamp(d.W5, 2e-6, 500e-6)
	d.Ib = clamp(d.Ib, 2e-6, 250e-6)
	return d, nil
}

// Evaluation compares the equations' predictions with the reference
// simulator on the real (Level 3) models.
type Evaluation struct {
	Design *Design
	// Simulated performance of the equation-designed circuit.
	SimGainDB, SimGBWHz, SimPM, SimSR, SimPower, SimSwing float64
	// Errors: |pred - sim| / |sim| per metric, and the worst case —
	// the "prediction error" axis of Fig. 3.
	GainErr, GBWErr, PMErr, SRErr, PowerErr float64
	WorstErr                                float64
}

// Evaluate instantiates the equation-based design into the Simple OTA
// benchmark deck and measures its true performance with the reference
// simulator (Newton bias + AC sweeps on the Level 3 models).
func Evaluate(d *Design) (*Evaluation, error) {
	src := bench.SimpleOTASource("c2u", "nmos3", "pmos3")
	deck, err := netlist.Parse(src)
	if err != nil {
		return nil, err
	}
	comp, err := astrx.Compile(deck, astrx.CostOptions{})
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(comp.Vars()))
	vals := map[string]float64{
		"W1": d.W1, "L1": d.L1, "W3": d.W3, "L3": d.L3,
		"W5": d.W5, "L5": d.L5, "Ib": d.Ib,
	}
	for i, v := range comp.Vars() {
		if i < comp.NUser {
			x[i] = vals[v.Name]
			continue
		}
		x[i] = 0 // node voltages: let the reference Newton solve find them
	}
	st := comp.NewWorkspace().Evaluate(x)
	rep, err := verify.Design(comp, x, st.SpecVals)
	if err != nil {
		return nil, fmt.Errorf("eqbase: reference simulation: %w", err)
	}

	ev := &Evaluation{Design: d}
	get := func(name string) float64 {
		if row := rep.Spec(name); row != nil {
			return row.Simulated
		}
		return math.NaN()
	}
	ev.SimGainDB = get("adm")
	ev.SimGBWHz = get("gbw")
	ev.SimPM = get("pm")
	ev.SimSR = get("sr")
	ev.SimPower = get("pwr")
	ev.SimSwing = get("swing")

	rel := func(pred, sim float64) float64 {
		if sim == 0 || math.IsNaN(sim) {
			return math.NaN()
		}
		return math.Abs(pred-sim) / math.Abs(sim)
	}
	ev.GainErr = rel(d.PredGainDB, ev.SimGainDB) // dB-vs-dB, like Fig. 3
	ev.GBWErr = rel(d.PredGBWHz, ev.SimGBWHz)
	ev.PMErr = rel(d.PredPM, ev.SimPM)
	ev.SRErr = rel(d.PredSR, ev.SimSR)
	ev.PowerErr = rel(d.PredPower, ev.SimPower)
	for _, e := range []float64{ev.GainErr, ev.GBWErr, ev.PMErr, ev.SRErr, ev.PowerErr} {
		if !math.IsNaN(e) && e > ev.WorstErr {
			ev.WorstErr = e
		}
	}
	return ev, nil
}
