// Package devices implements the paper's "encapsulated device
// evaluators": compiled-in, SPICE-class device models that convert a
// device's geometry and terminal voltages into (a) large-signal terminal
// currents for the relaxed-dc KCL constraints and (b) a small-signal
// linear model (gm, gds, gmbs, capacitances) for the AWE circuits. All
// aspects of a model are hidden behind the MOSModel/BJTModel interfaces,
// so the synthesis machinery is completely independent of model
// complexity — the property the paper identifies as essential for
// supporting industrial models.
//
// Three MOS models are provided, mirroring the paper: a Level 1
// square-law model, a SPICE Level-3-style semi-empirical short-channel
// model, and a BSIM1-style model; BJTs use a Gummel-Poon model. All
// models are C¹-smooth across region boundaries (EKV-style softplus
// blending into subthreshold), which the annealer's Newton-Raphson moves
// rely on.
package devices

import (
	"math"
)

// Physical constants (SI, 300 K).
const (
	// Vt is the thermal voltage kT/q at 300 K.
	Vt = 0.025852
	// EpsOx is the permittivity of SiO2 (F/m).
	EpsOx = 3.453e-11
	// EpsSi is the permittivity of silicon (F/m).
	EpsSi = 1.0359e-10
	// Q is the elementary charge (C).
	Q = 1.602176e-19
)

// DeviceType distinguishes device polarity.
type DeviceType int

// Device polarities.
const (
	NMOS DeviceType = iota
	PMOS
	NPN
	PNP
)

// String names the device type.
func (d DeviceType) String() string {
	switch d {
	case NMOS:
		return "nmos"
	case PMOS:
		return "pmos"
	case NPN:
		return "npn"
	case PNP:
		return "pnp"
	}
	return "unknown"
}

// Polarity returns +1 for NMOS/NPN and -1 for PMOS/PNP.
func (d DeviceType) Polarity() float64 {
	if d == PMOS || d == PNP {
		return -1
	}
	return 1
}

// MOSGeom is the instance geometry of a MOSFET.
type MOSGeom struct {
	W, L float64 // drawn width and length (m)
	M    float64 // parallel multiplier (0 → 1)
}

// Mult returns the effective multiplier.
func (g MOSGeom) Mult() float64 {
	if g.M <= 0 {
		return 1
	}
	return g.M
}

// MOSBias holds device-polarity-normalized bias voltages (i.e. already
// multiplied by the type polarity and source/drain swapped so Vds >= 0 in
// the normal regime).
type MOSBias struct {
	Vgs, Vds, Vbs float64
}

// MOSCore is the polarity-normalized evaluation result of a MOS model's
// DC equations: the drain current and the quantities needed to derive
// charge storage.
type MOSCore struct {
	Ids   float64 // drain-source channel current (A), >= 0 in normal use
	Vth   float64 // threshold voltage (V)
	Vdsat float64 // saturation voltage (V)
}

// MOSModel is one encapsulated MOS evaluator. Core must be smooth in all
// three bias voltages; small-signal conductances are derived from it by
// the shared wrapper via finite differences, guaranteeing consistency
// between the large-signal and small-signal views.
type MOSModel interface {
	// ModelName returns the model card name.
	ModelName() string
	// Type returns NMOS or PMOS.
	Type() DeviceType
	// Level returns the SPICE level number (1, 3, or 4 for BSIM-style).
	Level() int
	// Core evaluates the DC equations at a normalized bias.
	Core(b MOSBias, g MOSGeom) MOSCore
	// Caps returns terminal capacitances at a normalized bias.
	Caps(b MOSBias, g MOSGeom, core MOSCore) MOSCaps
	// Series returns the parasitic drain/source series resistances for
	// one instance (Ω); zero values mean no internal node is created.
	Series(g MOSGeom) (rd, rs float64)
}

// MOSCaps collects the five MOS terminal capacitances (F, all >= 0).
type MOSCaps struct {
	Cgs, Cgd, Cgb, Cdb, Csb float64
}

// MOSOp is the full operating-point picture of a MOS instance in
// *terminal* polarity: Ids is the current flowing into the drain terminal
// and out of the source terminal (negative for PMOS in normal operation).
type MOSOp struct {
	// Ids is the signed drain terminal current (A).
	Ids float64
	// Gm, Gds, Gmbs are small-signal conductances (S); by construction
	// they are the derivatives of Ids w.r.t. terminal Vgs, Vds, Vbs and
	// are polarity-invariant (positive in normal operation).
	Gm, Gds, Gmbs float64
	// Vth and Vdsat are polarity-normalized (positive) values.
	Vth, Vdsat float64
	// Vgs, Vds, Vbs echo the polarity-normalized bias.
	Vgs, Vds, Vbs float64
	// Caps are the terminal capacitances.
	Caps MOSCaps
	// Region is the operating region.
	Region Region
	// Swapped reports that source and drain were exchanged (Vds < 0 at
	// the terminals) before evaluation; stamping must use the effective
	// terminals.
	Swapped bool
}

// Region is a MOS operating region.
type Region int

// Operating regions.
const (
	RegionCutoff Region = iota
	RegionSubthreshold
	RegionTriode
	RegionSaturation
)

// String names the region.
func (r Region) String() string {
	switch r {
	case RegionCutoff:
		return "cutoff"
	case RegionSubthreshold:
		return "subthreshold"
	case RegionTriode:
		return "triode"
	case RegionSaturation:
		return "saturation"
	}
	return "unknown"
}

// EvalMOS evaluates a MOS model at raw terminal voltages (vd, vg, vs, vb
// relative to ground), handling polarity and source/drain swap, and
// derives the small-signal conductances by central finite differences of
// the model's Core. This is the single entry point the compiler, the
// Newton solver, and the verifier all share.
//
// It is the composition of three parts a caller may also run alone, in
// order: EvalMOSCurrent (one Core call), EvalMOSPartials (six) and
// EvalMOSCaps. A Newton residual reads only the current, so it runs the
// first part; the Jacobian adds the partials at the same point.
func EvalMOS(m MOSModel, g MOSGeom, vd, vg, vs, vb float64) MOSOp {
	op := EvalMOSCurrent(m, g, vd, vg, vs, vb)
	EvalMOSPartials(m, g, &op)
	EvalMOSCaps(m, g, &op)
	return op
}

// EvalMOSCurrent is EvalMOS's current part: it normalizes polarity and
// source/drain order, calls Core once, and fills Ids, Vth, Vdsat, the
// bias echo, Region and Swapped. Gm, Gds, Gmbs and Caps stay zero.
func EvalMOSCurrent(m MOSModel, g MOSGeom, vd, vg, vs, vb float64) MOSOp {
	pol := m.Type().Polarity()
	// Normalize polarity: for PMOS all voltages flip.
	nvd, nvg, nvs, nvb := pol*vd, pol*vg, pol*vs, pol*vb
	swapped := false
	if nvd < nvs {
		nvd, nvs = nvs, nvd
		swapped = true
	}
	b := MOSBias{Vgs: nvg - nvs, Vds: nvd - nvs, Vbs: nvb - nvs}

	core := m.Core(b, g)

	op := MOSOp{
		Ids:     pol * core.Ids,
		Vth:     core.Vth,
		Vdsat:   core.Vdsat,
		Vgs:     b.Vgs,
		Vds:     b.Vds,
		Vbs:     b.Vbs,
		Swapped: swapped,
	}
	if swapped {
		// Terminal current direction flips with the effective terminals.
		op.Ids = -op.Ids
	}
	op.Region = classify(b, core)
	return op
}

// EvalMOSPartials is EvalMOS's partials part: it sets op.Gm, op.Gds and
// op.Gmbs by central differences of Core around the bias op echoes. op
// must come from EvalMOSCurrent with the same model and geometry.
func EvalMOSPartials(m MOSModel, g MOSGeom, op *MOSOp) {
	b := op.bias()
	// Central differences; steps sized for volt-scale signals.
	const dv = 1e-5
	dIds := func(db MOSBias) float64 { return m.Core(db, g).Ids }
	op.Gm = (dIds(MOSBias{b.Vgs + dv, b.Vds, b.Vbs}) - dIds(MOSBias{b.Vgs - dv, b.Vds, b.Vbs})) / (2 * dv)
	op.Gds = (dIds(MOSBias{b.Vgs, b.Vds + dv, b.Vbs}) - dIds(MOSBias{b.Vgs, b.Vds - dv, b.Vbs})) / (2 * dv)
	op.Gmbs = (dIds(MOSBias{b.Vgs, b.Vds, b.Vbs + dv}) - dIds(MOSBias{b.Vgs, b.Vds, b.Vbs - dv})) / (2 * dv)
}

// EvalMOSCaps is EvalMOS's caps part: it sets op.Caps from the model's
// Caps at the bias op echoes. op must come from EvalMOSCurrent with the
// same model and geometry; Caps receives the Core result that call
// produced (undoing the terminal sign flips is exact).
func EvalMOSCaps(m MOSModel, g MOSGeom, op *MOSOp) {
	ids := op.Ids
	if op.Swapped {
		ids = -ids
	}
	core := MOSCore{Ids: m.Type().Polarity() * ids, Vth: op.Vth, Vdsat: op.Vdsat}
	op.Caps = m.Caps(op.bias(), g, core)
}

// bias returns the polarity-normalized bias the operating point echoes.
func (op *MOSOp) bias() MOSBias {
	return MOSBias{Vgs: op.Vgs, Vds: op.Vds, Vbs: op.Vbs}
}

func classify(b MOSBias, core MOSCore) Region {
	vov := b.Vgs - core.Vth
	switch {
	case vov < -6*Vt:
		return RegionCutoff
	case vov < 0:
		return RegionSubthreshold
	case b.Vds >= core.Vdsat:
		return RegionSaturation
	default:
		return RegionTriode
	}
}

// ---------------------------------------------------------------------------
// Shared numeric helpers for the model implementations.

// softplus2 is the EKV-style smoothing 2nvt·ln(1+exp(x/(2nvt))): it tends
// to x for x ≫ 0 and to 2nvt·exp(x/(2nvt)) below threshold, making the
// square-law current C∞-smooth with an exponential subthreshold tail.
func softplus2(x, nvt float64) float64 {
	t := 2 * nvt
	a := x / t
	if a > 40 {
		return x
	}
	if a < -40 {
		return t * math.Exp(-40) // effectively zero but nonzero-smooth
	}
	return t * math.Log1p(math.Exp(a))
}

// sqrtPos is a smooth version of sqrt(max(x, eps)).
func sqrtPos(x, eps float64) float64 {
	return math.Sqrt(0.5 * (x + math.Sqrt(x*x+eps*eps)))
}

// limexp is SPICE's exp with linear continuation above x = 40 to avoid
// overflow while keeping C¹ continuity.
func limexp(x float64) float64 {
	const lim = 40.0
	if x <= lim {
		return math.Exp(x)
	}
	e := math.Exp(lim)
	return e * (1 + (x - lim))
}
