package devices

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// refEvalMOS is EvalMOS as it was written before its split into the
// current, partials and caps parts, kept verbatim (with refClassify) as
// the oracle the split must reproduce bit for bit.
func refEvalMOS(m MOSModel, g MOSGeom, vd, vg, vs, vb float64) MOSOp {
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

	// Central differences; steps sized for volt-scale signals.
	const dv = 1e-5
	dIds := func(db MOSBias) float64 { return m.Core(db, g).Ids }
	gm := (dIds(MOSBias{b.Vgs + dv, b.Vds, b.Vbs}) - dIds(MOSBias{b.Vgs - dv, b.Vds, b.Vbs})) / (2 * dv)
	gds := (dIds(MOSBias{b.Vgs, b.Vds + dv, b.Vbs}) - dIds(MOSBias{b.Vgs, b.Vds - dv, b.Vbs})) / (2 * dv)
	gmbs := (dIds(MOSBias{b.Vgs, b.Vds, b.Vbs + dv}) - dIds(MOSBias{b.Vgs, b.Vds, b.Vbs - dv})) / (2 * dv)

	op := MOSOp{
		Ids:     pol * core.Ids,
		Gm:      gm,
		Gds:     gds,
		Gmbs:    gmbs,
		Vth:     core.Vth,
		Vdsat:   core.Vdsat,
		Vgs:     b.Vgs,
		Vds:     b.Vds,
		Vbs:     b.Vbs,
		Caps:    m.Caps(b, g, core),
		Swapped: swapped,
	}
	if swapped {
		// Terminal current direction flips with the effective terminals.
		op.Ids = -op.Ids
	}
	op.Region = refClassify(b, core)
	return op
}

func refClassify(b MOSBias, core MOSCore) Region {
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

// libraryMOSModels builds every MOS model card of the CMOS process
// libraries: Level 1, Level 3 and BSIM, n and p, at both feature sizes.
func libraryMOSModels(tb testing.TB) []MOSModel {
	var out []MOSModel
	for _, proc := range []string{"c2u", "c1.2u"} {
		lib, err := Library(proc)
		if err != nil {
			tb.Fatal(err)
		}
		names := make([]string, 0, len(lib))
		for name := range lib {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			raw, err := FromModel(lib[name])
			if err != nil {
				tb.Fatal(err)
			}
			if mm, ok := raw.(MOSModel); ok {
				out = append(out, mm)
			}
		}
	}
	if len(out) != 12 {
		tb.Fatalf("got %d library MOS models, want 12", len(out))
	}
	return out
}

// mosOpBitsDiff names the first field where a and b differ, comparing
// floats by their bits; "" means identical.
func mosOpBitsDiff(a, b MOSOp) string {
	fa := [...]float64{a.Ids, a.Gm, a.Gds, a.Gmbs, a.Vth, a.Vdsat, a.Vgs, a.Vds, a.Vbs,
		a.Caps.Cgs, a.Caps.Cgd, a.Caps.Cgb, a.Caps.Cdb, a.Caps.Csb}
	fb := [...]float64{b.Ids, b.Gm, b.Gds, b.Gmbs, b.Vth, b.Vdsat, b.Vgs, b.Vds, b.Vbs,
		b.Caps.Cgs, b.Caps.Cgd, b.Caps.Cgb, b.Caps.Cdb, b.Caps.Csb}
	names := [...]string{"Ids", "Gm", "Gds", "Gmbs", "Vth", "Vdsat", "Vgs", "Vds", "Vbs",
		"Cgs", "Cgd", "Cgb", "Cdb", "Csb"}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return fmt.Sprintf("%s: %g (%#x) vs %g (%#x)", names[i],
				fa[i], math.Float64bits(fa[i]), fb[i], math.Float64bits(fb[i]))
		}
	}
	if a.Region != b.Region {
		return fmt.Sprintf("Region: %v vs %v", a.Region, b.Region)
	}
	if a.Swapped != b.Swapped {
		return fmt.Sprintf("Swapped: %v vs %v", a.Swapped, b.Swapped)
	}
	return ""
}

// mosSplitSeeds is the fuzz seed grid (vd, vg, vs, vb, W, L, M). Gate
// voltages step finely through both polarities' thresholds, so every
// library model sees cutoff, subthreshold, triode and saturation; drain
// voltages of both signs swap drain and source for n and p devices; the
// bulk sits at 0 and reverse-biased for either polarity.
func mosSplitSeeds() [][7]float64 {
	vgs := []float64{0, 0.5, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 1.5, 3}
	vds := []float64{0.05, 0.5, 3}
	vbs := []float64{0, -0.5, 0.5}
	geoms := [][3]float64{{20e-6, 2e-6, 1}, {3e-6, 1.2e-6, 0}, {100e-6, 5e-6, 4}}
	var out [][7]float64
	k := 0
	for _, sg := range []float64{1, -1} {
		for _, vg := range vgs {
			for _, vd := range vds {
				for _, sd := range []float64{1, -1} {
					for _, vb := range vbs {
						g := geoms[k%len(geoms)]
						k++
						out = append(out, [7]float64{sd * vd, sg * vg, 0, vb, g[0], g[1], g[2]})
					}
				}
			}
		}
	}
	return out
}

// FuzzMOSEvalSplit holds the split EvalMOS (current part, then partials,
// then caps) to the pre-split reference bit for bit, for every library
// MOS model at finite terminal voltages and geometry.
func FuzzMOSEvalSplit(f *testing.F) {
	models := libraryMOSModels(f)
	for _, s := range mosSplitSeeds() {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6])
	}
	f.Fuzz(func(t *testing.T, vd, vg, vs, vb, w, l, m float64) {
		for _, v := range []float64{vd, vg, vs, vb, w, l, m} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		g := MOSGeom{W: w, L: l, M: m}
		for _, mm := range models {
			want := refEvalMOS(mm, g, vd, vg, vs, vb)
			op := EvalMOSCurrent(mm, g, vd, vg, vs, vb)
			EvalMOSPartials(mm, g, &op)
			EvalMOSCaps(mm, g, &op)
			if d := mosOpBitsDiff(op, want); d != "" {
				t.Fatalf("%s: current+partials+caps differs from the reference at (%g, %g, %g, %g) %+v: %s",
					mm.ModelName(), vd, vg, vs, vb, g, d)
			}
			if d := mosOpBitsDiff(EvalMOS(mm, g, vd, vg, vs, vb), want); d != "" {
				t.Fatalf("%s: EvalMOS differs from the reference: %s", mm.ModelName(), d)
			}
		}
	})
}

// TestMOSSplitSeedsCover checks that the fuzz seed grid reaches every
// operating region, a drain/source swap and a nonzero body bias on every
// library model, so the seed corpus alone exercises each branch.
func TestMOSSplitSeedsCover(t *testing.T) {
	for _, mm := range libraryMOSModels(t) {
		regions := map[Region]bool{}
		swapped, body := false, false
		for _, s := range mosSplitSeeds() {
			op := EvalMOSCurrent(mm, MOSGeom{W: s[4], L: s[5], M: s[6]}, s[0], s[1], s[2], s[3])
			regions[op.Region] = true
			swapped = swapped || op.Swapped
			body = body || op.Vbs != 0
		}
		for _, r := range []Region{RegionCutoff, RegionSubthreshold, RegionTriode, RegionSaturation} {
			if !regions[r] {
				t.Errorf("%s (%v): seeds never reach %v", mm.ModelName(), mm.Type(), r)
			}
		}
		if !swapped || !body {
			t.Errorf("%s: seeds swapped=%v, nonzero Vbs=%v; want both", mm.ModelName(), swapped, body)
		}
	}
}
