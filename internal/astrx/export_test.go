package astrx

import (
	"fmt"
	"math"

	"astrx/internal/awe"
	"astrx/internal/devices"
)

// EvalSnapshot is a copy of what a cost evaluation leaves in a
// workspace that keeping a jig's factors and models could get wrong.
type EvalSnapshot struct {
	Err      string
	SpecVals []float64
	// TFs holds each transfer function's model in slot order, as a
	// reader (State, a spec measuring it) sees it: fitted from the
	// factors its μ0 came from.
	TFs           []awe.TF
	Unstable      int
	Region, KCL   float64
	FactorsReused uint64
	// MOSOps and BJTOps are the device operating points in plan order,
	// as the evaluation left them; nil when it stopped before every
	// device.
	MOSOps []devices.MOSOp
	BJTOps []devices.BJTOp
}

// Snapshot copies the last evaluation out of ws without completing it:
// a model no reader has fitted yet is fitted on scratch storage, so the
// slot stays as the evaluation left it (State would fit it in place).
func (ws *EvalWorkspace) Snapshot() EvalSnapshot {
	s := EvalSnapshot{
		SpecVals:      append([]float64(nil), ws.specVals...),
		Unstable:      ws.unstable,
		Region:        ws.regionViolation(),
		KCL:           ws.kclViolation(),
		FactorsReused: ws.Counts()[FactorReused],
	}
	if ws.err != nil {
		s.Err = ws.err.Error()
	}
	if ws.geomOK {
		s.MOSOps = append([]devices.MOSOp(nil), ws.mosOps...)
		s.BJTOps = append([]devices.BJTOp(nil), ws.bjtOps...)
	}
	for i := range ws.slots {
		s.TFs = append(s.TFs, ws.readerModel(i))
	}
	return s
}

// readerModel returns a copy of the model a reader of TF slot i sees,
// leaving the slot as it is: the slot's model when it is fitted or its
// factors are gone, else a fit from its jig engine's current factors in
// scratch storage, with the moment and fit calls model makes.
func (ws *EvalWorkspace) readerModel(i int) awe.TF {
	tf := &ws.tfs[i]
	r, sl := ws.plan.tfRefs[i], &ws.slots[i]
	if jw := &ws.jigs[r.mat]; !sl.fitted && sl.gen != 0 && sl.gen == jw.eng.Gen() {
		mu := make([]float64, 2*r.tp.q)
		jw.eng.MomentsInto(mu, r.tp.b, r.tp.ip, r.tp.in)
		var fw awe.FitWorkspace
		tf = &awe.TF{}
		fw.FitMomentsInto(tf, mu, r.tp.q)
	}
	return awe.TF{
		Poles:    append([]complex128(nil), tf.Poles...),
		Residues: append([]complex128(nil), tf.Residues...),
		Zeros:    append([]complex128(nil), tf.Zeros...),
		Moments:  append([]float64(nil), tf.Moments...),
		Order:    tf.Order,
	}
}

// TFNames lists the compiled problem's transfer functions in slot
// order.
func (c *Compiled) TFNames() []string {
	var out []string
	for _, jp := range c.plan.jigs {
		for i := range jp.tfs {
			out = append(out, jp.tfs[i].name)
		}
	}
	return out
}

// DiffSnapshots describes the first way got differs from want, comparing
// floats by their bits and the unstable counts as given; "" means
// identical. After a failed evaluation only the error and the device
// operating points are compared: the rest is what earlier evaluations
// left.
func DiffSnapshots(got, want EvalSnapshot) string {
	if got.Err != want.Err {
		return fmt.Sprintf("error %q, want %q", got.Err, want.Err)
	}
	if d := diffDevices(got, want); d != "" || got.Err != "" {
		return d
	}
	if d := diffFloats("spec value", got.SpecVals, want.SpecVals); d != "" {
		return d
	}
	if got.Unstable != want.Unstable {
		return fmt.Sprintf("unstable count %d, want %d", got.Unstable, want.Unstable)
	}
	if d := diffFloats("violation (region, KCL)", []float64{got.Region, got.KCL}, []float64{want.Region, want.KCL}); d != "" {
		return d
	}
	if len(got.TFs) != len(want.TFs) {
		return fmt.Sprintf("%d transfer functions, want %d", len(got.TFs), len(want.TFs))
	}
	for i := range want.TFs {
		if d := DiffTFs(&got.TFs[i], &want.TFs[i]); d != "" {
			return fmt.Sprintf("transfer function %d: %s", i, d)
		}
	}
	return ""
}

// DiffTFs compares two models' order, poles, residues, zeros and moments
// by their bits; "" means identical.
func DiffTFs(got, want *awe.TF) string {
	if got.Order != want.Order {
		return fmt.Sprintf("order %d, want %d", got.Order, want.Order)
	}
	for _, c := range []struct {
		name      string
		got, want []complex128
	}{{"pole", got.Poles, want.Poles}, {"residue", got.Residues, want.Residues}, {"zero", got.Zeros, want.Zeros}} {
		if len(c.got) != len(c.want) {
			return fmt.Sprintf("%d %ss, want %d", len(c.got), c.name, len(c.want))
		}
		for k := range c.want {
			if d := diffFloats(c.name, []float64{real(c.got[k]), imag(c.got[k])},
				[]float64{real(c.want[k]), imag(c.want[k])}); d != "" {
				return d
			}
		}
	}
	return diffFloats("moment", got.Moments, want.Moments)
}

// diffDevices compares two snapshots' device operating points, floats
// by their bits.
func diffDevices(got, want EvalSnapshot) string {
	if (got.MOSOps == nil) != (want.MOSOps == nil) || len(got.MOSOps) != len(want.MOSOps) || len(got.BJTOps) != len(want.BJTOps) {
		return fmt.Sprintf("%d MOS and %d BJT operating points (every device reached: %v), want %d and %d (%v)",
			len(got.MOSOps), len(got.BJTOps), got.MOSOps != nil, len(want.MOSOps), len(want.BJTOps), want.MOSOps != nil)
	}
	for i := range want.MOSOps {
		if d := DiffMOSOp(got.MOSOps[i], want.MOSOps[i]); d != "" {
			return fmt.Sprintf("MOS %d: %s", i, d)
		}
	}
	for i := range want.BJTOps {
		g, w := got.BJTOps[i], want.BJTOps[i]
		if d := diffFloats("field", []float64{g.Ic, g.Ib, g.Gm, g.Gpi, g.Go, g.Gmu, g.Cpi, g.Cmu, g.Vbe, g.Vbc},
			[]float64{w.Ic, w.Ib, w.Gm, w.Gpi, w.Go, w.Gmu, w.Cpi, w.Cmu, w.Vbe, w.Vbc}); d != "" || g.Forward != w.Forward {
			return fmt.Sprintf("BJT %d: %s (forward %v, want %v)", i, d, g.Forward, w.Forward)
		}
	}
	return ""
}

// DiffMOSOp compares two MOS operating points field by field, floats by
// their bits; "" means identical.
func DiffMOSOp(got, want devices.MOSOp) string {
	g, w := got, want
	if d := diffFloats("field", []float64{g.Ids, g.Gm, g.Gds, g.Gmbs, g.Vth, g.Vdsat, g.Vgs, g.Vds, g.Vbs,
		g.Caps.Cgs, g.Caps.Cgd, g.Caps.Cgb, g.Caps.Cdb, g.Caps.Csb},
		[]float64{w.Ids, w.Gm, w.Gds, w.Gmbs, w.Vth, w.Vdsat, w.Vgs, w.Vds, w.Vbs,
			w.Caps.Cgs, w.Caps.Cgd, w.Caps.Cgb, w.Caps.Cdb, w.Caps.Csb}); d != "" {
		return d
	}
	if g.Region != w.Region || g.Swapped != w.Swapped {
		return fmt.Sprintf("region/swap %v/%v, want %v/%v", g.Region, g.Swapped, w.Region, w.Swapped)
	}
	return ""
}

func diffFloats(what string, got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d %ss, want %d", len(got), what, len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("%s %d = %.17g, want %.17g", what, i, got[i], want[i])
		}
	}
	return ""
}
