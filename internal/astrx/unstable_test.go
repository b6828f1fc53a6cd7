package astrx

import (
	"math"
	"testing"
)

// ladderUnstableDeck is a lightly damped five-section LC ladder — the
// textbook AWE failure case. The circuit is passive and therefore
// physically stable, but the low-order Padé approximant of its
// high-Q moment sequence carries spurious right-half-plane poles
// (Pillage & Rohrer's original caveat). This is exactly what the
// unstable counter exists for: the model must still be measured
// (rejecting it would blank every spec and strand the annealer), while
// the fit is counted so operators see how often the reduced-order
// model degraded.
const ladderUnstableDeck = `
.jig main
vin in 0 0 ac 1
rs in n0 Rs
l1 n0 n1 1u
c1 n1 0 1p
l2 n1 n2 1u
c2 n2 0 1p
l3 n2 n3 1u
c3 n3 0 1p
l4 n3 n4 1u
c4 n4 0 1p
l5 n4 out 1u
cl out 0 1p
.pz tf v(out) vin
.ends

.bias
vb in 0 1
rs in out Rs
.ends

.var Rs min=0.1 max=10k grid
.obj gain 'dc_gain(tf)' good=0.99 bad=0.1
.spec bw 'bw3db(tf)' good=100Meg bad=1Meg
`

// TestUnstableFitCountedNotRejected pins the policy for unstable AWE
// fits: the evaluation succeeds with a finite cost, and the workspace
// counter records that the transfer function's best validated fit
// carried a right-half-plane pole.
func TestUnstableFitCountedNotRejected(t *testing.T) {
	c := compileDeck(t, ladderUnstableDeck)
	x := make([]float64, len(c.Vars()))
	for i, v := range c.Vars() {
		x[i] = v.Start()
	}
	x[0] = 100 // Rs: light damping, high-Q moments, spurious RHP pole

	ws := c.NewWorkspace()
	cb := ws.CostDetail(x)
	if cb.Failed {
		t.Fatalf("evaluation failed outright: %+v", cb)
	}
	if math.IsNaN(cb.Total) || math.IsInf(cb.Total, 0) {
		t.Fatalf("cost = %v, want finite", cb.Total)
	}
	if ws.UnstableCount() == 0 {
		t.Fatal("expected the high-Q ladder fit to register as unstable")
	}

	// The reported state agrees: the DC gain is still measured, not
	// blanked.
	st := c.NewWorkspace().Evaluate(x)
	if st.Err != nil {
		t.Fatalf("Evaluate: %v", st.Err)
	}
	v, ok := st.SpecVals["gain"]
	if !ok {
		t.Fatal("spec gain not measured")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("gain = %v, want finite despite unstable fit", v)
	}
	if tf := st.TFs["tf"]; tf == nil || tf.Stable() {
		t.Errorf("fixture regressed: expected an unstable fitted model, got %+v", tf)
	}

	// Heavy damping tames the fit; the counter stays untouched.
	x[0] = 10e3
	ws2 := c.NewWorkspace()
	ws2.CostDetail(x)
	if ws2.UnstableCount() != 0 {
		t.Errorf("damped ladder counted %d unstable fits, want 0", ws2.UnstableCount())
	}

	// The counter survives a save/restore cycle (checkpoint path).
	ws2.SetUnstableCount(7)
	if ws2.UnstableCount() != 7 {
		t.Errorf("SetUnstableCount round trip: got %d, want 7", ws2.UnstableCount())
	}
}
