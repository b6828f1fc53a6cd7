package astrx

import (
	"context"
	"math"
	"testing"
	"time"

	"astrx/internal/netlist"
)

const cornerCards = `
.corner slow temp=85 nmos3.vto=0.95 vdd=2.4
.corner fast temp=-40 vdd=2.6
`

func parseCornered(t *testing.T) *netlist.Deck {
	t.Helper()
	d, err := netlist.Parse(diffAmpDeck + cornerCards)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeriveCornerDeck(t *testing.T) {
	deck := parseCornered(t)
	nomVto := deck.Models["nmos3"].P("vto", 0)
	nomU0 := deck.Models["nmos3"].P("u0", 0)

	slow, err := DeriveCornerDeck(deck, deck.Corner("slow"))
	if err != nil {
		t.Fatal(err)
	}
	// Explicit model override wins over the temperature derate.
	if got := slow.Models["nmos3"].P("vto", 0); got != 0.95 {
		t.Errorf("slow nmos3 vto = %g, want explicit 0.95", got)
	}
	// Mobility derated by (T/Tnom)^-1.5 at +58 °C.
	wantU0 := nomU0 * math.Pow((273.15+85)/(273.15+27), -1.5)
	if got := slow.Models["nmos3"].P("u0", 0); math.Abs(got-wantU0) > 1e-9*math.Abs(wantU0) {
		t.Errorf("slow nmos3 u0 = %g, want %g", got, wantU0)
	}
	// pmos threshold magnitude shrinks when hot, whatever sign the lib
	// stores it with.
	nomPVto := deck.Models["pmos3"].P("vto", 0)
	if got := slow.Models["pmos3"].P("vto", 0); !(math.Abs(got) < math.Abs(nomPVto)) {
		t.Errorf("slow pmos3 vto = %g, want |vto| < nominal %g (hot)", got, nomPVto)
	}

	fast, err := DeriveCornerDeck(deck, deck.Corner("fast"))
	if err != nil {
		t.Fatal(err)
	}
	// Cold: nmos threshold rises.
	if got := fast.Models["nmos3"].P("vto", 0); !(got > nomVto) {
		t.Errorf("fast nmos3 vto = %g, want > nominal %g (cold)", got, nomVto)
	}
	// Source override rewrote the vdd elements in jig and bias.
	for _, j := range []*netlist.Jig{fast.Bias, fast.Jig("main")} {
		found := false
		for _, e := range j.Elements {
			if e.Name == "vdd" {
				v, err := e.EvalValue(nil)
				if err != nil || v != 2.6 {
					t.Errorf("%s: fast vdd = %g (%v), want 2.6", j.Name, v, err)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: no vdd element", j.Name)
		}
	}

	// The nominal deck is untouched.
	if deck.Models["nmos3"].P("vto", 0) != nomVto || deck.Models["nmos3"].P("u0", 0) != nomU0 {
		t.Error("DeriveCornerDeck mutated the nominal models")
	}
	for _, e := range deck.Bias.Elements {
		if e.Name == "vdd" {
			if v, _ := e.EvalValue(nil); v != 2.5 {
				t.Errorf("nominal bias vdd mutated to %g", v)
			}
		}
	}
}

func TestCompileCornersLayout(t *testing.T) {
	deck := parseCornered(t)
	set, err := CompileCorners(deck, deck.CornerNames(), CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if set.K() != 3 {
		t.Fatalf("K = %d, want 3", set.K())
	}
	if got := len(set.Vars()); got != set.NUser+3*set.NFree || got != set.NVars() {
		t.Fatalf("master vars = %d, want NUser %d + 3*NFree %d", got, set.NUser, set.NFree)
	}
	// Per-corner node-voltage sections carry the lane tag.
	name := set.Vars()[set.NUser+set.NFree].Name
	if want := set.Nominal.Vars()[set.NUser].Name + "@slow"; name != want {
		t.Errorf("first slow-section var = %q, want %q", name, want)
	}

	// LaneX slices the shared head plus the lane's own section.
	x := make([]float64, set.NVars())
	for i := range x {
		x[i] = float64(i)
	}
	lx := set.LaneX(2, x, nil)
	if lx[0] != 0 || lx[set.NUser] != float64(set.NUser+2*set.NFree) {
		t.Errorf("LaneX(2) = %v", lx)
	}
	lx[set.NUser] = -1
	set.StoreLaneNodes(2, lx, x)
	if x[set.NUser+2*set.NFree] != -1 {
		t.Error("StoreLaneNodes did not write lane 2's section")
	}
}

// startX builds a master vector with every variable at its start value.
func startX(set *CornerSet) []float64 {
	x := make([]float64, set.NVars())
	for i, v := range set.Vars() {
		x[i] = v.Start()
	}
	return x
}

// TestCornerBatchMatchesScalar is the corner analogue of the batch
// equivalence guarantee: evaluating K corner lanes through the shared
// SoA batch must be bit-identical to evaluating each corner's compiled
// plan sequentially.
func TestCornerBatchMatchesScalar(t *testing.T) {
	deck := parseCornered(t)
	set, err := CompileCorners(deck, deck.CornerNames(), CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bw := set.NewCornerBatch()
	x := startX(set)
	xs := make([][]float64, set.K())
	for i := range xs {
		xs[i] = set.LaneX(i, x, nil)
	}
	bw.Run(xs)

	for i := 0; i < set.K(); i++ {
		ref := set.Lane(i).NewWorkspace().Evaluate(xs[i])
		lane := bw.Lane(i)
		if (lane.Err() == nil) != (ref.Err == nil) {
			t.Fatalf("lane %s: batch err %v, scalar err %v", set.LaneName(i), lane.Err(), ref.Err)
		}
		st := lane.State()
		for name, want := range ref.SpecVals {
			got := st.SpecVals[name]
			if math.IsNaN(want) && math.IsNaN(got) {
				continue
			}
			if got != want {
				t.Errorf("lane %s spec %s: batch %g != scalar %g", set.LaneName(i), name, got, want)
			}
		}
	}

	// Corners genuinely differ from the nominal: the slow corner's vdd
	// and thresholds moved, so at the same point at least one spec value
	// must change.
	nom := set.Lane(0).NewWorkspace().Evaluate(xs[0])
	slow := set.Lane(1).NewWorkspace().Evaluate(xs[1])
	if nom.Err == nil && slow.Err == nil {
		same := true
		for name, v := range nom.SpecVals {
			if sv, ok := slow.SpecVals[name]; ok && sv != v {
				same = false
				break
			}
		}
		if same {
			t.Error("slow corner produced identical spec values to nominal — overrides not applied?")
		}
	}
}

// TestWorstCaseQuarantineDegrades checks the graceful-degradation
// contract of the worst-case assembly: excluding a corner (quarantine)
// reproduces the assembly over the remaining lanes, and a failed
// nominal lane fails the whole candidate.
func TestWorstCaseQuarantineDegrades(t *testing.T) {
	deck := parseCornered(t)
	mk := func() (*CornerSet, *BatchWorkspace, [][]float64) {
		set, err := CompileCorners(deck, deck.CornerNames(), CostOptions{})
		if err != nil {
			t.Fatal(err)
		}
		bw := set.NewCornerBatch()
		x := startX(set)
		xs := make([][]float64, set.K())
		for i := range xs {
			xs[i] = set.LaneX(i, x, nil)
		}
		bw.Run(xs)
		return set, bw, xs
	}

	// All lanes in: finite total.
	set, bw, _ := mk()
	all := []bool{true, true, true}
	cb := set.WorstCase(bw, all, all)
	if cb.Failed || math.IsNaN(cb.Total) {
		t.Fatalf("worst-case over healthy lanes failed: %+v", cb)
	}

	// Quarantining the corners degrades to a nominal-only assembly:
	// fresh weights on both sides, bit-exact.
	set2, bw2, _ := mk()
	onlyNom := set2.WorstCase(bw2, []bool{true, false, false}, []bool{true, false, false})
	// Selection semantics: nil → all declared corners, empty → nominal only.
	if all3, err := SelectCorners(deck, nil); err != nil || len(all3) != 2 {
		t.Fatalf("SelectCorners(nil) = %v, %v; want both corners", all3, err)
	}
	if _, err := SelectCorners(deck, []string{"typo"}); err == nil {
		t.Fatal("SelectCorners accepted an undeclared corner name")
	}
	nomOnly2, err := CompileCorners(deck, nil, CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nomOnly2.K() != 1 {
		t.Fatalf("empty selection → %d lanes, want 1", nomOnly2.K())
	}
	bwN := nomOnly2.NewCornerBatch()
	xN := startX(nomOnly2)
	bwN.Run([][]float64{nomOnly2.LaneX(0, xN, nil)})
	nomCB := nomOnly2.WorstCase(bwN, []bool{true}, []bool{true})
	if onlyNom.Total != nomCB.Total {
		t.Errorf("quarantined-corner assembly %g != nominal-only assembly %g", onlyNom.Total, nomCB.Total)
	}

	// A corner that failed to evaluate charges the deterministic
	// penalty: cost strictly rises vs. the healthy assembly.
	set3, bw3, _ := mk()
	failedSlow := set3.WorstCase(bw3, []bool{true, true, true}, []bool{true, false, true})
	if !(failedSlow.Total > onlyNom.Total) {
		t.Errorf("failed-corner penalty missing: %g vs %g", failedSlow.Total, onlyNom.Total)
	}

	// Nominal failure fails the candidate.
	set4, bw4, _ := mk()
	dead := set4.WorstCase(bw4, all, []bool{false, true, true})
	if !dead.Failed || dead.Total != set4.Nominal.Opt.FailCost {
		t.Errorf("dead nominal: %+v, want Failed at FailCost", dead)
	}
}

// stageCtx reports cancellation only from the nth Err() call onward,
// simulating a deadline landing mid-batch.
type stageCtx struct {
	context.Context
	calls, fireAt int
}

func (s *stageCtx) Err() error {
	s.calls++
	if s.calls >= s.fireAt {
		return context.Canceled
	}
	return nil
}

func (s *stageCtx) Done() <-chan struct{} { return nil }
func (s *stageCtx) Deadline() (time.Time, bool) {
	return time.Time{}, false
}

// TestBatchRunCtxCancellation covers the cancellation contract: a
// cancelled context returns promptly with every lane marked failed, and
// the workspace is not corrupted — the next uncancelled Run reproduces
// a fresh batch bit-exactly.
func TestBatchRunCtxCancellation(t *testing.T) {
	deck, err := netlist.Parse(diffAmpDeck)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(deck, CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	bw := c.NewBatchWorkspace(k)
	xs := make([][]float64, k)
	for i := range xs {
		xs[i] = make([]float64, len(c.Vars()))
		for j, v := range c.Vars() {
			xs[i][j] = v.Start()
		}
		xs[i][0] *= 1 + 0.1*float64(i)
	}

	// Pre-cancelled: immediate return, every lane reports the error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := bw.RunCtx(ctx, xs); err == nil {
		t.Fatal("RunCtx with cancelled ctx returned nil")
	}
	for i := 0; i < k; i++ {
		if bw.Lane(i).Err() == nil {
			t.Fatalf("lane %d: no error after cancelled run", i)
		}
	}

	// Mid-batch: cancellation lands between pipeline stages.
	mid := &stageCtx{Context: context.Background(), fireAt: 2}
	if err := bw.RunCtx(mid, xs); err == nil {
		t.Fatal("mid-batch cancellation not reported")
	}
	for i := 0; i < k; i++ {
		if bw.Lane(i).Err() == nil {
			t.Fatalf("lane %d: no error after mid-batch cancel", i)
		}
	}

	// Recovery: the same workspace, uncancelled, matches a fresh batch
	// lane for lane (costs consume the EMA stream, so compare states).
	if err := bw.RunCtx(context.Background(), xs); err != nil {
		t.Fatal(err)
	}
	fresh := c.NewBatchWorkspace(k)
	fresh.Run(xs)
	for i := 0; i < k; i++ {
		a, b := bw.Lane(i).State(), fresh.Lane(i).State()
		if (bw.Lane(i).Err() == nil) != (fresh.Lane(i).Err() == nil) {
			t.Fatalf("lane %d: err mismatch after recovery", i)
		}
		for name, want := range b.SpecVals {
			got := a.SpecVals[name]
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("lane %d spec %s: %g != fresh %g (post-cancel corruption)", i, name, got, want)
			}
		}
	}
}
