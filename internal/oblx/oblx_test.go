package oblx

import (
	"context"
	"math"
	"testing"

	"astrx/internal/netlist"
)

const dividerDeck = `
.jig main
vin in 0 0 ac 1
r1 in out 1k
r2 out 0 R2
cl out 0 1p
.pz tf v(out) vin
.ends

.bias
vb in 0 1
r1 in out 1k
r2 out 0 R2
.ends

.var R2 min=100 max=100k grid
.obj gain 'dc_gain(tf)' good=0.99 bad=0.1
`

const diffAmpDeck = `
.lib c2u

.module amp (in+ in- out+ out- vdd vss oa)
m1 out- in+ a a nmos3 w=W l=L
m2 out+ in- a a nmos3 w=W l=L
m3 out- nb  vdd vdd pmos3 w=Wp l=2u
m4 out+ nb  vdd vdd pmos3 w=Wp l=2u
vb  nb vdd '0-Vb'
ib  a vss I
.ends

.var W  min=2u  max=500u grid
.var Wp min=2u  max=500u grid
.var L  min=2u  max=20u  grid
.var I  min=2u  max=500u cont
.var Vb min=0.5 max=2.2  cont

.const Cl 1p

.jig main
xamp in+ in- out+ out- nvdd nvss oa amp
vdd  nvdd 0 2.5
vss  nvss 0 -2.5
vin  in+ 0 0 ac 1
ein  in- 0 in+ 0 -1
cl1  out+ 0 Cl
cl2  out- 0 Cl
.pz tf v(out+,out-) vin
.ends

.bias
xamp in+ in- out+ out- nvdd nvss oa amp
vdd  nvdd 0 2.5
vss  nvss 0 -2.5
vi1  in+ 0 0
vi2  in- 0 0
.ends

.obj  adm 'db(dc_gain(tf))'  good=40 bad=5
.spec ugf 'ugf(tf)'          good=1Meg bad=10k
.region xamp.m1 sat margin=0.05
.region xamp.m2 sat margin=0.05
.region xamp.m3 sat margin=0.05
.region xamp.m4 sat margin=0.05
`

func parse(t *testing.T, src string) *netlist.Deck {
	t.Helper()
	d, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSynthesizeDivider(t *testing.T) {
	deck := parse(t, dividerDeck)
	res, err := Run(context.Background(), deck, Options{Seed: 1, MaxMoves: 15_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Failed {
		t.Fatal("final cost failed")
	}
	// The optimum pushes R2 to its maximum (gain → 0.99) with the node
	// voltage consistent.
	gain := res.State.SpecVals["gain"]
	if gain < 0.95 {
		t.Errorf("synthesized gain = %g, want ≥ 0.95", gain)
	}
	if res.State.MaxKCLError() > 1e-6 {
		t.Errorf("KCL error = %g", res.State.MaxKCLError())
	}
	if res.EvalCount == 0 || res.TimePerEval() <= 0 {
		t.Error("evaluation accounting missing")
	}
}

func TestSynthesizeDiffAmp(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis run in -short mode")
	}
	deck := parse(t, diffAmpDeck)
	res, err := Run(context.Background(), deck, Options{Seed: 3, MaxMoves: 60_000, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.State
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	// dc-correct at the end (the paper: "within tolerances not unlike
	// those used in circuit simulation"): absolute residuals below a
	// SPICE-like abstol, relative ones small.
	for n, r := range st.KCL {
		if math.Abs(r) > 5e-9 {
			t.Errorf("node %s: |KCL| = %g A, want < 5 nA", n, r)
		}
	}
	if st.MaxKCLError() > 1e-2 {
		t.Errorf("final relative KCL error = %g, want < 1e-2", st.MaxKCLError())
	}
	// Specs: gain target 40 dB, UGF ≥ 1 MHz.
	adm := st.SpecVals["adm"]
	ugf := st.SpecVals["ugf"]
	if adm < 25 {
		t.Errorf("adm = %g dB, want ≥ 25", adm)
	}
	if ugf < 0.8e6 {
		t.Errorf("ugf = %g Hz, want ≥ 0.8 MHz", ugf)
	}
	// Trace recorded and KCL error decayed along the run.
	if len(res.Trace) < 5 {
		t.Fatalf("trace too short: %d", len(res.Trace))
	}
	early := EarlyKCLError(res.Trace)
	late := res.Trace[len(res.Trace)-1].MaxKCLError
	if late > early && late > 1e-3 {
		t.Errorf("KCL error did not decay: early %g late %g", early, late)
	}
	// Hustin stats present for all four move classes.
	if len(res.MoveStats) != 4 {
		t.Errorf("move stats = %d", len(res.MoveStats))
	}
}

func TestRunBestPicksLowestCost(t *testing.T) {
	deck := parse(t, dividerDeck)
	best, all, errs := RunBest(context.Background(), deck, 3, Options{Seed: 11, MaxMoves: 6_000})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if len(all) != 3 {
		t.Fatalf("runs = %d", len(all))
	}
	for _, r := range all {
		if r.Cost.Total < best.Cost.Total {
			t.Error("RunBest did not return the lowest-cost run")
		}
	}
	if math.IsNaN(best.Cost.Total) {
		t.Error("best cost NaN")
	}
}

func TestRunErrors(t *testing.T) {
	d := parse(t, ".jig j\nr1 a 0 1\nvin a 0 0 ac 1\n.pz tf v(a) vin\n.ends\n")
	if _, err := Run(context.Background(), d, Options{}); err == nil {
		t.Error("deck without bias must error")
	}
}

func TestEarlyKCLError(t *testing.T) {
	// The sample right after move 0 can land on a KCL-correct point; the
	// early figure is the worst over the first quarter of the run.
	trace := []TraceSample{
		{Move: 0, MaxKCLError: 1},
		{Move: 100, MaxKCLError: 7e-14},
		{Move: 250, MaxKCLError: 0.5},
		{Move: 400, MaxKCLError: 1e-13},
	}
	if got := EarlyKCLError(trace); got != 1 {
		t.Errorf("EarlyKCLError = %g, want 1 (move 0, inside the first quarter)", got)
	}
	if got := EarlyKCLError(trace[1:]); got != 7e-14 {
		t.Errorf("EarlyKCLError = %g, want 7e-14 (move 250 is past 400/4)", got)
	}
	if got := EarlyKCLError(nil); got != 0 {
		t.Errorf("EarlyKCLError(nil) = %g, want 0", got)
	}
}
