package astrx_test

import (
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"

	"astrx/internal/astrx"
	"astrx/internal/awe"
	"astrx/internal/bench"
	"astrx/internal/expr"
	"astrx/internal/netlist"
)

// The evaluation plan decides two things at compile time: which jigs
// share one factored matrix, and which transfer functions the cost
// function reads only at DC. These tests pin both decisions through
// Compiled.Stats and check that the skipped work is invisible outside
// the cost function.

func compileSrc(t *testing.T, src string) *astrx.Compiled {
	t.Helper()
	d, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := astrx.Compile(d, astrx.CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// dcOnly maps every transfer function of a compiled deck to its
// DC-only decision.
func dcOnly(c *astrx.Compiled) map[string]bool {
	out := make(map[string]bool)
	for _, a := range c.Stats().AWE {
		for _, tf := range a.TFs {
			out[tf.Name] = tf.DCOnly
		}
	}
	return out
}

// matrices counts the jigs that stamp and factor their own matrix.
func matrices(c *astrx.Compiled) int {
	n := 0
	for _, a := range c.Stats().AWE {
		if a.Reuses < 0 {
			n++
		}
	}
	return n
}

func TestPlanDCOnlyAnalysis(t *testing.T) {
	base := bench.DeckSource(bench.SimpleOTA)
	got := dcOnly(compileSrc(t, base))
	// psrrn is 'db(abs(dc_gain(tf)/dc_gain(tfss)))': tf is fitted for
	// ugf and phase_margin, tfss is read only at DC.
	if want := map[string]bool{"tf": false, "tfdd": true, "tfss": true}; !maps.Equal(got, want) {
		t.Fatalf("Simple OTA DC-only = %v, want %v", got, want)
	}

	// Any other measure makes a transfer function fitted, also nested
	// inside another call or an arithmetic expression, and also in an
	// objective.
	for _, card := range []string{
		".spec extra 'ugf(tfss)' good=1 bad=0",
		".spec extra 'phase_margin(tfss)' good=1 bad=0",
		".spec extra 'bw3db(tfss)' good=1 bad=0",
		".spec extra 'pole(tfss, 1)' good=1 bad=0",
		".spec extra 'zero(tfss, 1)' good=1 bad=0",
		".spec extra 'gain_at(tfss, 1k)' good=1 bad=0",
		".spec extra 'db(abs(dc_gain(tf)/gain_at(tfss, 1k)))' good=1 bad=0",
		".spec extra '1 + max(dc_gain(tfss), -ugf(tfss))' good=1 bad=0",
		".obj extra 'bw3db(tfss)' good=1 bad=0",
	} {
		got := dcOnly(compileSrc(t, base+card+"\n"))
		if got["tfss"] || !got["tfdd"] || got["tf"] {
			t.Errorf("%s: DC-only = %v, want only tfdd", card, got)
		}
	}

	// A transfer function no spec names is DC-only too.
	noPSRRP := strings.Replace(base, ".spec psrrp ", "* ", 1)
	if got := dcOnly(compileSrc(t, noPSRRP)); !got["tfdd"] {
		t.Errorf("unread tfdd: DC-only = %v", got)
	}
}

func TestPlanSharesJigMatrices(t *testing.T) {
	for _, ckt := range bench.Suite {
		want := 1
		if ckt == bench.NovelFC {
			// main drives the inputs through an E source; only the two
			// supply jigs stamp the same matrix.
			want = 2
		}
		c := compileSrc(t, bench.DeckSource(ckt))
		if got := matrices(c); got != want {
			t.Errorf("%s: %d factored matrices, want %d (%+v)", ckt, got, want, c.Stats().AWE)
		}
		if got := len(c.NewWorkspace().JigStats()); got != want {
			t.Errorf("%s: JigStats reports %d matrices, want %d", ckt, got, want)
		}
	}
}

// csAmpDeck is a common-source stage with a supply jig whose stamp
// program equals main's: only the AC source moves.
const csAmpDeck = `
.lib c2u
.var W  min=2u  max=500u grid
.var Vg min=0.5 max=2    cont

.jig main
m1 out in 0 0 nmos3 w=W l=2u
rd vdd out 10k
vdd vdd 0 5
vin in 0 Vg ac 1
cl out 0 1p
.pz tf v(out) vin
.ends

.jig sup
m1 out in 0 0 nmos3 w=W l=2u
rd vdd out 10k
vdd vdd 0 5 ac 1
vin in 0 Vg
cl out 0 1p
.pz tfdd v(out) vdd
.ends

.bias
m1 out in 0 0 nmos3 w=W l=2u
rd vdd out 10k
vdd vdd 0 5
vin in 0 Vg
.ends

.obj  gain 'db(abs(dc_gain(tf)))' good=20 bad=0
.spec bw   'bw3db(tf)' good=10Meg bad=1Meg
.spec psrr 'db(abs(dc_gain(tf)/dc_gain(tfdd)))' good=20 bad=0
`

func TestPlanJigCopyMustMatchExactly(t *testing.T) {
	if got := matrices(compileSrc(t, csAmpDeck)); got != 1 {
		t.Fatalf("identical jigs: %d factored matrices, want 1", got)
	}
	sup := strings.Index(csAmpDeck, ".jig sup")
	for _, tc := range []struct{ what, from, to string }{
		{"value", "cl out 0 1p", "cl out 0 2p"},
		{"value expression", "rd vdd out 10k", "rd vdd out '10k*1'"},
		{"node", "cl out 0 1p", "cl out vdd 1p"},
		{"kind", "cl out 0 1p", "rl out 0 1p"},
		{"device", "m1 out in 0 0 ", "m1 out in 0 vdd "},
	} {
		src := csAmpDeck[:sup] + strings.Replace(csAmpDeck[sup:], tc.from, tc.to, 1)
		if src == csAmpDeck {
			t.Fatalf("%s: mutation %q not applied", tc.what, tc.from)
		}
		if got := matrices(compileSrc(t, src)); got != 2 {
			t.Errorf("jig copy differing in one %s shares a matrix", tc.what)
		}
	}
}

// TestSkippedWorkInvisibleOutsideCost checks that after a hot-path
// Cost, State and MeasureSpec see transfer functions bit-equal to a
// fresh workspace's Evaluate at the same point, the DC-only ones
// included: each reader completes the skipped fits itself. The fresh
// workspace belongs to a copy of the deck whose extra objective fits
// every transfer function in the cost function.
func TestSkippedWorkInvisibleOutsideCost(t *testing.T) {
	measures := []expr.Node{
		expr.MustParse("ugf(tfdd)"),
		expr.MustParse("phase_margin(tfss)"),
		expr.MustParse("bw3db(tfdd)"),
		expr.MustParse("gain_at(tfss, 1Meg)"),
	}
	for _, ckt := range bench.Table2Suite {
		c := compileSrc(t, bench.DeckSource(ckt))
		ref := compileSrc(t, bench.DeckSource(ckt)+".obj fitall 'ugf(tfdd) + ugf(tfss)' good=1 bad=0\n")
		for name, dc := range dcOnly(ref) {
			if dc {
				t.Fatalf("%s: reference deck leaves %s DC-only", ckt, name)
			}
		}
		vars := c.Vars()
		rng := rand.New(rand.NewSource(7))
		viaState, viaMeasure := c.NewWorkspace(), c.NewWorkspace()
		for k := 0; k < 12; k++ {
			x := make([]float64, len(vars))
			for i, v := range vars {
				x[i] = v.Start()
				if k > 0 {
					x[i] = v.Min + rng.Float64()*(v.Max-v.Min)
				}
			}
			fresh := ref.NewWorkspace()
			want := fresh.Evaluate(x)
			if want.Err != nil {
				continue
			}
			viaState.Cost(x)
			viaMeasure.Cost(x)
			for _, e := range measures {
				wantV, wantErr := fresh.MeasureSpec(e, nil)
				gotV, gotErr := viaMeasure.MeasureSpec(e, nil)
				if math.Float64bits(gotV) != math.Float64bits(wantV) || (gotErr == nil) != (wantErr == nil) {
					t.Errorf("%s #%d: MeasureSpec %s = %g (%v) after Cost, %g (%v) after Evaluate",
						ckt, k, e, gotV, gotErr, wantV, wantErr)
				}
			}
			for _, ws := range []*astrx.EvalWorkspace{viaState, viaMeasure} {
				got := ws.State()
				if len(got.TFs) != len(want.TFs) {
					t.Fatalf("%s #%d: %d TFs, want %d", ckt, k, len(got.TFs), len(want.TFs))
				}
				for name, w := range want.TFs {
					if !sameTF(got.TFs[name], w) {
						t.Errorf("%s #%d: TF %s after Cost = %+v, after Evaluate %+v", ckt, k, name, got.TFs[name], w)
					}
				}
			}
		}
	}
}

// sameTF compares two models bit for bit.
func sameTF(a, b *awe.TF) bool {
	if a == nil || b == nil || a.Order != b.Order {
		return false
	}
	return sameFloats(a.Moments, b.Moments) && sameComplex(a.Poles, b.Poles) &&
		sameComplex(a.Residues, b.Residues) && sameComplex(a.Zeros, b.Zeros)
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameComplex(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}
