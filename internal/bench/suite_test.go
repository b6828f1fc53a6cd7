package bench

import (
	"context"
	"strings"
	"testing"
)

// TestAllDecksCompile is the structural gate for the whole suite: every
// benchmark parses, compiles, and reports Table-1 statistics with the
// paper's qualitative shape (added node-voltage variables outnumber the
// user's).
func TestAllDecksCompile(t *testing.T) {
	for _, c := range Suite {
		c := c
		t.Run(string(c), func(t *testing.T) {
			comp, err := Compile(c)
			if err != nil {
				t.Fatal(err)
			}
			s := comp.Stats()
			if s.UserVars == 0 {
				t.Error("no user variables")
			}
			if s.NodeVoltVars <= s.UserVars {
				t.Errorf("node-voltage vars (%d) should outnumber user vars (%d)",
					s.NodeVoltVars, s.UserVars)
			}
			if s.BiasNodes == 0 || s.BiasElements == 0 {
				t.Error("empty bias circuit")
			}
			if len(s.JigCircuits) == 0 {
				t.Error("no jig circuits")
			}
			if s.CostTerms == 0 {
				t.Error("no cost terms")
			}
		})
	}
}

// TestSuiteOrdering checks the Table-1 complexity ordering: the folded
// cascode and novel FC are the largest problems, the simple OTA the
// smallest — the shape the paper's Table 1 exhibits.
func TestSuiteOrdering(t *testing.T) {
	stats := map[Circuit]int{}
	for _, c := range Suite {
		comp, err := Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		stats[c] = comp.Stats().NodeVoltVars
	}
	if !(stats[SimpleOTA] < stats[FoldedCascode]) {
		t.Errorf("Simple OTA (%d) should be smaller than Folded Cascode (%d)",
			stats[SimpleOTA], stats[FoldedCascode])
	}
	if !(stats[SimpleOTA] < stats[NovelFC]) {
		t.Errorf("Simple OTA (%d) should be smaller than Novel FC (%d)",
			stats[SimpleOTA], stats[NovelFC])
	}
	if !(stats[OTA] < stats[NovelFC]) {
		t.Errorf("OTA (%d) should be smaller than Novel FC (%d)", stats[OTA], stats[NovelFC])
	}
}

// TestEveryDeckEvaluates runs one cost evaluation per benchmark at the
// starting point — catching any deck whose expressions or jigs are
// inconsistent, without paying for synthesis.
func TestEveryDeckEvaluates(t *testing.T) {
	for _, c := range Suite {
		c := c
		t.Run(string(c), func(t *testing.T) {
			comp, err := Compile(c)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, len(comp.Vars()))
			for i, v := range comp.Vars() {
				x[i] = v.Start()
			}
			cb := comp.Workspace().CostDetail(x)
			if cb.Failed {
				t.Fatalf("cost evaluation failed at the starting point")
			}
			if cb.Total == 0 {
				t.Error("zero cost at start is implausible")
			}
		})
	}
}

// TestModelProcessVariants compiles the Simple OTA under the three E6
// model/process combinations.
func TestModelProcessVariants(t *testing.T) {
	for _, v := range []struct{ lib, n, p string }{
		{"c2u", "nbsim", "pbsim"},
		{"c1.2u", "nbsim", "pbsim"},
		{"c1.2u", "nmos3", "pmos3"},
	} {
		src := SimpleOTASource(v.lib, v.n, v.p)
		d, err := netlistParse(src)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if _, err := astrxCompile(d); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
}

// TestSynthesizeSimpleOTASmoke is the end-to-end smoke test: a short
// synthesis of the smallest benchmark, verified against the simulator.
func TestSynthesizeSimpleOTASmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis in -short mode")
	}
	res, err := Synthesize(context.Background(), SimpleOTA, SynthOptions{Seed: 1, MaxMoves: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.MaxKCL > 1e-9 {
		t.Errorf("reference-bias residual = %g A", res.Report.MaxKCL)
	}
	// AWE-vs-simulation agreement for the small-signal specs.
	for _, row := range res.Report.Specs {
		switch row.Name {
		case "adm", "gbw":
			if row.Simulated != 0 && row.RelErr > 0.05 {
				t.Errorf("spec %s: pred %g vs sim %g (rel %g)",
					row.Name, row.Predicted, row.Simulated, row.RelErr)
			}
		}
	}
	if res.Run.TimePerEval() <= 0 {
		t.Error("missing eval timing")
	}
}

// TestFig2TraceShape runs a miniature Fig. 2 trace and checks the
// paper's qualitative claim: the KCL discrepancy at the end of the run
// is orders of magnitude below its early peak.
func TestFig2TraceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis in -short mode")
	}
	trace, err := Fig2(context.Background(), SynthOptions{Seed: 2, MaxMoves: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 8 {
		t.Fatalf("trace too short: %d", len(trace))
	}
	peak := 0.0
	for _, tp := range trace[:len(trace)/2] {
		if tp.MaxKCLError > peak {
			peak = tp.MaxKCLError
		}
	}
	final := trace[len(trace)-1].MaxKCLError
	if peak < 1e-3 {
		t.Errorf("early KCL peak = %g — relaxed-dc should roam dc-incorrect space", peak)
	}
	if final > peak/10 && final > 1e-4 {
		t.Errorf("final KCL error %g did not collapse from peak %g", final, peak)
	}
	out := FormatFig2(trace)
	if len(out) == 0 {
		t.Error("empty Fig2 rendering")
	}
}

// TestDeckPrepHours sanity: an afternoon, not months.
func TestDeckPrepHours(t *testing.T) {
	h, err := DeckPrepHours(SimpleOTA)
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.5 || h > 8 {
		t.Errorf("prep hours = %g, want an afternoon-scale number", h)
	}
}

// TestTableFormattersRender runs the cheapest possible synthesis to give
// the Table 2/3 formatters real data and checks the rendering contract.
func TestTableFormattersRender(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis in -short mode")
	}
	res, err := Synthesize(context.Background(), SimpleOTA, SynthOptions{Seed: 9, MaxMoves: 3000})
	if err != nil {
		t.Fatal(err)
	}
	t2 := FormatTable2([]Table2Result{{res}})
	for _, frag := range []string{"Simple OTA", "dc gain", "time/ckt eval", "CPU time/run"} {
		if !strings.Contains(t2, frag) {
			t.Errorf("Table 2 rendering missing %q", frag)
		}
	}
	t3 := FormatTable3(res)
	if !strings.Contains(t3, "Manual") || !strings.Contains(t3, "OBLX / Sim") {
		t.Error("Table 3 rendering incomplete")
	}
}
