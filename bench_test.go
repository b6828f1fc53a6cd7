// Benchmarks regenerating (at reduced scale) every table and figure of
// the paper's evaluation section. Run with:
//
//	go test -bench=. -benchmem
//
// Full-scale regeneration is `go run ./cmd/tables -all`; these benches
// measure the per-unit costs that the tables are built from, so their
// shapes (which circuit is slowest, AWE vs AC sweep, cost per circuit
// evaluation) can be tracked as the code evolves. EXPERIMENTS.md maps
// each bench to its table/figure.
package astrx_test

import (
	"context"
	"testing"

	root "astrx"
	"astrx/internal/acsim"
	"astrx/internal/astrx"
	"astrx/internal/awe"
	"astrx/internal/bench"
	"astrx/internal/ckttest"
	"astrx/internal/dcsolve"
	"astrx/internal/eqbase"
	"astrx/internal/expr"
	"astrx/internal/mna"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
)

// BenchmarkTable1Compile measures the full ASTRX analysis of the entire
// benchmark suite — the content of Table 1.
func BenchmarkTable1Compile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(bench.Suite) {
			b.Fatal("short table")
		}
	}
}

// benchmarkCostEval measures one cost-function evaluation — the paper's
// "time/ckt eval" metric (Table 2's second-to-last row) for a circuit.
func benchmarkCostEval(b *testing.B, c bench.Circuit) {
	comp, err := bench.Compile(c)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, len(comp.Vars()))
	for i, v := range comp.Vars() {
		x[i] = v.Start()
	}
	comp.Cost(x) // warm the workspace so steady-state allocations are measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cost := comp.Cost(x); cost <= 0 {
			b.Fatal("degenerate cost")
		}
	}
	b.StopTimer()
	// Per-deck matrix shape: dimension of the largest jig system, total
	// structural nonzeros and factor fill across jigs, and the fraction
	// of jigs whose factorization ran the sparse replay (1 = all sparse,
	// 0 = dense fallback everywhere). Tracked in BENCH_oblx.json so a
	// deck silently dropping off the sparse path shows up in review.
	// All four describe the start point this benchmark evaluates; in a
	// run, patterns change and most AWE factorizations take the dense
	// fallback (oblx's factor.* counts, docs/profiling.md).
	var rows, nnz, fill, sparse float64
	stats := comp.Workspace().JigStats()
	for _, s := range stats {
		if float64(s.Rows) > rows {
			rows = float64(s.Rows)
		}
		nnz += float64(s.NNZ)
		fill += float64(s.FillNNZ)
		if s.Sparse {
			sparse++
		}
	}
	if len(stats) > 0 {
		sparse /= float64(len(stats))
	}
	b.ReportMetric(rows, "mna_rows")
	b.ReportMetric(nnz, "mna_nnz")
	b.ReportMetric(fill, "fill_nnz")
	b.ReportMetric(sparse, "sparse")
}

// BenchmarkTable2EvalSimpleOTA .. BiCMOS: per-circuit evaluation cost,
// Table 2's "time/ckt eval" row across its five circuits.
func BenchmarkTable2EvalSimpleOTA(b *testing.B) { benchmarkCostEval(b, bench.SimpleOTA) }

func BenchmarkTable2EvalOTA(b *testing.B) { benchmarkCostEval(b, bench.OTA) }

func BenchmarkTable2EvalTwoStage(b *testing.B) { benchmarkCostEval(b, bench.TwoStage) }

func BenchmarkTable2EvalFoldedCascode(b *testing.B) { benchmarkCostEval(b, bench.FoldedCascode) }

func BenchmarkTable2EvalBiCMOS(b *testing.B) { benchmarkCostEval(b, bench.BiCMOSTwoStage) }

// BenchmarkTable2EvalCorners measures one worst-case candidate
// evaluation of the Simple OTA over nominal + two process corners: a
// Run over the corner lane set, which evaluates each lane in turn
// through the scalar path, plus the WorstCase assembly. It is the
// per-candidate price of corner-aware synthesis next to the
// nominal-only rows above. The `corners` metric records K, so benchjson
// can derive ns per corner evaluation and compare it against the
// single-lane numbers.
func BenchmarkTable2EvalCorners(b *testing.B) {
	src := bench.DeckSource(bench.SimpleOTA) +
		"\n.corner slow temp=85 nmos3.vto=0.95 vdd=2.4\n.corner fast temp=-40 vdd=2.6\n"
	deck, err := netlist.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := astrx.CompileCorners(deck, []string{"slow", "fast"}, astrx.CostOptions{})
	if err != nil {
		b.Fatal(err)
	}
	bw := cs.NewCornerBatch()
	x := make([]float64, cs.NVars())
	for i, v := range cs.Vars() {
		x[i] = v.Start()
	}
	xs := make([][]float64, cs.K())
	for i := range xs {
		xs[i] = cs.LaneX(i, x, nil)
	}
	include := make([]bool, cs.K())
	evaluated := make([]bool, cs.K())
	for i := range include {
		include[i] = true
	}
	bw.Run(xs) // warm the lane workspaces so steady-state allocations are measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bw.Run(xs)
		for j := 0; j < cs.K(); j++ {
			evaluated[j] = bw.Lane(j).Err() == nil
		}
		if cost := cs.WorstCase(bw, include, evaluated); cost.Total <= 0 {
			b.Fatal("degenerate worst-case cost")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cs.K()), "corners")
}

// BenchmarkTable2Synthesis runs a short Simple OTA synthesis per
// iteration — the "CPU time/run" row at miniature scale.
func BenchmarkTable2Synthesis(b *testing.B) {
	src := bench.DeckSource(bench.SimpleOTA)
	for i := 0; i < b.N; i++ {
		res, err := root.Synthesize(src, root.SynthConfig{Seed: int64(i + 1), MaxMoves: 4000})
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Variables()
	}
}

// BenchmarkTable3NovelFC runs a short novel-folded-cascode synthesis —
// Table 3's automatic re-synthesis at miniature scale.
func BenchmarkTable3NovelFC(b *testing.B) {
	src := bench.DeckSource(bench.NovelFC)
	for i := 0; i < b.N; i++ {
		if _, err := root.Synthesize(src, root.SynthConfig{Seed: int64(i + 1), MaxMoves: 3000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Trace measures an annealing run sampled for Fig. 2 (the
// progress-hook overhead included).
func BenchmarkFig2Trace(b *testing.B) {
	d, err := bench.Parse(bench.SimpleOTA)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := oblx.Run(context.Background(), d, oblx.Options{
			Seed: int64(i + 1), MaxMoves: 4000,
			Progress: func(oblx.ProgressEvent) {}, ProgressEvery: 200,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Baselines measures the equation-based baseline: design
// procedure plus reference-simulator evaluation (the "prior approach"
// point of Fig. 3).
func BenchmarkFig3Baselines(b *testing.B) {
	p, err := eqbase.ExtractSquareLaw("c2u")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		d, err := eqbase.DesignOTA(eqbase.Targets{GBWHz: 20e6, SR: 15e6, CL: 1e-12}, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eqbase.Evaluate(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelComparison measures one arm of experiment E6 (BSIM/1.2µ
// short synthesis).
func BenchmarkModelComparison(b *testing.B) {
	src := bench.SimpleOTASource("c1.2u", "nbsim", "pbsim")
	for i := 0; i < b.N; i++ {
		if _, err := root.Synthesize(src, root.SynthConfig{Seed: int64(i + 1), MaxMoves: 3000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAWEvsAC / BenchmarkACSweep: experiment E7's two sides on a
// 40-node RC ladder. The ratio of these two benches is the paper's
// "orders of magnitude faster than SPICE" claim.
func BenchmarkAWEvsAC(b *testing.B) {
	nl := ckttest.RCLadder(40, 1e3, 1e-9)
	sys, err := mna.Build(nl, expr.MapEnv{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, err := awe.NewAnalyzer(sys)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := an.TransferFunction("vin", "n40", "", 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkACSweep is the 200-point direct sweep E7 compares against.
func BenchmarkACSweep(b *testing.B) {
	nl := ckttest.RCLadder(40, 1e3, 1e-9)
	sys, err := mna.Build(nl, expr.MapEnv{})
	if err != nil {
		b.Fatal(err)
	}
	an := acsim.NewAnalyzer(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.LogSweep("vin", "n40", "", 1e3, 1e9, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewtonBias measures the reference Newton bias solve used by
// both the NR annealing moves and the verifier.
func BenchmarkNewtonBias(b *testing.B) {
	comp, err := bench.Compile(bench.SimpleOTA)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, len(comp.Vars()))
	for i, v := range comp.Vars() {
		x[i] = v.Start()
	}
	p := comp.DCProblem(x)
	v0 := make([]float64, p.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dcsolve.Solve(context.Background(), p, v0, dcsolve.Options{GminSteps: 6, MaxIter: 200}); err != nil {
			b.Fatal(err)
		}
	}
}
