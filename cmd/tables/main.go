// Command tables regenerates every table and figure of the paper's
// evaluation section (see EXPERIMENTS.md for the experiment index).
//
// Usage:
//
//	tables -table 1                 # ASTRX analyses (fast, no synthesis)
//	tables -table 2 -moves 120000   # synthesis results, Table-2 suite
//	tables -table 3                 # novel folded cascode vs manual
//	tables -fig 2                   # KCL discrepancy trace
//	tables -fig 3                   # effort/error scatter
//	tables -exp models              # E6 model/process comparison
//	tables -exp awe                 # E7 AWE scaling
//	tables -all                     # everything (long)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"astrx/internal/bench"
	"astrx/internal/eqbase"
	"astrx/internal/oblx"
)

func main() {
	table := flag.Int("table", 0, "regenerate a table (1, 2, or 3)")
	fig := flag.Int("fig", 0, "regenerate a figure (2 or 3)")
	exp := flag.String("exp", "", "run an extra experiment: models, awe")
	all := flag.Bool("all", false, "regenerate everything")
	moves := flag.Int("moves", oblx.DefaultMaxMoves, "annealing move budget per run")
	runs := flag.Int("runs", 2, "independent runs per synthesis (best kept)")
	seed := flag.Int64("seed", 1, "base random seed")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := bench.SynthOptions{Seed: *seed, MaxMoves: *moves, Runs: *runs}
	did := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}

	if *all || *table == 1 {
		did = true
		rows, err := bench.Table1()
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable1(rows))
	}
	if *all || *table == 2 {
		did = true
		rs, err := bench.Table2(ctx, opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable2(rs))
	}
	if *all || *table == 3 {
		did = true
		res, err := bench.Table3(ctx, opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatTable3(res))
	}
	if *all || *fig == 2 {
		did = true
		trace, err := bench.Fig2(ctx, opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatFig2(trace))
	}
	if *all || *fig == 3 {
		did = true
		pts, err := runFig3(ctx, opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatFig3(pts))
	}
	if *all || *exp == "models" {
		did = true
		rs, err := bench.ModelComparison(ctx, opt)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatModelComparison(rs))
	}
	if *all || *exp == "awe" {
		did = true
		pts, err := bench.AWEScaling(nil)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatAWEScaling(pts))
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
}

// runFig3 measures the two live Fig. 3 points (eqbase and ASTRX/OBLX on
// the Simple OTA) and merges them with the literature cluster.
func runFig3(ctx context.Context, opt bench.SynthOptions) ([]bench.Fig3Point, error) {
	// Equation-based point: design + evaluate, timing the "tool" part.
	proc, err := eqbase.ExtractSquareLaw("c2u")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := eqbase.DesignOTA(eqbase.Targets{GBWHz: 20e6, SR: 15e6, CL: 1e-12}, proc)
	if err != nil {
		return nil, err
	}
	ev, err := eqbase.Evaluate(d)
	if err != nil {
		return nil, err
	}
	eqCPU := time.Since(t0)
	// 1000 lines ≈ 1 month ≈ 170 h (the paper's own conversion).
	eqPrepHours := float64(eqbase.EquationLines) / 1000.0 * 170.0

	// ASTRX/OBLX point on the same circuit.
	res, err := bench.Synthesize(ctx, bench.SimpleOTA, opt)
	if err != nil {
		return nil, err
	}
	deckPrep, err := bench.DeckPrepHours(bench.SimpleOTA)
	if err != nil {
		return nil, err
	}
	comp := res.Run.Compiled
	complexity := len(comp.Bias.DevOrder) + comp.NUser

	return bench.Fig3(opt,
		eqPrepHours, deckPrep,
		ev.WorstErr*100, eqCPU,
		res.Report.WorstRelErr*100, res.Run.Duration,
		complexity), nil
}
