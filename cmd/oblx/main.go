// Command oblx synthesizes a circuit from an ASTRX deck: it compiles the
// problem, anneals (optionally several parallel seeded runs, keeping the
// best — the paper's "5-10 annealing runs performed overnight"), then
// verifies the winner against the reference simulator and prints the
// spec-by-spec "OBLX / Simulation" comparison.
//
// Long runs are interruptible: Ctrl-C (or -timeout) stops the annealing
// and reports the best design found so far, and -checkpoint/-resume make
// a run survive process death without losing progress.
//
// Usage:
//
//	oblx [-moves N] [-runs K] [-seed S] <deck-file>
//	oblx -bench "Simple OTA" -moves 120000 -runs 4
//	oblx -bench "Simple OTA" -checkpoint run.ckpt        # interruptible
//	oblx -bench "Simple OTA" -checkpoint run.ckpt -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"astrx/internal/bench"
	"astrx/internal/faults"
	"astrx/internal/linalg"
	"astrx/internal/metrics"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/telemetry"
	"astrx/internal/trace"
	"astrx/internal/verify"
)

// flagProblems collects every flag-validation error at once so a typo'd
// invocation gets one complete diagnosis instead of a fail-fix-fail
// loop. statFn is os.Stat in production, injectable for tests.
func flagProblems(moves, runs, ckptEvery, stageSample int, ckptPath string, resume bool,
	statFn func(string) (os.FileInfo, error)) []string {
	var probs []string
	if moves < 1 {
		probs = append(probs, fmt.Sprintf("-moves must be >= 1 (got %d)", moves))
	}
	if runs < 1 {
		probs = append(probs, fmt.Sprintf("-runs must be >= 1 (got %d)", runs))
	}
	if ckptEvery < 0 {
		probs = append(probs, fmt.Sprintf("-checkpoint-every must be >= 0 (got %d)", ckptEvery))
	}
	if stageSample < 0 {
		probs = append(probs, fmt.Sprintf("-stage-sample must be >= 0 (got %d)", stageSample))
	}
	if resume {
		switch {
		case ckptPath == "":
			probs = append(probs, "-resume requires -checkpoint")
		default:
			if _, err := statFn(ckptPath); err != nil {
				probs = append(probs, fmt.Sprintf("-resume: checkpoint file %q does not exist (%v)", ckptPath, err))
			}
		}
		if runs > 1 {
			probs = append(probs, "-resume is a single-run feature; drop -runs")
		}
	}
	return probs
}

// parseCornersFlag maps the -corners flag value onto the SelectCorners
// convention: "" and "all" select every declared corner (nil), "none"
// forces nominal-only (empty non-nil), anything else is a name list.
func parseCornersFlag(v string) []string {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "", "all":
		return nil
	case "none":
		return []string{}
	}
	var out []string
	for _, n := range strings.Split(v, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

func main() {
	benchName := flag.String("bench", "", "synthesize a builtin benchmark")
	moves := flag.Int("moves", 120_000, "annealing move budget per run")
	runs := flag.Int("runs", 1, "independent seeded runs (best kept)")
	seed := flag.Int64("seed", 1, "base random seed")
	timeout := flag.Duration("timeout", 0, "abort after this long, keeping the best design so far")
	ckptPath := flag.String("checkpoint", "", "write a resumable state snapshot to this file")
	ckptEvery := flag.Int("checkpoint-every", 5000, "moves between checkpoint writes")
	resume := flag.Bool("resume", false, "resume from the -checkpoint file instead of starting fresh")
	noFreeze := flag.Bool("no-freeze", false, "disable the freezing criterion (consume the full move budget)")
	faultPanic := flag.Float64("fault-panic", 0, "inject evaluator panics at this rate (testing)")
	faultNaN := flag.Float64("fault-nan", 0, "inject NaN costs at this rate (testing)")
	faultNewton := flag.Float64("fault-newton", 0, "inject Newton non-convergence at this rate (testing)")
	cornersFlag := flag.String("corners", "", `corners to synthesize against: comma-separated .corner names, "all" (default for cornered decks), or "none" for nominal-only`)
	faultCorner := flag.String("fault-corner", "", "permanently fail this corner's evaluations (chaos testing)")
	showMetrics := flag.Bool("metrics", false, "print a run-metrics summary (Prometheus text format) at exit")
	traceSpans := flag.String("trace-spans", "", "write the run's span tree (JSONL: snapshot header + one span per line; the root span carries a move event per progress sample) to this file")
	stageSample := flag.Int("stage-sample", 0, "sample 1 in N evaluations for per-stage timing, printed at exit (0: off)")
	hashOnly := flag.Bool("hash", false, "print the deck's canonical content hash (the oblxd result-cache key input) and exit")
	flag.Parse()

	if probs := flagProblems(*moves, *runs, *ckptEvery, *stageSample, *ckptPath, *resume, os.Stat); len(probs) > 0 {
		for _, p := range probs {
			fmt.Fprintln(os.Stderr, "oblx:", p)
		}
		fmt.Fprintln(os.Stderr, "usage: oblx [-bench name | deck-file] [-moves N] [-runs K] [-seed S] [-timeout D] [-checkpoint F [-resume]]")
		os.Exit(2)
	}

	var src, title string
	switch {
	case *benchName != "":
		ok := false
		for _, c := range bench.Suite {
			if string(c) == *benchName {
				src, title, ok = bench.DeckSource(c), *benchName, true
			}
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "oblx: unknown benchmark %q\n", *benchName)
			os.Exit(1)
		}
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "oblx:", err)
			os.Exit(1)
		}
		src, title = string(data), flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: oblx [-bench name | deck-file] [-moves N] [-runs K] [-seed S] [-timeout D] [-checkpoint F [-resume]]")
		os.Exit(2)
	}

	if *hashOnly {
		h, err := netlist.CanonicalHash(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oblx:", err)
			os.Exit(1)
		}
		fmt.Println(h)
		return
	}

	deck, err := netlist.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oblx:", err)
		os.Exit(1)
	}
	if err := deck.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "oblx: deck failed validation:")
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// SIGINT/SIGTERM cancel the run; the annealer returns best-so-far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opt := oblx.Options{
		Seed:            *seed,
		MaxMoves:        *moves,
		NoFreeze:        *noFreeze,
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		Corners:         parseCornersFlag(*cornersFlag),
	}
	var timer *telemetry.EvalTimer
	if *stageSample > 0 {
		timer = telemetry.NewEvalTimer(*stageSample)
		opt.StageTimer = timer
	}
	// -trace-spans records the run as one span tree — the same record
	// oblxd serves at GET /v1/jobs/{id}/trace, produced offline: a move
	// event on the root span per progress sample (every 500 moves),
	// stage.<name>_us attributes on the anneal span under -stage-sample,
	// and eval spans on the -stage-sample cadence.
	var spanRec *trace.Recorder
	var rootSpan *trace.Active
	if *traceSpans != "" {
		tid := trace.TraceIDFromRequest("")
		spanRec = trace.NewRecorder(trace.Context{TraceID: tid, SpanID: trace.RootSpanID(tid)}, *moves)
		opt.Trace = spanRec
		rootSpan = spanRec.BeginRoot("oblx", "")
		rootSpan.SetAttr("deck", title)
		opt.Progress = func(ev oblx.ProgressEvent) { rootSpan.Event("move", ev.MoveAttrs()...) }
		if timer != nil {
			timer.OnSample(func(s telemetry.Stage, d time.Duration) {
				spanRec.RecordEval(s.String(), d)
			})
		}
	}
	if *faultPanic > 0 || *faultNaN > 0 || *faultNewton > 0 || *faultCorner != "" {
		rates := faults.Rates{
			EvalPanic: *faultPanic, NaNCost: *faultNaN, NewtonFail: *faultNewton,
		}
		if *faultCorner != "" {
			rates.CornerFail, rates.FailCorner = 1, *faultCorner
		}
		opt.Faults = faults.New(*seed+997, rates)
	}
	if *resume {
		ck, err := oblx.LoadCheckpoint(*ckptPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oblx:", err)
			os.Exit(1)
		}
		opt.Resume = ck
		fmt.Printf("resuming from %s (move %d of %d)\n", *ckptPath, ck.Anneal.Move, ck.MaxMoves)
	}

	// The trace is most valuable when the run dies, so it is written on
	// the error exits too, not just after a clean finish: end the root
	// with the outcome, then write.
	dumpTrace := func(status string) {
		if spanRec != nil {
			rootSpan.End(status)
			if err := writeSpans(*traceSpans, title, status, spanRec); err != nil {
				fmt.Fprintln(os.Stderr, "oblx: warning:", err)
			}
		}
	}

	var best *oblx.Result
	if *runs <= 1 {
		best, err = oblx.Run(ctx, deck, opt)
		if err != nil {
			dumpTrace("error")
			fmt.Fprintln(os.Stderr, "oblx:", err)
			os.Exit(1)
		}
	} else {
		var errs []error
		best, _, errs = oblx.RunBest(ctx, deck, *runs, opt)
		for i, e := range errs {
			if e != nil {
				fmt.Fprintf(os.Stderr, "oblx: warning: run %d failed: %v\n", i, e)
			}
		}
		if best == nil {
			dumpTrace("error")
			fmt.Fprintln(os.Stderr, "oblx: all runs failed")
			os.Exit(1)
		}
	}
	switch {
	case best.Cancelled:
		dumpTrace("cancelled")
	default:
		dumpTrace("ok")
	}

	fmt.Printf("OBLX synthesis of %s (seed %d, %d moves", title, best.Seed, best.Moves)
	if best.Froze {
		fmt.Printf(", froze early")
	}
	if best.Cancelled {
		fmt.Printf(", CANCELLED — best-so-far design")
	}
	fmt.Printf(")\n")
	fmt.Printf("  cost: obj %.4g, perf %.4g, dev %.4g, dc %.4g (total %.4g)\n",
		best.Cost.Objective, best.Cost.Perf, best.Cost.Dev, best.Cost.DC, best.Cost.Total)
	if best.EvalCount > 0 {
		fmt.Printf("  time/ckt eval: %v; CPU/run: %v (%d evaluations)\n",
			best.TimePerEval().Round(time.Microsecond), best.Duration.Round(time.Millisecond), best.EvalCount)
	} else {
		fmt.Printf("  time/ckt eval: n/a (no evaluations ran); CPU/run: %v\n",
			best.Duration.Round(time.Millisecond))
	}
	if f := best.Failures; f.Total() > 0 {
		fmt.Printf("  failures absorbed: %d panics recovered, %d non-finite costs, %d retries, %d quarantined, %d moves rejected\n",
			f.PanicsRecovered, f.NonFiniteCosts, f.Retries, f.Quarantined, f.RejectedMoves)
	}
	if best.CheckpointErr != nil {
		fmt.Fprintf(os.Stderr, "oblx: warning: checkpoint writes failed: %v\n", best.CheckpointErr)
	}
	if len(best.Corners) > 0 {
		if best.Degraded {
			fmt.Println("  DEGRADED: at least one corner was quarantined; the design is worst-case optimal over the surviving corners only")
		}
		fmt.Println("  corners (worst-case synthesis):")
		for _, cr := range best.Corners {
			status := "all specs met"
			switch {
			case cr.Quarantined:
				status = fmt.Sprintf("QUARANTINED after %d failures (%d retries)", cr.Fails, cr.Retries)
			case !cr.Evaluated:
				status = "final evaluation FAILED"
			case !cr.AllMet:
				status = "specs NOT met"
			}
			dc := ""
			if cr.Evaluated && !cr.DCSolved {
				dc = ", bias not dc-solved"
			}
			fmt.Printf("    %-10s %s%s\n", cr.Name, status, dc)
		}
	}
	fmt.Println("  design variables:")
	for i := 0; i < best.Compiled.NUser; i++ {
		fmt.Printf("    %-10s = %.5g\n", best.Compiled.Vars()[i].Name, best.X[i])
	}

	rep, err := verify.Design(best.Compiled, best.X, best.State.SpecVals)
	if err != nil {
		// A cancelled run's half-annealed point may not verify; that is a
		// caveat on the partial result, not a failure of the command.
		if best.Cancelled {
			fmt.Fprintln(os.Stderr, "oblx: warning: best-so-far design did not verify:", err)
			return
		}
		fmt.Fprintln(os.Stderr, "oblx: verification:", err)
		os.Exit(1)
	}
	fmt.Println("  specification           OBLX        / Simulation   (relerr)")
	for _, row := range rep.Specs {
		met := "met"
		if !row.Met {
			met = "NOT MET"
			if row.Objective {
				met = "objective"
			}
		}
		fmt.Printf("    %-10s %14.6g / %-14.6g (%.2g)  %s\n",
			row.Name, row.Predicted, row.Simulated, row.RelErr, met)
	}
	fmt.Printf("  reference bias: %d Newton iterations, max |KCL| %.3g A\n",
		rep.BiasIterations, rep.MaxKCL)

	if timer != nil {
		printStages(timer, best.FactorCounts)
	}
	if *showMetrics {
		printMetrics(best)
	}
}

// writeSpans dumps the recorder's span tree to path in the same JSONL
// snapshot format oblxd seals to its state dir (header line, then one
// span per line).
func writeSpans(path, label, cause string, rec *trace.Recorder) error {
	spans := rec.Snapshot()
	data, err := trace.EncodeSnapshot(trace.SnapshotHeader{
		TraceID: rec.TraceID(),
		Label:   label,
		Cause:   cause,
		Time:    time.Now(),
		Dropped: rec.Dropped(),
	}, spans)
	if err != nil {
		return fmt.Errorf("trace spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "oblx: wrote %d trace spans to %s\n", len(spans), path)
	return nil
}

// printStages renders the sampled per-stage eval timing collected under
// -stage-sample: where each evaluated circuit actually spends its time,
// and which factorization path the run's evaluations took.
func printStages(timer *telemetry.EvalTimer, fc linalg.FactorCounts) {
	bd := timer.Breakdown()
	if len(bd) == 0 {
		return
	}
	fmt.Printf("  eval stage timing (sampled 1 in %d):\n", timer.SampleEvery())
	for _, b := range bd {
		mean := time.Duration(b.MeanSeconds * 1e9)
		fmt.Printf("    %-10s %12v mean over %d samples\n",
			b.Stage, mean.Round(time.Nanosecond), b.SampledEvals)
	}
	fmt.Printf("  factorizations: %d sparse, %d dense fallback, %d symbolic-cache misses\n",
		fc.Sparse, fc.Dense, fc.SymbolicMisses)
}

// printMetrics renders the run's statistics through the same metrics
// registry oblxd serves at /debug/metrics, so scripted users get one
// machine-readable format from both the CLI and the daemon.
func printMetrics(best *oblx.Result) {
	reg := metrics.New()
	reg.Counter("oblx_evals_total").Add(int64(best.EvalCount))
	reg.SetHelp("oblx_evals_total", "circuit evaluations this run")
	reg.Counter("oblx_moves_total").Add(int64(best.Moves))
	reg.Counter("oblx_moves_accepted_total").Add(int64(best.Accepted))
	if secs := best.Duration.Seconds(); secs > 0 {
		reg.Gauge("oblx_evals_per_sec").Set(float64(best.EvalCount) / secs)
	}
	reg.Gauge("oblx_time_per_eval_seconds").Set(best.TimePerEval().Seconds())
	reg.Gauge("oblx_run_seconds").Set(best.Duration.Seconds())
	reg.Gauge("oblx_cost_total").Set(best.Cost.Total)
	f := best.Failures
	for name, v := range map[string]int{
		"panic_recovered": f.PanicsRecovered, "non_finite_cost": f.NonFiniteCosts,
		"retry": f.Retries, "quarantined": f.Quarantined, "rejected_move": f.RejectedMoves,
	} {
		reg.Counter("oblx_failures_total", "kind", name).Add(int64(v))
	}
	fmt.Println()
	reg.WriteText(os.Stdout)
}
