package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"astrx/internal/anneal"
	"astrx/internal/astrx"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/telemetry"
	"astrx/internal/verify"
)

// deckSpec is one deck of a workload.
type deckSpec struct {
	name string
	src  string
}

// synthConfig is a closed-loop synthesis workload: one goroutine runs
// every (deck, anneal seed) pair of the corpus in turn, each a
// fixed-budget oblx.Run followed by verify.Design.
type synthConfig struct {
	decks []deckSpec
	// seeds are the anneal seeds of the corpus. They are fixed, not
	// drawn from the benchmark seed: one run's cost varies up to 60x
	// with its anneal seed (a declined-move storm evaluates 119 of 8,000
	// moves), so a corpus redrawn per benchmark seed would need far more
	// runs than fit in a run to read within a few percent. The benchmark
	// seed orders the corpus instead. Many short runs rather than a few
	// long ones keep the median run time steady.
	seeds []int64
	moves int
	// corners anneals the worst case over every .corner card of the
	// deck; otherwise the run is nominal-only.
	corners bool
}

// synthRun is what one synthesis run leaves for the metrics. It keeps
// numbers, not the result: a result holds its compiled deck, and keeping
// every one would make rss_max_mb grow with the number of runs.
type synthRun struct {
	run    time.Duration // the oblx.Run call: compile, anneal, polish, final eval
	anneal time.Duration // Result.Duration
	verify time.Duration
	wall   time.Duration
	cost   float64
	// worstRelErr, met and specs come from verify.Report: the worst
	// prediction error and the non-objective specs met out of all.
	worstRelErr float64
	met, specs  int
	counts      runCounts
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median. Set-up takes milliseconds, so repeating it is cheap.
const setupReps = 21

// setupGap is the pause before each set-up. Spread over two seconds, the
// set-ups sample the machine's speed, which changes from second to
// second on a shared host, instead of one instant of it: between runs,
// the spread of setup_s halved on synth-corners and serve-mixed. Each
// set-up also starts cold, as a real one does.
const setupGap = 100 * time.Millisecond

// synthSetup parses and compiles every deck of the workload and
// evaluates each once at its start point.
func synthSetup(cfg synthConfig) (parse, compile, total time.Duration, err error) {
	for _, d := range cfg.decks {
		t0 := time.Now()
		deck, err := netlist.Parse(d.src)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: parse: %w", d.name, err)
		}
		t1 := time.Now()
		var first func() float64
		if cfg.corners {
			names, err := astrx.SelectCorners(deck, nil)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("%s: corners: %w", d.name, err)
			}
			cs, err := astrx.CompileCorners(deck, names, astrx.CostOptions{})
			if err != nil {
				return 0, 0, 0, fmt.Errorf("%s: compile: %w", d.name, err)
			}
			first = func() float64 { return firstCornerEval(cs) }
		} else {
			c, err := astrx.Compile(deck, astrx.CostOptions{})
			if err != nil {
				return 0, 0, 0, fmt.Errorf("%s: compile: %w", d.name, err)
			}
			first = func() float64 { return c.Cost(startPoint(c.Vars())) }
		}
		t2 := time.Now()
		if cost := first(); math.IsNaN(cost) || cost <= 0 {
			return 0, 0, 0, fmt.Errorf("%s: start-point cost %g", d.name, cost)
		}
		parse += t1.Sub(t0)
		compile += t2.Sub(t1)
		total += time.Since(t0)
	}
	return parse, compile, total, nil
}

// firstCornerEval runs one worst-case evaluation of the start point
// through the K-lane batch workspace.
func firstCornerEval(cs *astrx.CornerSet) float64 {
	x := startPoint(cs.Vars())
	xs := make([][]float64, cs.K())
	include := make([]bool, cs.K())
	evaluated := make([]bool, cs.K())
	for i := range xs {
		xs[i] = cs.LaneX(i, x, nil)
		include[i] = true
	}
	bw := cs.NewCornerBatch()
	bw.Run(xs)
	for i := range evaluated {
		evaluated[i] = bw.Lane(i).Err() == nil
	}
	return cs.WorstCase(bw, include, evaluated).Total
}

func startPoint(vars []anneal.VarSpec) []float64 {
	x := make([]float64, len(vars))
	for i := range vars {
		x[i] = vars[i].Start()
	}
	return x
}

// runSynth measures a synthesis workload: set-up, then passes over the
// corpus in seeded order until the window is used (at least one pass; a
// pass that would overrun the window is not started).
func runSynth(ctx context.Context, cfg synthConfig, env runEnv) (*measurement, error) {
	m := newMeasurement()
	var setups, parses, compiles []float64
	for i := 0; i < setupReps; i++ {
		time.Sleep(env.setupGap)
		p, c, t, err := synthSetup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, t.Seconds())
		parses = append(parses, ms(p))
		compiles = append(compiles, ms(c))
	}
	m.set("setup_s", percentile(setups, 50))
	m.note("setup_s", "median of %d", setupReps)
	m.set("netlist.parse_ms", percentile(parses, 50))
	m.set("astrx.compile_ms", percentile(compiles, 50))

	type item struct {
		deck deckSpec
		seed int64
	}
	var corpus []item
	for _, d := range cfg.decks {
		for _, s := range cfg.seeds {
			corpus = append(corpus, item{d, s})
		}
	}
	order := rand.New(rand.NewSource(env.seed)).Perm(len(corpus))

	// The stage clock samples every scalar eval of a traced run. The
	// batched corner path is not clocked, so a cornered workload reports
	// no stage breakdown rather than one drawn from its few scalar
	// re-evaluations.
	var timer *telemetry.EvalTimer
	if env.traced && !cfg.corners {
		timer = telemetry.NewEvalTimer(1)
	}
	rt0 := readRuntime()
	start := time.Now()
	var runs []synthRun
	firstPass := 0
	for pass := 0; ; pass++ {
		passStart := time.Now()
		for _, i := range order {
			it := corpus[i]
			r, err := synthOnce(ctx, cfg, it.deck, it.seed, timer, env.spans)
			m.attempted++
			if err != nil {
				m.fail("%s seed %d: %v", it.deck.name, it.seed, err)
				continue
			}
			runs = append(runs, r)
		}
		if pass == 0 {
			firstPass = len(runs)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		elapsed := time.Since(start)
		if elapsed+time.Since(passStart) > env.window {
			break
		}
	}
	elapsed := time.Since(start)
	rt1 := readRuntime()
	if len(runs) == 0 {
		return m, nil
	}

	var walls, anneals, posts, verifies, costs []float64
	var evals, annealSecs float64
	for _, r := range runs {
		walls = append(walls, r.wall.Seconds())
		anneals = append(anneals, r.anneal.Seconds())
		posts = append(posts, ms(r.run-r.anneal))
		verifies = append(verifies, ms(r.verify))
		evals += float64(r.counts.evals)
		annealSecs += r.anneal.Seconds()
	}
	n := float64(len(runs))
	m.setTiming("run_s_p50", "", walls)
	m.set("evals_per_cpu_s", ratio(evals, rt1.processCPU-rt0.processCPU))
	m.set("jobs_per_s", n/elapsed.Seconds())
	m.note("jobs_per_s", "%d runs in %.1f s", len(runs), elapsed.Seconds())

	// Quality comes from the first pass: later passes repeat the same
	// deterministic runs.
	met, total, worst := 0, 0, 0.0
	for _, r := range runs[:firstPass] {
		costs = append(costs, r.cost)
		worst = math.Max(worst, r.worstRelErr)
		met += r.met
		total += r.specs
	}
	m.set("specs_met_frac", ratio(float64(met), float64(total)))
	m.note("specs_met_frac", "%d/%d", met, total)
	m.setTiming("final_cost_p50", "", costs)
	m.set("worst_rel_err", worst)

	counts := make([]runCounts, len(runs))
	for i, r := range runs {
		counts[i] = r.counts
	}
	annealStats(m, counts)
	m.setTiming("oblx.anneal_s_p50", "", anneals)
	m.setTiming("oblx.post_ms_p50", "", posts)
	m.setTiming("verify.design_ms_p50", "", verifies)
	m.set("runtime.alloc_mb_per_run", float64(rt1.allocBytes-rt0.allocBytes)/1e6/n)
	m.set("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	if timer != nil {
		stageStats(m, timer.Breakdown(), evals, annealSecs)
	}
	return m, nil
}

// synthOnce runs one corpus item and checks its output: the run must
// finish uncancelled and dc-correct, and verify without error with
// every predicted and simulated spec value finite.
func synthOnce(ctx context.Context, cfg synthConfig, d deckSpec, seed int64, timer *telemetry.EvalTimer, spans *spanLog) (synthRun, error) {
	t0 := time.Now()
	deck, err := netlist.Parse(d.src)
	t1 := time.Now()
	if err != nil {
		return synthRun{}, err
	}
	opt := oblx.Options{Seed: seed, MaxMoves: cfg.moves, NoFreeze: true, StageTimer: timer}
	if !cfg.corners {
		opt.Corners = []string{}
	}
	res, err := oblx.Run(ctx, deck, opt)
	t2 := time.Now()
	if err != nil {
		return synthRun{}, err
	}
	rep, verr := verify.Design(res.Compiled, res.X, res.State.SpecVals)
	t3 := time.Now()
	if tid := spans.newTrace(); tid != "" {
		root := spans.add(tid, "", "run", t0, t3)
		spans.add(tid, root, "netlist.parse", t0, t1)
		spans.add(tid, root, "oblx.run", t1, t2)
		spans.add(tid, root, "verify.design", t2, t3)
	}
	switch {
	case verr != nil:
		return synthRun{}, verr
	case res.Cancelled:
		return synthRun{}, fmt.Errorf("run cancelled")
	case !res.DCSolved:
		return synthRun{}, fmt.Errorf("final design is not dc-correct")
	}
	for name, v := range res.State.SpecVals {
		if !finite(v) {
			return synthRun{}, fmt.Errorf("predicted %s = %g", name, v)
		}
	}
	r := synthRun{
		run: t2.Sub(t1), anneal: res.Duration, verify: t3.Sub(t2), wall: t3.Sub(t0),
		cost: res.Cost.Total, worstRelErr: rep.WorstRelErr,
		counts: runCounts{res.Moves, res.EvalCount, res.Accepted, res.MoveStats, res.Failures, res.Degraded},
	}
	for _, s := range rep.Specs {
		if !finite(s.Simulated) {
			return synthRun{}, fmt.Errorf("simulated %s = %g", s.Name, s.Simulated)
		}
		if !s.Objective {
			r.specs++
			if s.Met {
				r.met++
			}
		}
	}
	return r, nil
}

// runCounts are the counters one synthesis run reports, read from an
// oblx.Result or from a job's result view.
type runCounts struct {
	moves, evals, accepted int
	stats                  []anneal.MoveStat
	failures               oblx.FailureStats
	degraded               bool
}

// annealStats records the anneal and oblx counters as per-run means.
func annealStats(m *measurement, results []runCounts) {
	if len(results) == 0 {
		return
	}
	var moves, evals, accepted, failures, unstable, cornerFails, degraded float64
	class := make(map[string]*[3]float64)
	for _, mc := range moveClasses {
		class[mc] = new([3]float64)
	}
	for _, r := range results {
		moves += float64(r.moves)
		evals += float64(r.evals)
		accepted += float64(r.accepted)
		failures += float64(r.failures.Total())
		unstable += float64(r.failures.Unstable)
		for _, cf := range r.failures.Corners {
			cornerFails += float64(cf.Fails)
		}
		if r.degraded {
			degraded++
		}
		for _, st := range r.stats {
			if c := class[st.Name]; c != nil {
				c[0] += float64(st.Proposed)
				c[1] += float64(st.Accepted)
				c[2] += float64(st.Failed)
			}
		}
	}
	n := float64(len(results))
	m.set("anneal.moves", moves/n)
	m.set("anneal.evals", evals/n)
	m.set("anneal.eval_frac", ratio(evals, moves))
	m.set("anneal.accept_frac", ratio(accepted, moves))
	for _, mc := range moveClasses {
		c := class[mc]
		m.set("anneal."+mc+".proposed", c[0]/n)
		m.set("anneal."+mc+".accepted", c[1]/n)
		m.set("anneal."+mc+".failed", c[2]/n)
	}
	m.set("oblx.failures", failures/n)
	m.set("oblx.unstable", unstable/n)
	m.set("oblx.corner_fails", cornerFails/n)
	m.set("oblx.degraded_frac", degraded/n)
	for _, name := range []string{"anneal.moves", "anneal.evals", "oblx.failures"} {
		m.note(name, "mean of %d runs", len(results))
	}
}

// stageStats records the per-stage eval breakdown, its sum, and the
// share of anneal time the evals account for.
func stageStats(m *measurement, bd []telemetry.StageBreakdown, evals, annealSecs float64) {
	sumUS := 0.0
	for _, b := range bd {
		us := b.MeanSeconds * 1e6
		m.set("astrx.stage."+b.Stage+"_us", us)
		m.note("astrx.stage."+b.Stage+"_us", "n=%d", b.SampledEvals)
		sumUS += us
	}
	if len(bd) == 0 {
		return
	}
	m.set("astrx.eval_us", sumUS)
	m.set("astrx.eval_share", ratio(evals*sumUS*1e-6, annealSecs))
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
