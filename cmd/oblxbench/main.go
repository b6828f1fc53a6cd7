// Command oblxbench is the end-to-end benchmark of the synthesis system:
// two closed-loop synthesis workloads that call oblx.Run and
// verify.Design directly, and one open-loop serving workload against an
// in-process oblxd over loopback HTTP. It checks every output, prints
// every metric by name with its unit, and ends with one JSON result
// line. Layers are measured from outside, by timing the benchmark's own
// calls into netlist, astrx, oblx, verify and server.
//
//	go run ./cmd/oblxbench                        # every workload, each in a child process
//	go run ./cmd/oblxbench -workload serve-mixed -seed 3 -trace 1
//	go run ./cmd/oblxbench -repeat 10 > runs.json
//	go run ./cmd/oblxbench -check BENCHMARK.json  # compare against baseline.json, same runs
//
// See README.md in this directory for the metrics and the workloads.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"time"

	"astrx/internal/bench"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	synth *synthConfig
	serve *serveConfig
}

// cornerCards are the process corners BenchmarkTable2EvalCorners uses.
const cornerCards = "\n.corner slow temp=85 nmos3.vto=0.95 vdd=2.4\n.corner fast temp=-40 vdd=2.6\n"

func deck(c bench.Circuit) deckSpec { return deckSpec{string(c), bench.DeckSource(c)} }

// workloads are the benchmark's workloads. Each stresses different
// layers, so that an optimization of one has a workload that exercises
// it and one that bypasses it.
func workloads() []workload {
	var table2 []deckSpec
	for _, c := range bench.Table2Suite {
		table2 = append(table2, deck(c))
	}
	return []workload{
		// The scalar eval stages (fit, factor, solve) and the Newton moves
		// do almost all the work; the server is bypassed. The move budget
		// is fixed (no freezing), so wall time tracks work per move.
		{name: "synth-nominal", synth: &synthConfig{
			decks: table2, seeds: []int64{1, 2, 3, 4, 5}, moves: 4000,
		}},
		// The same eval layer reached through the K = 3 batched
		// BatchWorkspace/SparseBatchLU path and the corner Newton moves:
		// a change to the scalar workspace not carried into the batch path
		// shows here, and the reverse.
		{name: "synth-corners", synth: &synthConfig{
			decks:   []deckSpec{{"Simple OTA corners", bench.DeckSource(bench.SimpleOTA) + cornerCards}},
			seeds:   []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
			moves:   4000,
			corners: true,
		}},
		// Resubmissions never reach the eval layers, so they isolate the
		// HTTP, scheduling, persistence and cache layers; new jobs add the
		// queue, the progress hook and the verify step. Neither synthesis
		// workload runs any of these.
		{name: "serve-mixed", serve: &serveConfig{
			decks:        []deckSpec{deck(bench.SimpleOTA), deck(bench.TwoStage)},
			moves:        1000,
			rate:         8,
			warmup:       2,
			workers:      2,
			pollEvery:    20 * time.Millisecond,
			drainTimeout: 60 * time.Second,
		}},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runEnv is what one workload run is given besides its configuration.
type runEnv struct {
	seed     int64
	window   time.Duration
	setupGap time.Duration // setupGap, or less to shorten a test
	traced   bool
	spans    *spanLog // nil unless traced
	workDir  string   // scratch space for state directories
}

// workDir holds server state and span files, under the working
// directory (the checkout, when run by run.sh).
const workDir = ".oblxbench"

// baselinePath is the -repeat summary -check compares against, relative
// to the root of the checkout.
const baselinePath = "cmd/oblxbench/baseline.json"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	repeat   int
	check    string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("oblxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this workload in this process (default: every workload, each in its own child process)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: arrival schedule and run order")
	fs.IntVar(&o.seconds, "seconds", 30, "measuring window per workload run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: stage clocks and spans on, per-layer metrics reported, spans written to "+workDir+"/trace-<workload>.jsonl")
	fs.IntVar(&o.repeat, "repeat", 0, "run every workload N times, untraced and traced, with seeds seed..seed+N-1, and print each metric's median and quartiles as JSON")
	fs.StringVar(&o.check, "check", "", "run -repeat runs (default: as many as the baseline has) and compare their medians against "+baselinePath+" with the bounds of this BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.repeat < 0 {
		fmt.Fprintln(stderr, "oblxbench: want -seconds >= 1, -trace 0 or 1, -repeat >= 0, and no positional arguments")
		return 2
	}
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			fmt.Fprintf(stderr, "oblxbench: unknown workload %q\n", o.workload)
			return 2
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case o.check != "":
		return runCheck(ctx, o, stdout, stderr)
	case o.repeat > 0:
		sum, err := repeatRuns(ctx, o, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "oblxbench:", err)
			return 1
		}
		if err := writeSummary(sum, stdout); err != nil {
			fmt.Fprintln(stderr, "oblxbench:", err)
			return 1
		}
		return 0
	case o.workload != "":
		return runOne(ctx, o, stdout, stderr)
	}
	return runAll(ctx, o, stdout, stderr)
}

// runAll runs every workload in its own child process, copying each
// child's output, and ends with one result line for all of them: the
// checks summed, each metric named <workload>/<metric>. A child that
// printed no result counts as one failed check.
func runAll(ctx context.Context, o options, stdout, stderr io.Writer) int {
	all := result{Correct: true, Metrics: make(map[string]metricValue)}
	status := 0
	for _, w := range workloads() {
		child := o
		child.workload = w.name
		r, err := runChild(ctx, child, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "oblxbench: %s: %v\n", w.name, err)
			status = 1
		}
		if r == nil {
			all.Correct = false
			all.Attempted++
			all.Failed++
			continue
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for name, mv := range r.Metrics {
			all.Metrics[w.name+"/"+name] = mv
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "oblxbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return status
}

// runOne runs one workload in this process and prints its metrics and
// result line. It exits 1 on any failed output check.
func runOne(ctx context.Context, o options, stdout, stderr io.Writer) int {
	w, _ := findWorkload(o.workload)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "oblxbench:", err)
		return 1
	}
	env := runEnv{
		seed: o.seed, window: time.Duration(o.seconds) * time.Second, setupGap: setupGap,
		traced: o.trace == 1, workDir: workDir,
	}
	if env.traced {
		env.spans = &spanLog{}
	}
	m, err := measure(ctx, w, env)
	if err != nil {
		fmt.Fprintf(stderr, "oblxbench: %s: %v\n", w.name, err)
		return 1
	}
	if env.traced {
		shares, gap := selfBreakdown(env.spans.spans)
		for _, s := range selfSpans {
			m.set("self."+s, shares[s])
		}
		m.set("trace.self_gap_frac", gap)
		// -repeat pairs this with the untraced run's evals_per_cpu_s
		// into trace.overhead_frac.
		m.set("trace.evals_per_cpu_s", m.values["evals_per_cpu_s"])
		path := filepath.Join(workDir, "trace-"+w.name+".jsonl")
		if err := env.spans.writeJSONL(path); err != nil {
			fmt.Fprintln(stderr, "oblxbench: write spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# %d spans written to %s\n", len(env.spans.spans), path)
	}
	r := buildResult(m, env.traced)
	printHuman(stdout, w.name, m, r)
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(stderr, "oblxbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// measure runs the workload and adds the process-wide metrics.
func measure(ctx context.Context, w workload, env runEnv) (*measurement, error) {
	var (
		m   *measurement
		err error
	)
	if w.synth != nil {
		m, err = runSynth(ctx, *w.synth, env)
	} else {
		m, err = runServe(ctx, *w.serve, env)
	}
	if err != nil {
		return nil, err
	}
	m.set("rss_max_mb", rssMaxMB())
	return m, nil
}

// runChild re-executes this binary for one workload, so that peak RSS
// is per workload, copying its output to stdout (when non-nil) and
// returning its result line. A child that fails a check still returns
// its result, with the error.
func runChild(ctx context.Context, o options, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace)}
	var buf bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	cmd.Stdout = &buf
	if stdout != nil {
		cmd.Stdout = io.MultiWriter(&buf, stdout)
	}
	runErr := cmd.Run()
	r, perr := lastResult(buf.Bytes())
	if perr != nil {
		return nil, errors.Join(runErr, perr)
	}
	return r, runErr
}

// lastResult parses the result line: the last line of the output.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil || r.Metrics == nil {
		return nil, fmt.Errorf("no result line in the output")
	}
	return &r, nil
}
