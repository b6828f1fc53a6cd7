package main

import (
	"fmt"
	"io"
	"math"
	"strings"

	"astrx/internal/telemetry"
)

// metricDef is one metric of the benchmark. BENCHMARK.json lists the
// same names, units and directions (a test keeps the two in step) and
// adds the end-to-end bounds, which come from measured spread.
type metricDef struct {
	Name     string
	Unit     string
	Better   string // "lower" or "higher"
	EndToEnd bool
}

// moveClasses are oblx's annealing move classes, in palette order.
var moveClasses = []string{"random", "all-cont", "newton-full", "newton-step"}

// selfSpans are the span names the traced run records; self.<name> is
// each one's share of the traced wall time.
var selfSpans = []string{
	// synthesis runs
	"run", "netlist.parse", "oblx.run", "verify.design",
	// serving jobs
	"job", "harness.late", "server.submit", "server.queue", "server.exec", "harness.poll", "server.result",
}

// catalog lists every metric: the end-to-end ones first (every workload
// reports each of them, untraced), then the per-layer ones (reported by
// the traced run; a layer the workload bypasses reads 0). The tracing
// overhead is not here: no single run measures it, and -repeat derives
// it as overheadMetric.
var catalog = buildCatalog()

func buildCatalog() []metricDef {
	e2e := func(name, unit, better string) metricDef { return metricDef{name, unit, better, true} }
	layer := func(name, unit, better string) metricDef { return metricDef{name, unit, better, false} }
	c := []metricDef{
		e2e("setup_s", "s", "lower"),
		e2e("evals_per_cpu_s", "1/s", "higher"),
		e2e("specs_met_frac", "frac", "higher"),
		e2e("final_cost_p50", "cost", "lower"),
		e2e("worst_rel_err", "frac", "lower"),
		e2e("rss_max_mb", "MB", "lower"),

		layer("run_s_p50", "s", "lower"),
		layer("jobs_per_s", "1/s", "higher"),
		layer("netlist.parse_ms", "ms", "lower"),
		layer("astrx.compile_ms", "ms", "lower"),
	}
	for _, s := range telemetry.StageNames() {
		c = append(c, layer("astrx.stage."+s+"_us", "us", "lower"))
	}
	c = append(c,
		layer("astrx.eval_us", "us", "lower"),
		layer("astrx.eval_share", "frac", "lower"),
		layer("anneal.moves", "1/run", "higher"),
		layer("anneal.evals", "1/run", "higher"),
		layer("anneal.eval_frac", "frac", "higher"),
		layer("anneal.accept_frac", "frac", "higher"),
	)
	for _, mc := range moveClasses {
		c = append(c,
			layer("anneal."+mc+".proposed", "1/run", "higher"),
			layer("anneal."+mc+".accepted", "1/run", "higher"),
			layer("anneal."+mc+".failed", "1/run", "lower"),
		)
	}
	c = append(c,
		layer("oblx.anneal_s_p50", "s", "lower"),
		layer("oblx.post_ms_p50", "ms", "lower"),
		layer("oblx.failures", "1/run", "lower"),
		layer("oblx.unstable", "1/run", "lower"),
		layer("oblx.corner_fails", "1/run", "lower"),
		layer("oblx.degraded_frac", "frac", "lower"),
		layer("verify.design_ms_p50", "ms", "lower"),
		layer("server.submit_ms_p50", "ms", "lower"),
		layer("server.submit_ms_p90", "ms", "lower"),
		layer("server.result_ms_p50", "ms", "lower"),
		layer("server.shed", "count", "lower"),
		layer("server.errors", "count", "lower"),
		layer("server.queue_wait_ms_p50", "ms", "lower"),
		layer("server.queue_wait_ms_p90", "ms", "lower"),
		layer("server.exec_s_p50", "s", "lower"),
		layer("job_s_p90", "s", "lower"),
		layer("hit_ms_p50", "ms", "lower"),
		layer("hit_ms_p90", "ms", "lower"),
		layer("rescache.hit_frac", "frac", "higher"),
		layer("runtime.alloc_mb_per_run", "MB", "lower"),
		layer("runtime.gc_cpu_frac", "frac", "lower"),
		layer("harness.late_ms_p90", "ms", "lower"),
		layer("harness.late_ms_max", "ms", "lower"),
		layer("trace.evals_per_cpu_s", "1/s", "higher"),
		layer("trace.self_gap_frac", "frac", "lower"),
	)
	for _, s := range selfSpans {
		c = append(c, layer("self."+s, "frac", "lower"))
	}
	return c
}

// measurement is what one workload run hands back: every metric it
// measured, a sample-size note for the timings, and its output checks.
type measurement struct {
	values    map[string]float64
	notes     map[string]string
	attempted int
	problems  []string // one line per failed output check
}

func newMeasurement() *measurement {
	return &measurement{values: make(map[string]float64), notes: make(map[string]string)}
}

func (m *measurement) set(name string, v float64) { m.values[name] = v }
func (m *measurement) note(name, format string, args ...any) {
	m.notes[name] = fmt.Sprintf(format, args...)
}
func (m *measurement) fail(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// setTiming records a timing's median and tail under the metric names
// p50 and p90 (either may be empty), noting the sample size and which
// tail percentile the sample supports.
func (m *measurement) setTiming(p50, p90 string, xs []float64) {
	t := summarize(xs)
	if p50 != "" && t.N > 0 {
		m.set(p50, t.P50)
		m.note(p50, "n=%d", t.N)
	}
	if p90 != "" && t.N > 0 {
		m.set(p90, percentile(xs, 90))
		if t.TailP >= 90 {
			m.note(p90, "n=%d", t.N)
		} else {
			m.note(p90, "n=%d, fewer than 10 samples beyond p90", t.N)
		}
	}
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the end-to-end metrics (untraced) or the
// per-layer metrics (traced). A per-layer metric the workload never
// reached reads 0; a missing end-to-end metric is a failed check, since
// every workload measures each of them.
func buildResult(m *measurement, traced bool) result {
	r := result{Attempted: m.attempted, Failed: len(m.problems), Metrics: make(map[string]metricValue)}
	for _, d := range catalog {
		if d.EndToEnd == traced {
			continue
		}
		v, ok := m.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if d.EndToEnd {
				r.Failed++
				m.fail("end-to-end metric %s was not measured", d.Name)
			}
			v = 0
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
	}
	r.Correct = r.Failed == 0
	return r
}

// printHuman writes one line per metric, with its unit and sample note,
// in catalog order, then every failed check.
func printHuman(w io.Writer, workload string, m *measurement, r result) {
	fmt.Fprintf(w, "# %s: %d attempted, %d failed\n", workload, r.Attempted, r.Failed)
	for _, d := range catalog {
		mv, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-28s %14.6g %s", d.Name, mv.Value, mv.Unit)
		if n := m.notes[d.Name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "%-28s %14.6g frac  (%d/%d)\n", "failed_frac", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	for _, p := range m.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
}
