package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// overheadMetric is the tracing overhead -repeat derives from each pair
// of an untraced and a traced run at the same seed: the traced run's CPU
// time per eval over the untraced run's, minus 1.
const overheadMetric = "trace.overhead_frac"

// metricSummary is one metric's values over repeated runs.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / |median|
	Values []float64 `json:"values"`
}

// summary is what -repeat writes and -check compares: per workload, per
// metric, the values of every run.
type summary struct {
	Seed      int64                               `json:"seed"`
	Repeat    int                                 `json:"repeat"`
	Seconds   int                                 `json:"seconds"`
	Workloads map[string]map[string]metricSummary `json:"workloads"`
}

func summarizeValues(unit string, vs []float64) metricSummary {
	q1, q2, q3 := quartiles(vs)
	s := metricSummary{Unit: unit, Median: q2, Q1: q1, Q3: q3, Values: vs}
	if q2 != 0 {
		s.Spread = (q3 - q1) / math.Abs(q2)
	}
	return s
}

// repeatRuns runs every workload o.repeat times untraced and traced,
// each in a child process, with seeds o.seed, o.seed+1, ..., and adds
// overheadMetric from each seed's pair of runs.
func repeatRuns(ctx context.Context, o options, stderr io.Writer) (*summary, error) {
	sum := &summary{Seed: o.seed, Repeat: o.repeat, Seconds: o.seconds, Workloads: make(map[string]map[string]metricSummary)}
	for _, w := range workloads() {
		if o.workload != "" && w.name != o.workload {
			continue
		}
		values := make(map[string][]float64)
		units := make(map[string]string)
		for i := 0; i < o.repeat; i++ {
			for trace := 0; trace <= 1; trace++ {
				child := o
				child.workload, child.seed, child.trace = w.name, o.seed+int64(i), trace
				t0 := time.Now()
				r, err := runChild(ctx, child, nil, stderr)
				if err != nil {
					return nil, fmt.Errorf("%s seed %d trace %d: %w", w.name, child.seed, trace, err)
				}
				fmt.Fprintf(stderr, "# %s seed %d trace %d: %d attempted, %d failed, %.1f s\n",
					w.name, child.seed, trace, r.Attempted, r.Failed, time.Since(t0).Seconds())
				for name, mv := range r.Metrics {
					values[name] = append(values[name], mv.Value)
					units[name] = mv.Unit
				}
			}
		}
		ws := make(map[string]metricSummary, len(values)+1)
		for name, vs := range values {
			ws[name] = summarizeValues(units[name], vs)
		}
		plain, traced := values["evals_per_cpu_s"], values["trace.evals_per_cpu_s"]
		if len(plain) == o.repeat && len(traced) == o.repeat {
			overhead := make([]float64, o.repeat)
			for i := range overhead {
				overhead[i] = ratio(plain[i], traced[i]) - 1
			}
			ws[overheadMetric] = summarizeValues("frac", overhead)
		}
		sum.Workloads[w.name] = ws
	}
	return sum, nil
}

func writeSummary(s *summary, w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the check reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundSpec `json:"end_to_end"`
	PerLayer []layerSpec `json:"per_layer"`
}

// boundSpec is an end-to-end metric: how far its median may worsen, as
// a share of the baseline median, before the check fails.
type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// checkRow is one workload's verdict.
type checkRow struct {
	Workload  string
	Regressed []string // end-to-end metrics worse than their bound, with the change
	// Unresolved are end-to-end metrics whose run-to-run spread, in the
	// baseline or now, exceeds their bound, so a change within the noise
	// cannot be told from a regression.
	Unresolved []string
	Worst      string   // the resolved end-to-end metric that used the largest share of its bound
	Moved      []string // per-layer metrics that moved most, when regressed
}

// worsening is how much worse cur is than base, as a share of base, in
// the metric's direction (negative when it improved).
func worsening(better string, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if better == "higher" {
		d = -d
	}
	return d
}

// allBetter reports whether every value of cur is better than every
// value of base in the metric's direction.
func allBetter(better string, base, cur []float64) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	if better == "higher" {
		return slices.Min(cur) > slices.Max(base)
	}
	return slices.Max(cur) < slices.Min(base)
}

// compareSummaries checks every end-to-end median of cur against base
// with the metric's direction and bound, per workload, and for a
// regressed workload names the three per-layer metrics whose medians
// moved most. A metric whose spread exceeds its bound is unresolved
// rather than judged, unless every current run beats every baseline run.
func compareSummaries(spec benchSpec, base, cur *summary) []checkRow {
	var names []string
	for w := range cur.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	var rows []checkRow
	for _, w := range names {
		row := checkRow{Workload: w}
		b, c := base.Workloads[w], cur.Workloads[w]
		if b == nil {
			row.Regressed = append(row.Regressed, "no baseline for this workload")
			rows = append(rows, row)
			continue
		}
		worst := math.Inf(-1)
		for _, e := range spec.EndToEnd {
			bm, okb := b[e.Name]
			cm, okc := c[e.Name]
			if !okb || !okc {
				row.Regressed = append(row.Regressed, e.Name+" missing")
				continue
			}
			d := worsening(e.Better, bm.Median, cm.Median)
			desc := fmt.Sprintf("%s %+.1f%% (bound %.3g%%)", e.Name, signedChange(bm.Median, cm.Median), 100*e.Bound)
			spread := math.Max(bm.Spread, cm.Spread)
			switch {
			case allBetter(e.Better, bm.Values, cm.Values):
			case spread > e.Bound:
				row.Unresolved = append(row.Unresolved, fmt.Sprintf("%s, spread %.3g", desc, spread))
				continue
			case d > e.Bound:
				row.Regressed = append(row.Regressed, desc)
			}
			if d/e.Bound > worst {
				worst, row.Worst = d/e.Bound, desc
			}
		}
		if len(row.Regressed) > 0 {
			row.Moved = mostMoved(spec, b, c, 3)
		}
		rows = append(rows, row)
	}
	return rows
}

func signedChange(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (cur - base) / math.Abs(base)
}

// mostMoved returns the n per-layer metrics whose medians changed most,
// relative to the baseline.
func mostMoved(spec benchSpec, b, c map[string]metricSummary, n int) []string {
	type mv struct {
		name string
		rel  float64
	}
	var moved []mv
	for _, p := range spec.PerLayer {
		bm, okb := b[p.Name]
		cm, okc := c[p.Name]
		if !okb || !okc || bm.Median == 0 || cm.Median == bm.Median {
			continue
		}
		moved = append(moved, mv{p.Name, (cm.Median - bm.Median) / math.Abs(bm.Median)})
	}
	sort.SliceStable(moved, func(i, j int) bool { return math.Abs(moved[i].rel) > math.Abs(moved[j].rel) })
	var out []string
	for i := 0; i < len(moved) && i < n; i++ {
		out = append(out, fmt.Sprintf("%s %+.1f%%", moved[i].name, 100*moved[i].rel))
	}
	return out
}

// formatRows prints one row per workload: REGRESSED when a metric
// regressed, unresolved when none did but one was too noisy to judge,
// ok otherwise.
func formatRows(w io.Writer, rows []checkRow) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tverdict\tdetail")
	for _, r := range rows {
		verdict, detail := "ok", ""
		if r.Worst != "" {
			detail = "closest to bound: " + r.Worst
		}
		if len(r.Regressed) > 0 {
			verdict, detail = "REGRESSED", strings.Join(r.Regressed, "; ")
			if len(r.Moved) > 0 {
				detail += " — layers moved most: " + strings.Join(r.Moved, ", ")
			}
		} else if len(r.Unresolved) > 0 {
			verdict = "unresolved"
		}
		if len(r.Unresolved) > 0 {
			detail += " — spread above bound: " + strings.Join(r.Unresolved, "; ")
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", r.Workload, verdict, detail)
	}
	tw.Flush()
}

// runCheck measures a summary with as many -repeat runs as the baseline
// has (unless -repeat says otherwise), compares it against the
// baseline, and exits 1 on a regression.
func runCheck(ctx context.Context, o options, stdout, stderr io.Writer) int {
	var spec benchSpec
	var base summary
	if err := readJSON(o.check, &spec); err != nil {
		fmt.Fprintln(stderr, "oblxbench:", err)
		return 1
	}
	if err := readJSON(baselinePath, &base); err != nil {
		fmt.Fprintln(stderr, "oblxbench:", err)
		return 1
	}
	if o.repeat == 0 {
		o.repeat = max(base.Repeat, 1)
	}
	cur, err := repeatRuns(ctx, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "oblxbench:", err)
		return 1
	}
	rows := compareSummaries(spec, &base, cur)
	formatRows(stdout, rows)
	for _, r := range rows {
		if len(r.Regressed) > 0 {
			return 1
		}
	}
	return 0
}
