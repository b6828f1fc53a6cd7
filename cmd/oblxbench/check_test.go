package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func summaryOf(workload string, medians map[string]float64) *summary {
	ms := make(map[string]metricSummary)
	for name, v := range medians {
		ms[name] = metricSummary{Median: v}
	}
	return &summary{Workloads: map[string]map[string]metricSummary{workload: ms}}
}

func TestCompareSummaries(t *testing.T) {
	spec := benchSpec{EndToEnd: []boundSpec{
		{Name: "run_s_p50", Unit: "s", Better: "lower", Bound: 0.10},
		{Name: "evals_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	}}
	for _, n := range []string{"astrx.stage.fit_us", "astrx.stage.bias_us", "verify.design_ms_p50", "server.shed"} {
		spec.PerLayer = append(spec.PerLayer, layerSpec{Name: n})
	}
	base := summaryOf("w", map[string]float64{
		"run_s_p50": 1.0, "evals_per_s": 1000,
		"astrx.stage.fit_us": 40, "astrx.stage.bias_us": 10, "verify.design_ms_p50": 3, "server.shed": 0,
	})
	for _, tc := range []struct {
		name      string
		cur       map[string]float64
		regressed int
		moved     []string
	}{
		{"within bounds", map[string]float64{"run_s_p50": 1.09, "evals_per_s": 920}, 0, nil},
		{"faster", map[string]float64{"run_s_p50": 0.5, "evals_per_s": 2000}, 0, nil},
		{"slower run", map[string]float64{
			"run_s_p50": 1.2, "evals_per_s": 1000,
			"astrx.stage.fit_us": 60, "astrx.stage.bias_us": 11, "verify.design_ms_p50": 3, "server.shed": 4,
		}, 1, []string{"astrx.stage.fit_us +50.0%", "astrx.stage.bias_us +10.0%"}},
		{"fewer evals per second", map[string]float64{"run_s_p50": 1.0, "evals_per_s": 850}, 1, nil},
		{"metric missing", map[string]float64{"run_s_p50": 1.0}, 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := compareSummaries(spec, base, summaryOf("w", tc.cur))
			if len(rows) != 1 {
				t.Fatalf("%d rows", len(rows))
			}
			r := rows[0]
			if len(r.Regressed) != tc.regressed {
				t.Errorf("regressed %q, want %d", r.Regressed, tc.regressed)
			}
			if tc.moved != nil && !reflect.DeepEqual(r.Moved, tc.moved) {
				t.Errorf("moved %q, want %q", r.Moved, tc.moved)
			}
			var buf bytes.Buffer
			formatRows(&buf, rows)
			verdict := "ok"
			if tc.regressed > 0 {
				verdict = "REGRESSED"
			}
			if !strings.Contains(buf.String(), verdict) {
				t.Errorf("table lacks %q:\n%s", verdict, buf.String())
			}
		})
	}
	rows := compareSummaries(spec, base, summaryOf("other", map[string]float64{"run_s_p50": 1}))
	if len(rows) != 1 || len(rows[0].Regressed) != 1 {
		t.Errorf("a workload without a baseline must fail the check: %+v", rows)
	}
}

// A metric whose run-to-run spread exceeds its bound is unresolved, not
// judged, unless every run beats every baseline run.
func TestCompareSummariesSpreadAboveBound(t *testing.T) {
	spec := benchSpec{EndToEnd: []boundSpec{{Name: "run_s_p50", Unit: "s", Better: "lower", Bound: 0.10}}}
	runs := func(vs ...float64) *summary {
		return &summary{Workloads: map[string]map[string]metricSummary{"w": {"run_s_p50": summarizeValues("s", vs)}}}
	}
	base := runs(0.8, 1.0, 1.0, 1.2, 1.5) // median 1, spread 0.45
	for _, tc := range []struct {
		name    string
		cur     *summary
		verdict string
	}{
		{"30% slower within the noise", runs(1.3), "unresolved"},
		{"unchanged within the noise", runs(1.0), "unresolved"},
		{"every run faster", runs(0.5, 0.6, 0.7), "ok"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := compareSummaries(spec, base, tc.cur)
			r := rows[0]
			if len(r.Regressed) != 0 {
				t.Errorf("regressed %q", r.Regressed)
			}
			if got := len(r.Unresolved) > 0; got != (tc.verdict == "unresolved") {
				t.Errorf("unresolved %q, want verdict %s", r.Unresolved, tc.verdict)
			}
			var buf bytes.Buffer
			formatRows(&buf, rows)
			lines := strings.Split(buf.String(), "\n")
			if f := strings.Fields(lines[1]); len(f) < 2 || f[1] != tc.verdict {
				t.Errorf("want verdict %q:\n%s", tc.verdict, buf.String())
			}
		})
	}
}

// BENCHMARK.json must list exactly this program's workloads and
// metrics, with the same units and directions.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	var got []metricDef
	for _, e := range spec.EndToEnd {
		got = append(got, metricDef{e.Name, e.Unit, e.Better, true})
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	for _, p := range spec.PerLayer {
		got = append(got, metricDef{p.Name, p.Unit, p.Better, false})
	}
	if !reflect.DeepEqual(got, catalog) {
		t.Errorf("BENCHMARK.json metrics differ from the catalog:\n got %v\nwant %v", got, catalog)
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"extra"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("%v: exit %d, want 2 (%s)", args, code, errs.String())
		}
	}
}
