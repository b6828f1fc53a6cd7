package main

import (
	"context"
	"testing"
	"time"
)

// tiny shrinks a workload to a budget of about a second: one deck and
// one seed for the synthesis workloads, a two-second window for serving.
func tiny(w workload) workload {
	if s := w.synth; s != nil {
		c := *s
		c.decks, c.seeds, c.moves = c.decks[:1], c.seeds[:1], 1000
		w.synth = &c
	} else {
		c := *w.serve
		c.rate, c.moves, c.warmup, c.pollEvery = 4, 300, 1, 5*time.Millisecond
		w.serve = &c
	}
	return w
}

// Every workload runs end to end at a tiny budget, passes its output
// checks, and reports every end-to-end metric; the traced run records
// spans whose self times sum to the traced wall time.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads() {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			env := runEnv{seed: 1, window: 2 * time.Second, traced: true, spans: &spanLog{}, workDir: t.TempDir()}
			m, err := measure(context.Background(), w, env)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.problems) > 0 {
				t.Fatalf("failed checks: %q", m.problems)
			}
			untraced := buildResult(m, false)
			if !untraced.Correct || untraced.Attempted < 1 {
				t.Fatalf("result %+v, checks %q", untraced, m.problems)
			}
			for name, v := range untraced.Metrics {
				quality := name == "specs_met_frac" || name == "final_cost_p50" || name == "worst_rel_err"
				if !quality && v.Value <= 0 {
					t.Errorf("%s = %g", name, v.Value)
				}
			}
			traced := buildResult(m, true)
			if len(traced.Metrics)+len(untraced.Metrics) != len(catalog) {
				t.Errorf("%d + %d metrics, catalog has %d", len(traced.Metrics), len(untraced.Metrics), len(catalog))
			}
			if len(env.spans.spans) == 0 {
				t.Fatal("the traced run recorded no spans")
			}
			if _, gap := selfBreakdown(env.spans.spans); gap > 0.05 {
				t.Errorf("self times miss the wall time by %.1f%%", 100*gap)
			}
		})
	}
}
