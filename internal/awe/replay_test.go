package awe_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"astrx/internal/awe"
	"astrx/internal/bench"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
)

var recordMoments = flag.Bool("record-moments", false,
	"rewrite testdata/run_moments.txt from the fits TestRunFitsMatchReference replays")

// cornerCards are the process corners the benchmark and the run digest
// anneal the Simple OTA over.
const cornerCards = `
.corner slow temp=85 nmos3.vto=0.95 vdd=2.4
.corner fast temp=-40 vdd=2.6
`

// TestRunFitsMatchReference replays every fit of a 1,000-move seed-1 run
// of each Table 2 deck and of the cornered Simple OTA through the
// reference search: each model the run's workspaces return, and the
// unity-gain and −3 dB frequencies read off it, must be the reference's
// bits. With -record-moments it rewrites testdata/run_moments.txt,
// FuzzPadeSearch's recorded seeds, from the same fits: per run and per
// way a fit can end, three fits spread over the run.
func TestRunFitsMatchReference(t *testing.T) {
	type run struct {
		name, src string
	}
	var runs []run
	for _, c := range bench.Table2Suite {
		runs = append(runs, run{string(c), bench.DeckSource(c)})
	}
	runs = append(runs, run{"Simple OTA corners", bench.DeckSource(bench.SimpleOTA) + cornerCards})

	var out strings.Builder
	out.WriteString("# FuzzPadeSearch seeds: fits recorded from 1,000-move seed-1 runs of the\n" +
		"# Table 2 decks and the cornered Simple OTA, one per line: the order asked\n" +
		"# for, then the moments. Regenerate with\n" +
		"#   go test ./internal/awe -run TestRunFitsMatchReference -record-moments\n")
	for _, r := range runs {
		deck, err := netlist.Parse(r.src)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		var ref awe.FitWorkspace
		var fits, diffs int
		var seen []recordedFit
		remove := awe.SetTestHookFit(func(mu []float64, q int, tf *awe.TF) {
			fits++
			if d := awe.RefFitDiff(&ref, tf, mu, q); d != "" {
				if diffs++; diffs <= 3 {
					t.Errorf("%s: fit %d of %v at order %d differs from the reference search: %s", r.name, fits, mu, q, d)
				}
			}
			if *recordMoments {
				seen = append(seen, recordedFit{append([]float64(nil), mu...), q})
			}
		})
		_, err = oblx.Run(context.Background(), deck, oblx.Options{Seed: 1, MaxMoves: 1000, NoFreeze: true})
		remove()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if fits == 0 || diffs > 0 {
			t.Errorf("%s: %d of %d fits differ from the reference search", r.name, diffs, fits)
		}
		t.Logf("%s: %d fits replayed", r.name, fits)
		if *recordMoments {
			recordFits(&out, r.name, seen)
		}
	}
	if *recordMoments && !t.Failed() {
		if err := os.WriteFile("testdata/run_moments.txt", []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

type recordedFit struct {
	mu []float64
	q  int
}

// recordFits writes three of a run's fits per outcome, the first, the
// middle and the last, to out.
func recordFits(out *strings.Builder, name string, fits []recordedFit) {
	outcomes := []string{"stable validated", "unstable validated", "unvalidated", "constant"}
	byOutcome := make([][]recordedFit, len(outcomes))
	var ws awe.FitWorkspace
	var tf awe.TF
	for _, f := range fits {
		before := ws.Counts()
		ws.FitMomentsInto(&tf, f.mu, f.q)
		after := ws.Counts()
		for i, d := range []uint64{
			after.ValidatedStable - before.ValidatedStable,
			after.ValidatedUnstable - before.ValidatedUnstable,
			after.Unvalidated - before.Unvalidated,
			after.Constant - before.Constant,
		} {
			if d > 0 {
				byOutcome[i] = append(byOutcome[i], f)
			}
		}
	}
	for i, fs := range byOutcome {
		if len(fs) == 0 {
			continue
		}
		fmt.Fprintf(out, "# %s: %s\n", name, outcomes[i])
		picked := map[int]bool{}
		for _, k := range []int{0, len(fs) / 2, len(fs) - 1} {
			if picked[k] {
				continue
			}
			picked[k] = true
			out.WriteString(strconv.Itoa(fs[k].q))
			for _, v := range fs[k].mu {
				out.WriteString(" " + strconv.FormatFloat(v, 'g', -1, 64))
			}
			out.WriteString("\n")
		}
	}
}
