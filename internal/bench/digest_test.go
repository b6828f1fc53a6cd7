package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"astrx/internal/astrx"
	"astrx/internal/faults"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
)

// testdata/run_digest.json pins whole synthesis trajectories, not just
// single evaluations: for every Table 2 deck and seeds 1–2 it records
// where a fixed-budget nominal run ends (final design and cost as float
// bits) and how it got there (evaluations, accepted moves, unstable
// fits, Newton polish verdict). It records cornered runs the same way:
// the Simple OTA with cornerCards, annealed worst-case over both
// corners, for seeds 1–3, and once with the slow corner failing every
// evaluation, so the run quarantines it and finishes degraded.
// Annealing amplifies any numerical change — one flipped bit in a
// factorization can change an accept test and the run diverges — so a
// match means the whole run retraced the recorded one. A change that
// moves numbers on purpose must regenerate the file (from digestRun)
// and say why.

const digestPath = "testdata/run_digest.json"

var digestSeeds = []int64{1, 2}

// digestBudgets are the recorded run shapes. A 1,000-move run is exactly
// one annealing stage, so only the 4,000-move runs, with freezing on,
// exercise the stage bookkeeping, Hustin's stage reset and the freeze
// test.
var digestBudgets = []struct {
	moves    int
	noFreeze bool
}{{1000, true}, {4000, false}}

// digestCornerRuns are the recorded cornered run shapes: the Simple OTA
// with cornerCards at 4,000 moves without freezing, for seeds 1–3, and
// seed 1 again with the slow corner failing every evaluation.
var digestCornerRuns = []digestEntry{
	{Deck: string(SimpleOTA), Seed: 1, Moves: 4000, NoFreeze: true, Corners: true},
	{Deck: string(SimpleOTA), Seed: 2, Moves: 4000, NoFreeze: true, Corners: true},
	{Deck: string(SimpleOTA), Seed: 3, Moves: 4000, NoFreeze: true, Corners: true},
	{Deck: string(SimpleOTA), Seed: 1, Moves: 4000, NoFreeze: true, Corners: true, FailCorner: "slow"},
}

// digestEntry is one (deck, seed, budget) run. Floats are stored as the hex
// form of their IEEE-754 bits, so equality is exact and -0/NaN survive.
// Corners marks a run of the deck with cornerCards, annealed worst-case
// over every corner; FailCorner names a corner whose every evaluation a
// fault injector fails. A cornered run's unstable count sums its lanes.
type digestEntry struct {
	Deck       string   `json:"deck"`
	Seed       int64    `json:"seed"`
	Moves      int      `json:"moves"`
	NoFreeze   bool     `json:"no_freeze,omitempty"`
	Corners    bool     `json:"corners,omitempty"`
	FailCorner string   `json:"fail_corner,omitempty"`
	X          []string `json:"x"`
	Cost       string   `json:"cost"`
	EvalCount  int      `json:"eval_count"`
	Accepted   int      `json:"accepted"`
	Unstable   int      `json:"unstable"`
	DCSolved   bool     `json:"dc_solved"`
	Degraded   bool     `json:"degraded,omitempty"`
}

func floatBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// digestRun runs the fixed-seed, fixed-budget synthesis that shape's
// deck, seed, budget and corner fields describe, and returns its digest
// entry alongside the result.
func digestRun(t *testing.T, shape digestEntry) (digestEntry, *oblx.Result) {
	t.Helper()
	src := DeckSource(Circuit(shape.Deck))
	if shape.Corners {
		src += cornerCards
	}
	deck, err := netlist.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opt := oblx.Options{Seed: shape.Seed, MaxMoves: shape.Moves, NoFreeze: shape.NoFreeze}
	if shape.FailCorner != "" {
		opt.Faults = faults.New(1, faults.Rates{CornerFail: 1, FailCorner: shape.FailCorner})
	}
	res, err := oblx.Run(context.Background(), deck, opt)
	if err != nil {
		t.Fatal(err)
	}
	e := digestEntry{
		Deck:       shape.Deck,
		Seed:       shape.Seed,
		Moves:      shape.Moves,
		NoFreeze:   shape.NoFreeze,
		Corners:    shape.Corners,
		FailCorner: shape.FailCorner,
		Cost:       floatBits(res.Cost.Total),
		EvalCount:  res.EvalCount,
		Accepted:   res.Accepted,
		Unstable:   res.Failures.Unstable,
		DCSolved:   res.DCSolved,
		Degraded:   res.Degraded,
	}
	for _, v := range res.X {
		e.X = append(e.X, floatBits(v))
	}
	return e, res
}

// digestKey names a run shape; a nominal run's key is deck/seed/moves.
func digestKey(e digestEntry) string {
	k := fmt.Sprintf("%s/%d/%d", e.Deck, e.Seed, e.Moves)
	if e.Corners {
		k += "/corners"
	}
	if e.FailCorner != "" {
		k += "/fail=" + e.FailCorner
	}
	return k
}

func loadDigest(t *testing.T) map[string]digestEntry {
	t.Helper()
	b, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	var entries []digestEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatalf("%s: %v", digestPath, err)
	}
	m := make(map[string]digestEntry, len(entries))
	for _, e := range entries {
		m[digestKey(e)] = e
	}
	return m
}

// TestFixedSeedRunsMatchDigest replays every recorded run and requires
// it to land on exactly the recorded design, cost and counters. The
// 1,000-move runs were recorded before the symbolic analysis moved to
// bitsets, the cache to an LRU and the dense fallback to structural-zero
// skips, and the 4,000-move runs before jigs shared factored matrices
// and DC-only transfer functions skipped their fits, so the file pins
// all of these to the code they replaced. The unstable counts of both
// sets count only fits of the transfer function the specs read beyond
// dc_gain. The cornered runs were recorded while nominal-only and
// cornered runs still took separate evaluators, Newton moves and
// polishes, and pin the cornered path to that code.
func TestFixedSeedRunsMatchDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis in -short mode")
	}
	digest := loadDigest(t)
	for _, budget := range digestBudgets {
		for _, ckt := range Table2Suite {
			for _, seed := range digestSeeds {
				shape := digestEntry{Deck: string(ckt), Seed: seed, Moves: budget.moves, NoFreeze: budget.noFreeze}
				name := fmt.Sprintf("%s/seed%d", ckt, seed)
				if !budget.noFreeze {
					name += fmt.Sprintf("-%dmoves", budget.moves)
				}
				t.Run(name, func(t *testing.T) { checkDigest(t, digest, shape) })
			}
		}
	}
	for _, shape := range digestCornerRuns {
		name := fmt.Sprintf("%s/corners/seed%d", shape.Deck, shape.Seed)
		if shape.FailCorner != "" {
			name += "-fail-" + shape.FailCorner
		}
		t.Run(name, func(t *testing.T) { checkDigest(t, digest, shape) })
	}
}

// checkDigest replays the recorded run of one shape and compares it bit
// for bit.
func checkDigest(t *testing.T, digest map[string]digestEntry, shape digestEntry) {
	want, ok := digest[digestKey(shape)]
	if !ok || want.NoFreeze != shape.NoFreeze {
		t.Fatalf("%s has no entry for %s", digestPath, digestKey(shape))
	}
	got, res := digestRun(t, shape)
	// The digest must cover the in-run factorization paths: patterns
	// that change as devices cut off (more misses than one cold miss per
	// factorized matrix of each lane) and matrices the sparse guards
	// reject (dense fallbacks).
	misses, dense := res.Counts[astrx.FactorSymbolicMisses], res.Counts[astrx.FactorDense]
	mats := max(1, len(res.Corners)) * len(res.Compiled.NewWorkspace().JigStats())
	if misses <= uint64(mats) || dense == 0 {
		t.Errorf("%d symbolic-cache misses and %d dense fallbacks over %d matrices: the run never missed the symbolic cache after warm-up or never took the dense fallback",
			misses, dense, mats)
	}
	if got.Degraded != want.Degraded {
		t.Errorf("degraded %v, digest %v", got.Degraded, want.Degraded)
	}
	if got.Cost != want.Cost {
		t.Errorf("cost bits %s, digest %s", got.Cost, want.Cost)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%d variables, digest %d", len(got.X), len(want.X))
	}
	for i := range got.X {
		if got.X[i] != want.X[i] {
			t.Errorf("x[%d] bits %s, digest %s", i, got.X[i], want.X[i])
		}
	}
	if got.EvalCount != want.EvalCount || got.Accepted != want.Accepted ||
		got.Unstable != want.Unstable || got.DCSolved != want.DCSolved {
		t.Errorf("counters evals=%d accepted=%d unstable=%d dc_solved=%v, digest evals=%d accepted=%d unstable=%d dc_solved=%v",
			got.EvalCount, got.Accepted, got.Unstable, got.DCSolved,
			want.EvalCount, want.Accepted, want.Unstable, want.DCSolved)
	}
}
