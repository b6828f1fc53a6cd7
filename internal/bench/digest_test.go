package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"astrx/internal/oblx"
)

// testdata/run_digest.json pins whole synthesis trajectories, not just
// single evaluations: for every Table 2 deck and seeds 1–2 it records
// where a fixed-budget nominal run ends (final design and cost as float
// bits) and how it got there (evaluations, accepted moves, unstable
// fits, Newton polish verdict). Annealing amplifies any numerical
// change — one flipped bit in a factorization can change an accept
// test and the run diverges — so a match means the whole run retraced
// the recorded one. A change that moves numbers on purpose must
// regenerate the file (from digestRun) and say why.

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

// digestEntry is one (deck, seed, budget) run. Floats are stored as the hex
// form of their IEEE-754 bits, so equality is exact and -0/NaN survive.
type digestEntry struct {
	Deck      string   `json:"deck"`
	Seed      int64    `json:"seed"`
	Moves     int      `json:"moves"`
	NoFreeze  bool     `json:"no_freeze,omitempty"`
	X         []string `json:"x"`
	Cost      string   `json:"cost"`
	EvalCount int      `json:"eval_count"`
	Accepted  int      `json:"accepted"`
	Unstable  int      `json:"unstable"`
	DCSolved  bool     `json:"dc_solved"`
}

func floatBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// digestRun runs one fixed-seed, fixed-budget nominal synthesis and
// returns its digest entry alongside the result.
func digestRun(t *testing.T, ckt Circuit, seed int64, moves int, noFreeze bool) (digestEntry, *oblx.Result) {
	t.Helper()
	deck, err := Parse(ckt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := oblx.Run(context.Background(), deck, oblx.Options{
		Seed: seed, MaxMoves: moves, NoFreeze: noFreeze,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := digestEntry{
		Deck:      string(ckt),
		Seed:      seed,
		Moves:     moves,
		NoFreeze:  noFreeze,
		Cost:      floatBits(res.Cost.Total),
		EvalCount: res.EvalCount,
		Accepted:  res.Accepted,
		Unstable:  res.Failures.Unstable,
		DCSolved:  res.DCSolved,
	}
	for _, v := range res.X {
		e.X = append(e.X, floatBits(v))
	}
	return e, res
}

func digestKey(deck string, seed int64, moves int) string {
	return fmt.Sprintf("%s/%d/%d", deck, seed, moves)
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
		m[digestKey(e.Deck, e.Seed, e.Moves)] = e
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
// dc_gain.
func TestFixedSeedRunsMatchDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis in -short mode")
	}
	digest := loadDigest(t)
	for _, budget := range digestBudgets {
		for _, ckt := range Table2Suite {
			for _, seed := range digestSeeds {
				ckt, seed, budget := ckt, seed, budget
				name := fmt.Sprintf("%s/seed%d", ckt, seed)
				if !budget.noFreeze {
					name += fmt.Sprintf("-%dmoves", budget.moves)
				}
				t.Run(name, func(t *testing.T) {
					want, ok := digest[digestKey(string(ckt), seed, budget.moves)]
					if !ok || want.NoFreeze != budget.noFreeze {
						t.Fatalf("%s has no %d-move entry for %s seed %d", digestPath, budget.moves, ckt, seed)
					}
					checkDigest(t, want, ckt, seed)
				})
			}
		}
	}
}

// checkDigest replays one recorded run and compares it bit for bit.
func checkDigest(t *testing.T, want digestEntry, ckt Circuit, seed int64) {
	got, res := digestRun(t, ckt, seed, want.Moves, want.NoFreeze)
	// The digest must cover the in-run factorization paths: patterns
	// that change as devices cut off (more misses than one cold miss per
	// factorized matrix) and matrices the sparse guards reject (dense
	// fallbacks).
	fc := res.FactorCounts
	mats := len(res.Compiled.Workspace().JigStats())
	if fc.SymbolicMisses <= uint64(mats) || fc.Dense == 0 {
		t.Errorf("factorizations %+v over %d matrices: the run never missed the symbolic cache after warm-up or never took the dense fallback",
			fc, mats)
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
