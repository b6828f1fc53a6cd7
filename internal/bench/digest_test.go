package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
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

const (
	digestPath  = "testdata/run_digest.json"
	digestMoves = 1000
)

var digestSeeds = []int64{1, 2}

// digestEntry is one (deck, seed) run. Floats are stored as the hex
// form of their IEEE-754 bits, so equality is exact and -0/NaN survive.
type digestEntry struct {
	Deck      string   `json:"deck"`
	Seed      int64    `json:"seed"`
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
func digestRun(t *testing.T, ckt Circuit, seed int64) (digestEntry, *oblx.Result) {
	t.Helper()
	deck, err := Parse(ckt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := oblx.Run(context.Background(), deck, oblx.Options{
		Seed: seed, MaxMoves: digestMoves, NoFreeze: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := digestEntry{
		Deck:      string(ckt),
		Seed:      seed,
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
		m[e.Deck+"/"+strconv.FormatInt(e.Seed, 10)] = e
	}
	return m
}

// TestFixedSeedRunsMatchDigest replays every recorded run and requires
// it to land on exactly the recorded design, cost and counters. The file
// was recorded before the symbolic analysis moved to bitsets, the cache
// to an LRU and the dense fallback to structural-zero skips, so it pins
// all three to the code they replaced.
func TestFixedSeedRunsMatchDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis in -short mode")
	}
	digest := loadDigest(t)
	for _, ckt := range Table2Suite {
		for _, seed := range digestSeeds {
			ckt, seed := ckt, seed
			t.Run(fmt.Sprintf("%s/seed%d", ckt, seed), func(t *testing.T) {
				want, ok := digest[string(ckt)+"/"+strconv.FormatInt(seed, 10)]
				if !ok {
					t.Fatalf("%s has no entry for %s seed %d", digestPath, ckt, seed)
				}
				got, res := digestRun(t, ckt, seed)
				// The digest must cover the in-run factorization paths:
				// patterns that change as devices cut off (more misses
				// than one cold miss per jig) and matrices the sparse
				// guards reject (dense fallbacks).
				fc := res.FactorCounts
				jigs := len(res.Compiled.Workspace().JigStats())
				if fc.SymbolicMisses <= uint64(jigs) || fc.Dense == 0 {
					t.Errorf("factorizations %+v over %d jigs: the run never missed the symbolic cache after warm-up or never took the dense fallback",
						fc, jigs)
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
			})
		}
	}
}
