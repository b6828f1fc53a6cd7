package linalg_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"astrx/internal/bench"
	"astrx/internal/linalg"
	"astrx/internal/oblx"
)

// TestSymbolicMatchesReferenceOnRunPatterns collects every distinct
// pattern that 1,000-move synthesis runs (seeds 1–2, the run digest's)
// of each Table 2 deck hand a
// factorizer — the jig engines' small-signal matrices as devices cut
// in and out, plus the Newton moves' Jacobians — and holds the bitset
// analysis of each to the reference. Every distinct pattern misses the
// cache at least once, so the miss hook sees them all.
func TestSymbolicMatchesReferenceOnRunPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis in -short mode")
	}
	seen := map[string]*linalg.Pattern{}
	linalg.SetSymbolicMissHook(func(p *linalg.Pattern) {
		key := fmt.Sprint(p.N, p.Pos)
		if _, ok := seen[key]; !ok {
			seen[key] = &linalg.Pattern{N: p.N, Pos: slices.Clone(p.Pos)}
		}
	})
	defer linalg.SetSymbolicMissHook(nil)
	for _, ckt := range bench.Table2Suite {
		deck, err := bench.Parse(ckt)
		if err != nil {
			t.Fatal(err)
		}
		before := len(seen)
		for seed := int64(1); seed <= 2; seed++ {
			if _, err := oblx.Run(context.Background(), deck, oblx.Options{
				Seed: seed, MaxMoves: 1000, NoFreeze: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		n := len(seen) - before
		t.Logf("%s: %d distinct patterns", ckt, n)
		if n < 4 {
			t.Errorf("%s: only %d distinct patterns; the run did not vary its pattern", ckt, n)
		}
	}
	for _, p := range seen {
		if d := linalg.SymbolicDiff(p); d != "" {
			t.Fatalf("pattern n=%d nnz=%d: %s", p.N, len(p.Pos), d)
		}
	}
}
