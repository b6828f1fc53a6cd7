package awe

import (
	"math"
	"testing"

	"astrx/internal/linalg"
)

// ladderPair stamps a three-node RC ladder (conductance g per section,
// capacitance c per node) into G and C, overwriting both.
func ladderPair(G, C *linalg.Matrix, g, c float64) {
	G.Zero()
	C.Zero()
	for i := 0; i < 3; i++ {
		G.Add(i, i, 2*g)
		if i > 0 {
			G.Add(i, i-1, -g)
			G.Add(i-1, i, -g)
		}
		C.Add(i, i, c)
	}
	G.Set(2, 2, g)
}

// engineMoments factors e's pair and returns six output moments of the
// ladder driven at node 0 and read at node 2.
func engineMoments(t *testing.T, e *Engine) []float64 {
	t.Helper()
	if err := e.Refactor(); err != nil {
		t.Fatal(err)
	}
	mu := make([]float64, 6)
	e.MomentsInto(mu, []float64{1, 0, 0}, 2, -1)
	return mu
}

func newLadderEngine(g, c float64) *Engine {
	e := &Engine{G: linalg.NewMatrix(3, 3), C: linalg.NewMatrix(3, 3)}
	ladderPair(e.G, e.C, g, c)
	return e
}

func sameMoments(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestEngineReusesRepeatedPair pins the reuse rule: a pair that repeats
// the factored one bit for bit keeps the factors and the generation; a
// change to C alone, or a +0 turned -0, factors again.
func TestEngineReusesRepeatedPair(t *testing.T) {
	e := newLadderEngine(1e-3, 1e-12)
	want := engineMoments(t, e)
	gen := e.Gen()
	if gen == 0 {
		t.Fatal("Gen is 0 after a successful factorization")
	}

	ladderPair(e.G, e.C, 1e-3, 1e-12) // the same pair, re-stamped
	if got := engineMoments(t, e); !sameMoments(got, want) {
		t.Fatalf("reused moments %v, want %v", got, want)
	}
	if fc := e.FactorCounts(); e.Gen() != gen || e.Reused() != 1 || fc.Sparse+fc.Dense != 1 {
		t.Fatalf("repeat: gen %d (was %d), counts %+v, %d reused; want the factors reused", e.Gen(), gen, fc, e.Reused())
	}

	ladderPair(e.G, e.C, 1e-3, 2e-12) // C moves, G does not
	got := engineMoments(t, e)
	if fresh := engineMoments(t, newLadderEngine(1e-3, 2e-12)); !sameMoments(got, fresh) {
		t.Fatalf("moments after a C-only change %v, fresh engine %v", got, fresh)
	}
	if e.Gen() == gen {
		t.Fatal("a C-only change kept the generation")
	}

	gen = e.Gen()
	e.G.Set(0, 2, math.Copysign(0, -1)) // a structural +0 becomes -0
	engineMoments(t, e)
	if e.Gen() == gen {
		t.Fatal("-0 against +0 counted as a repeat")
	}
}

// TestEngineFailedFactorLeavesNothingToReuse factors M1, fails on a
// singular M2, then factors M1 again: the failure has overwritten part
// of the factors, so M1 must be factored afresh and give a fresh
// engine's moments.
func TestEngineFailedFactorLeavesNothingToReuse(t *testing.T) {
	e := newLadderEngine(1e-3, 1e-12)
	engineMoments(t, e)
	gen := e.Gen()

	e.G.Zero() // M2: no DC path anywhere
	if err := e.Refactor(); err == nil {
		t.Fatal("singular G factored")
	}
	failedGen := e.Gen()

	ladderPair(e.G, e.C, 1e-3, 1e-12)
	got := engineMoments(t, e)
	if want := engineMoments(t, newLadderEngine(1e-3, 1e-12)); !sameMoments(got, want) {
		t.Fatalf("moments after the failure %v, fresh engine %v", got, want)
	}
	if failedGen != 0 {
		t.Fatalf("Gen = %d after a failed factorization, want 0", failedGen)
	}
	if g := e.Gen(); g == 0 || g == gen {
		t.Fatalf("Gen = %d after refactoring (first factors were %d), want a new generation", g, gen)
	}
	if n := e.Reused(); n != 0 {
		t.Fatalf("%d reused: a factorization after a failure was reused", n)
	}
}
