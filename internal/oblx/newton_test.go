package oblx

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"astrx/internal/anneal"
	"astrx/internal/astrx"
	"astrx/internal/faults"
)

// A Newton move answers a proposal whose start vector and lane
// quarantine flags repeat its previous proposal's, bit for bit, from a
// memo instead of solving again. These tests hold memo answers to fresh
// solves and pin both move classes' proposals to zero allocations.

// newtonSetup compiles src's corner set and returns it with a start
// vector whose user variables sit at their start values and whose node
// sections are zero, so a full solve moves them.
func newtonSetup(t *testing.T, src string) (*astrx.CornerSet, []float64) {
	t.Helper()
	deck := parse(t, src)
	names, err := astrx.SelectCorners(deck, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := astrx.CompileCorners(deck, names, astrx.CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, len(cs.Vars()))
	for i, v := range cs.Vars() {
		x[i] = v.Start()
	}
	return cs, x
}

// proposal is one Propose call's outcome.
type proposal struct {
	ok   bool
	next []float64
}

// propose asks m for a proposal from cur.
func propose(m anneal.Move, cur []float64) proposal {
	next := append([]float64(nil), cur...)
	ok := m.Propose(cur, next, rand.New(rand.NewSource(1)))
	return proposal{ok, next}
}

// freshProposal is the proposal a new problem's move of the same class
// makes from cur with lane i quarantined where quar[i] is set.
func freshProposal(t *testing.T, src, label string, iters int, cur []float64, quar []bool) proposal {
	t.Helper()
	cs, _ := newtonSetup(t, src)
	p := newProblem(cs, nil)
	for i, q := range quar {
		p.lanes[i].quarantined = q
	}
	return propose(newtonMove(context.Background(), p, label, iters), cur)
}

// sameProposal reports whether a and b hold the same verdict and the
// same proposed vector, bit for bit.
func sameProposal(a, b proposal) bool {
	if a.ok != b.ok || len(a.next) != len(b.next) {
		return false
	}
	for i := range a.next {
		if math.Float64bits(a.next[i]) != math.Float64bits(b.next[i]) {
			return false
		}
	}
	return true
}

// laneCounts sums the counts of p's lane workspaces: a proposal that
// solves adds Newton-problem work to them.
func laneCounts(p *problem) astrx.Counts {
	var n astrx.Counts
	for i := 0; i < p.bw.K(); i++ {
		n.Add(p.bw.Lane(i).Counts())
	}
	return n
}

// proposalCounts returns p's count of Newton proposals and of those the
// moves' memos answered.
func proposalCounts(p *problem) [2]uint64 {
	return [2]uint64{p.counts[astrx.NewtonProposals], p.counts[astrx.NewtonProposalsReused]}
}

func TestNewtonMoveMemo(t *testing.T) {
	decks := []struct{ name, src string }{
		{"diff amp", diffAmpDeck},
		{"cornered diff amp", diffAmpDeck + corneredDiffAmpCards},
	}
	classes := []struct {
		label string
		iters int
	}{{"newton-full", 12}, {"newton-step", 1}}
	for _, d := range decks {
		for _, mc := range classes {
			t.Run(d.name+"/"+mc.label, func(t *testing.T) {
				cs, x := newtonSetup(t, d.src)
				p := newProblem(cs, nil)
				m := newtonMove(context.Background(), p, mc.label, mc.iters)
				quar := make([]bool, cs.K())

				first := propose(m, x)
				if !first.ok {
					t.Fatal("the start point proposes nothing; the case cannot tell a memo answer from a solve")
				}
				if want := freshProposal(t, d.src, mc.label, mc.iters, x, quar); !sameProposal(first, want) {
					t.Fatal("first proposal differs from a fresh move's")
				}
				before := laneCounts(p)
				again := propose(m, x)
				if !sameProposal(again, first) {
					t.Fatal("a repeated proposal differs from the first")
				}
				if after := laneCounts(p); after != before {
					t.Fatalf("a repeated proposal solved: lane counts %v → %v", before, after)
				}
				if pc := proposalCounts(p); pc != [2]uint64{2, 1} {
					t.Fatalf("proposal counts %v, want 2 proposals, 1 answered by the memo", pc)
				}

				// One flipped bit of the start vector solves again.
				flipped := append([]float64(nil), x...)
				k := cs.NUser
				flipped[k] = math.Float64frombits(math.Float64bits(flipped[k]) ^ 1)
				before = laneCounts(p)
				got := propose(m, flipped)
				if laneCounts(p) == before {
					t.Fatal("a start vector one bit away was answered from the memo")
				}
				if want := freshProposal(t, d.src, mc.label, mc.iters, flipped, quar); !sameProposal(got, want) {
					t.Fatal("proposal from the flipped start differs from a fresh move's")
				}
				if pc := proposalCounts(p); pc[1] != 1 {
					t.Fatalf("proposal counts %v, want still 1 answered by the memo", pc)
				}

				// One flipped quarantine flag solves again.
				if cs.K() == 1 {
					return
				}
				propose(m, x)
				p.lanes[cs.K()-1].quarantined = true
				quar[cs.K()-1] = true
				before = laneCounts(p)
				got = propose(m, x)
				if laneCounts(p) == before {
					t.Fatal("a proposal under a changed quarantine flag was answered from the memo")
				}
				if want := freshProposal(t, d.src, mc.label, mc.iters, x, quar); !sameProposal(got, want) {
					t.Fatal("proposal under the quarantine differs from a fresh move's")
				}
			})
		}
	}
}

// TestNewtonStepReusesLaneEvaluation pins one workspace per lane: a
// Newton move solves each lane's bias on the workspace that evaluates
// the lane's candidates, so a newton-step proposal from the point the
// lanes have just evaluated keeps every device's operating point on
// each lane's first residual replay. (newton-full warm-starts the corner
// lanes from the nominal section it has just solved, so their first
// replay is at another point.)
func TestNewtonStepReusesLaneEvaluation(t *testing.T) {
	cs, x := newtonSetup(t, diffAmpDeck+corneredDiffAmpCards)
	p := newProblem(cs, nil)
	p.eval(x)
	for i := 0; i < cs.K(); i++ {
		if !p.evaluated[i] {
			t.Fatalf("lane %s did not evaluate the start point", cs.LaneName(i))
		}
	}
	propose(newtonMove(context.Background(), p, "newton-step", 1), x)
	for i := 0; i < cs.K(); i++ {
		c := p.bw.Lane(i).Counts()
		if c[astrx.NewtonResiduals] != 1 {
			t.Fatalf("lane %s: %d residual replays on the lane's workspace, want 1", cs.LaneName(i), c[astrx.NewtonResiduals])
		}
		if n, r := c[astrx.NewtonDeviceEvals], c[astrx.NewtonDeviceReused]; n == 0 || r != n {
			t.Errorf("lane %s: the residual replay kept %d of %d device points, want all", cs.LaneName(i), r, n)
		}
	}
}

// TestNewtonMoveMemoOffWithFaults: a fault hook draws from the injector
// on every solve, so with an injector attached every proposal solves.
func TestNewtonMoveMemoOffWithFaults(t *testing.T) {
	cs, x := newtonSetup(t, diffAmpDeck)
	p := newProblem(cs, faults.New(3, faults.Rates{NewtonFail: 0.01}))
	m := newtonMove(context.Background(), p, "newton-full", 12)
	propose(m, x)
	before := laneCounts(p)
	propose(m, x)
	if laneCounts(p) == before {
		t.Fatal("with a fault injector a repeated proposal was answered from the memo")
	}
	if pc := proposalCounts(p); pc != [2]uint64{2, 0} {
		t.Fatalf("proposal counts %v, want 2 proposals and none answered by the memo", pc)
	}
}

// TestNewtonMoveZeroAlloc pins a Newton proposal of either class to
// zero allocations after warm-up, whether the move solves it (the start
// alternates between two points, so the memo never answers) or answers
// it from the memo (the start repeats). At the diff amp's start point
// the full solve does not converge, so its error path is covered.
func TestNewtonMoveZeroAlloc(t *testing.T) {
	for _, mc := range []struct {
		label string
		iters int
	}{{"newton-full", 12}, {"newton-step", 1}} {
		cs, a := newtonSetup(t, diffAmpDeck)
		b := append([]float64(nil), a...)
		b[0] *= 1.01
		p := newProblem(cs, nil)
		m := newtonMove(context.Background(), p, mc.label, mc.iters)
		next := make([]float64, len(a))
		rng := rand.New(rand.NewSource(1))
		prop := func(cur []float64) {
			copy(next, cur)
			m.Propose(cur, next, rng)
		}
		prop(a) // warm up scratch at both points
		prop(b)
		if n := testing.AllocsPerRun(50, func() { prop(a); prop(b) }); n != 0 {
			t.Errorf("%s: %.1f allocs per two solved proposals, want 0", mc.label, n)
		}
		if n := testing.AllocsPerRun(50, func() { prop(a) }); n != 0 {
			t.Errorf("%s: %.1f allocs per proposal answered by the memo, want 0", mc.label, n)
		}
		if p.counts[astrx.NewtonProposalsReused] == 0 {
			t.Errorf("%s: no proposal answered by the memo", mc.label)
		}
	}
}
