package oblx

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
)

// pollCancelCtx reports cancellation from its k-th Done poll on, so a
// test can land a cancel at a fixed point of a run: at the top of a
// move, or inside a Newton move's solve.
type pollCancelCtx struct {
	context.Context
	k, polls int
	done     chan struct{}
}

func newPollCancelCtx(k int) *pollCancelCtx {
	c := &pollCancelCtx{Context: context.Background(), k: k, done: make(chan struct{})}
	close(c.done)
	return c
}

func (c *pollCancelCtx) Done() <-chan struct{} {
	c.polls++
	if c.polls >= c.k {
		return c.done
	}
	return nil
}

func (c *pollCancelCtx) Err() error {
	if c.polls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestCancelMidMoveResumesExactly pins bit-exact resume from the
// checkpoint a cancelled run writes, nominal and cornered. For each k the
// cancel lands on the run's k-th poll of its context; some of those
// polls are inside a Newton move's solve. A move in progress must finish
// as if nothing happened, so the annealer stops at the top of the next
// move and the resumed run retraces the uninterrupted one.
func TestCancelMidMoveResumesExactly(t *testing.T) {
	for _, tc := range []struct {
		name, deck string
		polls      []int
	}{
		{"nominal", dividerDeck, []int{3, 19, 46, 200, 1000, 2036, 2803}},
		{"corners", dividerDeck + corneredDividerCards, []int{10, 70, 2104, 2500}},
	} {
		deck := parse(t, tc.deck)
		opt := Options{Seed: 21, MaxMoves: 3000, NoFreeze: true}
		full, err := Run(context.Background(), deck, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range tc.polls {
			k := k
			t.Run(fmt.Sprintf("%s/poll%d", tc.name, k), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				o1 := opt
				o1.CheckpointPath = path
				r1, err := Run(newPollCancelCtx(k), deck, o1)
				if err != nil {
					t.Fatal(err)
				}
				if !r1.Cancelled {
					t.Fatal("run finished before the cancel landed")
				}
				ck, err := LoadCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				o2 := opt
				o2.Resume = ck
				r2, err := Run(context.Background(), deck, o2)
				if err != nil {
					t.Fatal(err)
				}
				if r2.Cost.Total != full.Cost.Total || r2.EvalCount != full.EvalCount ||
					r2.Accepted != full.Accepted || r2.Moves != full.Moves {
					t.Errorf("resumed from move %d: cost %g, %d evals, %d accepted, %d moves; uninterrupted %g, %d, %d, %d",
						ck.Anneal.Move, r2.Cost.Total, r2.EvalCount, r2.Accepted, r2.Moves,
						full.Cost.Total, full.EvalCount, full.Accepted, full.Moves)
				}
				for i := range full.X {
					if r2.X[i] != full.X[i] {
						t.Errorf("X[%d]: resumed %g != uninterrupted %g", i, r2.X[i], full.X[i])
					}
				}
			})
		}
	}
}
