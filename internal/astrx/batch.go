package astrx

import (
	"errors"
	"fmt"
)

// errLaneSkipped is the Err of a lane a Run skipped. It is one value, so
// a run with a quarantined corner stays allocation-free.
var errLaneSkipped = errors.New("astrx: batch lane skipped")

// BatchWorkspace is a corner set's lane set: one EvalWorkspace per lane
// (nominal first), each bound to its own corner's compiled plan. Run
// evaluates the lanes one after another through the scalar evaluator,
// and WorstCase assembles their results into one cost. After warm-up a
// full Run performs zero heap allocations, like the scalar hot path.
type BatchWorkspace struct {
	lanes []*EvalWorkspace
}

// NewCornerBatch builds a lane set with one workspace per corner-set
// lane (nominal first).
func (set *CornerSet) NewCornerBatch() *BatchWorkspace {
	bw := &BatchWorkspace{lanes: make([]*EvalWorkspace, set.K())}
	for i := range bw.lanes {
		bw.lanes[i] = set.Lane(i).NewWorkspace()
	}
	return bw
}

// K returns the number of lanes.
func (bw *BatchWorkspace) K() int { return len(bw.lanes) }

// Lane exposes lane i's workspace for post-evaluation inspection
// (State, Err, UnstableCount) and for SetClock. Its contents are valid
// until the next Run or RerunLane.
func (bw *BatchWorkspace) Lane(i int) *EvalWorkspace { return bw.lanes[i] }

// Run evaluates xs[i] on lane i (len(xs) ≤ K) without computing costs
// or touching the adaptive-weight statistics. A nil xs[i] skips lane i
// for this call (its Err reports the skip), which is how quarantined
// corners cost nothing. Per-lane results are read via Lane(i).State and
// Lane(i).Err.
func (bw *BatchWorkspace) Run(xs [][]float64) {
	if len(xs) > len(bw.lanes) {
		panic(fmt.Sprintf("astrx: batch: %d candidates > %d lanes", len(xs), len(bw.lanes)))
	}
	for i, x := range xs {
		if x == nil {
			bw.lanes[i].err = errLaneSkipped
			continue
		}
		bw.lanes[i].timedRun(x)
	}
}

// RerunLane re-evaluates lane i alone, overwriting its state from the
// last Run. The per-corner retry policy uses it: a lane whose evaluation
// failed gets one re-attempt before the failure is charged to its
// corner.
func (bw *BatchWorkspace) RerunLane(i int, x []float64) error {
	ws := bw.lanes[i]
	ws.timedRun(x)
	return ws.err
}
