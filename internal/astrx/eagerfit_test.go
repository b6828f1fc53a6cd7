package astrx

import (
	"fmt"

	"astrx/internal/telemetry"
)

// SetEagerFit makes ws evaluate its jigs with refEvalJig, the jig pass
// the evaluator ran before it fitted models lazily: every transfer
// function a spec can read beyond dc_gain is fitted in the jig pass.
// TestLazyFitMatchesEager holds the lazy evaluator to it.
func (ws *EvalWorkspace) SetEagerFit() { ws.jigPass = (*EvalWorkspace).refEvalJig }

// refEvalJig is the eager jig pass, kept verbatim as a reference.
func (ws *EvalWorkspace) refEvalJig(jp *jigPlan, jw *jigWS, factor bool) error {
	if factor {
		if err := ws.stampJig(jp, jw); err != nil {
			return err
		}
		if err := jw.eng.Refactor(); err != nil {
			return fmt.Errorf("astrx: jig %s: %w", jp.name, err)
		}
		ws.clock.Mark(telemetry.StageFactor)
	}
	gen := jw.eng.Gen()
	for i := range jp.tfs {
		tp := &jp.tfs[i]
		if tp.err != nil {
			return fmt.Errorf("astrx: jig %s tf %s: %w", jp.name, tp.name, tp.err)
		}
		s := &ws.slots[tp.tfIdx]
		if s.gen == gen {
			if s.unstable {
				ws.unstable++
			}
			continue
		}
		if tp.dcOnly {
			s.version++
			mu := jw.mu[:1]
			jw.eng.MomentsInto(mu, tp.b, tp.ip, tp.in)
			ws.tfs[tp.tfIdx].SetConstant(mu)
			ws.clock.Mark(telemetry.StageMoments)
			s.gen, s.fitted, s.unstable = gen, false, false
			continue
		}
		if tf := ws.fitTF(tp, jw); tf.Order > 0 && !tf.Stable() {
			s.unstable = true
			ws.unstable++
		}
	}
	return nil
}
