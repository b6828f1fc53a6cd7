package anneal

import "fmt"

// Checkpoint is a complete, JSON-serializable snapshot of a Run in
// progress, captured at the top of the move loop (before move `Move` is
// proposed). It contains every piece of state the engine consults —
// vectors, temperature control, move-selection statistics, per-class
// adaptive amplitudes, and the RNG state — so a run resumed from a
// checkpoint replays the remaining moves exactly as the uninterrupted
// run would have.
type Checkpoint struct {
	// Seed and MaxMoves echo the Options the run was started with;
	// Resume validates MaxMoves (the cooling trajectory depends on it).
	Seed     int64 `json:"seed"`
	MaxMoves int   `json:"max_moves"`

	// Move is the index of the next move to execute.
	Move int `json:"move"`

	Cur      []float64 `json:"cur"`
	CurCost  float64   `json:"cur_cost"`
	Best     []float64 `json:"best"`
	BestCost float64   `json:"best_cost"`

	Temp    float64 `json:"temp"`
	TMax    float64 `json:"tmax"`
	AccRate float64 `json:"acc_rate"`

	Accepted  int `json:"accepted"`
	NonFinite int `json:"non_finite"`

	FrozenStages  int     `json:"frozen_stages"`
	StageDiscrete bool    `json:"stage_discrete"`
	StageMaxCont  float64 `json:"stage_max_cont"`

	RNGState uint64 `json:"rng_state"`

	Selector SelectorState `json:"selector"`
	// MoveStates holds the adaptive state of each move class, in palette
	// order (nil for stateless classes) — see StatefulMove.
	MoveStates [][]float64 `json:"move_states"`
	// ClassFails counts non-finite-cost rejections per move class.
	ClassFails []int `json:"class_fails"`
}

// SelectorState is the serializable Hustin-selector state: each class's
// quality, its proposals this stage, and its run totals. A checkpoint
// written when the state also held per-stage accepted counts still
// decodes: nothing read them, and the decoder skips the field.
type SelectorState struct {
	Quality  []float64 `json:"quality"`
	Proposed []int     `json:"proposed"`
	TotProp  []int     `json:"tot_prop"`
	TotAcc   []int     `json:"tot_acc"`
}

// validate checks a checkpoint for structural consistency against the
// problem and options it is being resumed into.
func (ck *Checkpoint) validate(nVars, nMoves, maxMoves int) error {
	switch {
	case len(ck.Cur) != nVars || len(ck.Best) != nVars:
		return fmt.Errorf("anneal: checkpoint has %d/%d variables, problem has %d",
			len(ck.Cur), len(ck.Best), nVars)
	case ck.MaxMoves != maxMoves:
		return fmt.Errorf("anneal: checkpoint was taken with MaxMoves=%d, resuming with %d",
			ck.MaxMoves, maxMoves)
	case ck.Move < 0 || ck.Move > ck.MaxMoves:
		return fmt.Errorf("anneal: checkpoint move %d out of range [0,%d]", ck.Move, ck.MaxMoves)
	case len(ck.MoveStates) != nMoves || len(ck.ClassFails) != nMoves:
		return fmt.Errorf("anneal: checkpoint has %d move classes, palette has %d",
			len(ck.MoveStates), nMoves)
	case len(ck.Selector.Quality) != nMoves || len(ck.Selector.Proposed) != nMoves ||
		len(ck.Selector.TotProp) != nMoves || len(ck.Selector.TotAcc) != nMoves:
		return fmt.Errorf("anneal: checkpoint selector state does not match %d move classes", nMoves)
	}
	return nil
}

// state snapshots the selector.
func (s *selector) state() SelectorState {
	return SelectorState{
		Quality:  append([]float64(nil), s.quality...),
		Proposed: append([]int(nil), s.proposed...),
		TotProp:  append([]int(nil), s.totProp...),
		TotAcc:   append([]int(nil), s.totAcc...),
	}
}

// restore overwrites the selector with a snapshot (lengths pre-validated).
func (s *selector) restore(st SelectorState) {
	copy(s.quality, st.Quality)
	copy(s.proposed, st.Proposed)
	copy(s.totProp, st.TotProp)
	copy(s.totAcc, st.TotAcc)
}
