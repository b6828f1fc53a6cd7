package astrx

import (
	"astrx/internal/anneal"
	"astrx/internal/netlist"
)

// Weights holds the scalar weights of eq. (2)/(5): per-spec weights, a
// region-constraint weight, and the relaxed-dc KCL weight. The paper
// replaces hand-tuned constants with an adaptive scheme (§V-A, "Control
// Mechanisms"); Adapt implements a simple version — weights of
// persistently violated constraint groups grow, so no problem-specific
// tuning is ever required from the user.
type Weights struct {
	Spec   map[string]float64
	Region float64
	KCL    float64

	// violation EMAs per group, updated during Cost evaluation.
	emaSpec map[string]float64
	emaReg  float64
	emaKCL  float64
}

const (
	// weightCap bounds adaptive growth: a runaway weight makes the cost
	// landscape a cliff the annealer cannot traverse.
	weightCap   = 300.0
	emaDecay    = 0.999
	adaptFactor = 1.2
	adaptThresh = 1e-2
	// specFailUnits is the normalized-violation equivalent charged for a
	// spec that could not be evaluated at all (≫ 1 = "bad").
	specFailUnits = 10.0
)

func newWeights(deck *netlist.Deck, bias *BiasCkt) *Weights {
	w := &Weights{
		Spec:    make(map[string]float64, len(deck.Specs)),
		Region:  20,
		KCL:     100, // dc-correctness must not be tradable against specs
		emaSpec: make(map[string]float64, len(deck.Specs)),
	}
	for _, s := range deck.Specs {
		if s.Objective {
			w.Spec[s.Name] = 1
		} else {
			w.Spec[s.Name] = 10
		}
	}
	return w
}

// WeightsState is the serializable snapshot of the adaptive-weight
// state. The cost function is stateful (weights and violation EMAs
// evolve during annealing), so checkpoint/restart must capture it for a
// resumed run to reproduce an uninterrupted one exactly.
type WeightsState struct {
	Spec    map[string]float64 `json:"spec"`
	Region  float64            `json:"region"`
	KCL     float64            `json:"kcl"`
	EMASpec map[string]float64 `json:"ema_spec"`
	EMAReg  float64            `json:"ema_reg"`
	EMAKCL  float64            `json:"ema_kcl"`
}

// State snapshots the weights.
func (w *Weights) State() *WeightsState {
	s := &WeightsState{
		Spec:    make(map[string]float64, len(w.Spec)),
		Region:  w.Region,
		KCL:     w.KCL,
		EMASpec: make(map[string]float64, len(w.emaSpec)),
		EMAReg:  w.emaReg,
		EMAKCL:  w.emaKCL,
	}
	for k, v := range w.Spec {
		s.Spec[k] = v
	}
	for k, v := range w.emaSpec {
		s.EMASpec[k] = v
	}
	return s
}

// Restore overwrites the weights with a snapshot.
func (w *Weights) Restore(s *WeightsState) {
	if s == nil {
		return
	}
	for k, v := range s.Spec {
		w.Spec[k] = v
	}
	for k, v := range s.EMASpec {
		w.emaSpec[k] = v
	}
	w.Region, w.KCL = s.Region, s.KCL
	w.emaReg, w.emaKCL = s.EMAReg, s.EMAKCL
}

// Adapt grows the weight of any constraint group whose violation EMA
// remains above threshold. OBLX calls it periodically during annealing.
func (w *Weights) Adapt(deck *netlist.Deck) {
	for _, s := range deck.Specs {
		if s.Objective {
			continue
		}
		if w.emaSpec[s.Name] > adaptThresh && w.Spec[s.Name] < weightCap {
			w.Spec[s.Name] *= adaptFactor
		}
	}
	if w.emaReg > adaptThresh && w.Region < weightCap {
		w.Region *= adaptFactor
	}
	if w.emaKCL > adaptThresh && w.KCL < weightCap {
		w.KCL *= adaptFactor
	}
}

// Normalize maps a measured spec value onto the Nye-style scale: 0 at
// good, 1 at bad, linear in between and beyond.
func Normalize(s *netlist.Spec, v float64) float64 {
	return (s.Good - v) / (s.Good - s.Bad)
}

// CostBreakdown itemizes C(x) per eq. (5).
type CostBreakdown struct {
	Objective float64 // C^obj
	Perf      float64 // C^perf — spec constraint penalties
	Dev       float64 // C^dev — region constraint penalties
	DC        float64 // C^dc — relaxed-dc KCL penalties
	Failed    bool    // evaluation failed; Total = failCost
	Total     float64
}

// Cost evaluates C(x) (implements anneal.Problem together with Vars) on
// a fresh workspace, so each call pays the workspace's allocation and
// warm-up. It suits a one-off evaluation; a loop holds its own
// NewWorkspace and calls its Cost.
func (c *Compiled) Cost(x []float64) float64 {
	return c.NewWorkspace().Cost(x)
}

// Vars implements anneal.Problem.
func (c *Compiled) Vars() []anneal.VarSpec { return c.VarList }
