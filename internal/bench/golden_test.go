package bench

import (
	"encoding/json"
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"testing"

	"astrx/internal/astrx"
)

// The compiled evaluation plan (astrx/plan.go + workspace.go) is held to
// committed golden values: for every Table 2 deck,
// testdata/eval_golden.json records the cost breakdown, every spec value,
// the KCL residual and flow at every free node, and every fitted
// transfer function along a fixed evaluation sequence. The values were
// produced by the string-keyed map evaluator the plan replaced, so any
// divergence above 1e-12 relative means the plan mis-translated a stamp,
// an ordering, or an error path — or that an intended numerical change
// needs the golden file regenerated on purpose.

const (
	goldenPath = "testdata/eval_golden.json"
	equivTol   = 1e-12
)

// goldenFloat is a float64 whose JSON form round-trips exactly and also
// carries the non-finite values a failed spec produces.
type goldenFloat float64

func (f goldenFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

func (f *goldenFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := strconv.ParseFloat(s, 64)
		*f = goldenFloat(v)
		return err
	}
	v, err := strconv.ParseFloat(string(b), 64)
	*f = goldenFloat(v)
	return err
}

// goldenCost is one astrx.CostBreakdown.
type goldenCost struct {
	Total     goldenFloat `json:"total"`
	Objective goldenFloat `json:"objective"`
	Perf      goldenFloat `json:"perf"`
	Dev       goldenFloat `json:"dev"`
	DC        goldenFloat `json:"dc"`
	Failed    bool        `json:"failed"`
}

// goldenTF is one fitted reduced-order model; roots are [re, im] pairs.
type goldenTF struct {
	Order int              `json:"order"`
	Poles [][2]goldenFloat `json:"poles"`
	Zeros [][2]goldenFloat `json:"zeros"`
}

// goldenEval is one evaluation. Specs, KCL (residual, flow per free
// node) and TFs are recorded only when the evaluation did not fail:
// after a failure they are undefined.
type goldenEval struct {
	X     []goldenFloat             `json:"x"`
	Cost  goldenCost                `json:"cost"`
	Specs map[string]goldenFloat    `json:"specs,omitempty"`
	KCL   map[string][2]goldenFloat `json:"kcl,omitempty"`
	TFs   map[string]goldenTF       `json:"tfs,omitempty"`
}

// relEq reports |a-b| <= tol·max(1, |a|, |b|), treating equal NaNs as
// equal (a failed spec reads NaN).
func relEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	if a == b {
		return true // equal infinities
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

func crelEq(a, b complex128, tol float64) bool {
	scale := math.Max(1, math.Max(cmplx.Abs(a), cmplx.Abs(b)))
	return cmplx.Abs(a-b) <= tol*scale
}

// evalSequence builds a deterministic walk through the design space:
// the deck's start point plus pseudo-random points spread across each
// variable's range. Some land in infeasible corners on purpose, so the
// failure paths are exercised too.
func evalSequence(c *astrx.Compiled, n int) [][]float64 {
	vars := c.Vars()
	rng := rand.New(rand.NewSource(12345))
	seq := make([][]float64, 0, n+1)
	x0 := make([]float64, len(vars))
	for i := range vars {
		x0[i] = vars[i].Start()
	}
	seq = append(seq, x0)
	for k := 0; k < n; k++ {
		x := make([]float64, len(vars))
		for i := range vars {
			v := &vars[i]
			x[i] = v.Min + rng.Float64()*(v.Max-v.Min)
		}
		seq = append(seq, x)
	}
	return seq
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func loadGolden(t *testing.T) map[string][]goldenEval {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g map[string][]goldenEval
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return g
}

// TestWorkspaceMatchesGolden replays each deck's recorded sequence
// through one compiled problem's shared workspace (the annealer's path)
// and requires every recorded quantity to agree to 1e-12 relative. The
// adaptive weights only change on Adapt, so a fresh Compile sees the
// same weights the recording saw.
func TestWorkspaceMatchesGolden(t *testing.T) {
	golden := loadGolden(t)
	for _, ckt := range Table2Suite {
		ckt := ckt
		t.Run(string(ckt), func(t *testing.T) {
			evals, ok := golden[string(ckt)]
			if !ok || len(evals) == 0 {
				t.Fatalf("%s has no evaluations for %s", goldenPath, ckt)
			}
			c, err := Compile(ckt)
			if err != nil {
				t.Fatal(err)
			}
			ws := c.Workspace()
			for k, g := range evals {
				x := make([]float64, len(g.X))
				for i, v := range g.X {
					x[i] = float64(v)
				}
				bd := ws.CostDetail(x)
				st := ws.State()
				if bd.Failed != g.Cost.Failed {
					t.Fatalf("eval %d: failed = %v, golden %v (err %v)", k, bd.Failed, g.Cost.Failed, st.Err)
				}
				for _, c := range []struct {
					name      string
					got, want float64
				}{
					{"total", bd.Total, float64(g.Cost.Total)},
					{"objective", bd.Objective, float64(g.Cost.Objective)},
					{"perf", bd.Perf, float64(g.Cost.Perf)},
					{"dev", bd.Dev, float64(g.Cost.Dev)},
					{"dc", bd.DC, float64(g.Cost.DC)},
				} {
					if !relEq(c.got, c.want, equivTol) {
						t.Errorf("eval %d: cost %s = %.17g, golden %.17g", k, c.name, c.got, c.want)
					}
				}
				if bd.Failed {
					continue
				}

				if len(st.SpecVals) != len(g.Specs) {
					t.Fatalf("eval %d: %d specs, golden %d", k, len(st.SpecVals), len(g.Specs))
				}
				for _, name := range sortedKeys(g.Specs) {
					if got, want := st.SpecVals[name], float64(g.Specs[name]); !relEq(got, want, equivTol) {
						t.Errorf("eval %d: spec %s = %.17g, golden %.17g", k, name, got, want)
					}
				}
				if len(st.KCL) != len(g.KCL) {
					t.Fatalf("eval %d: %d KCL nodes, golden %d", k, len(st.KCL), len(g.KCL))
				}
				for _, node := range sortedKeys(g.KCL) {
					want := g.KCL[node]
					if got := st.KCL[node]; !relEq(got, float64(want[0]), equivTol) {
						t.Errorf("eval %d: KCL residual at %s = %.17g, golden %.17g", k, node, got, float64(want[0]))
					}
					if got := st.KCLFlow[node]; !relEq(got, float64(want[1]), equivTol) {
						t.Errorf("eval %d: KCL flow at %s = %.17g, golden %.17g", k, node, got, float64(want[1]))
					}
				}
				if len(st.TFs) != len(g.TFs) {
					t.Fatalf("eval %d: %d TFs, golden %d", k, len(st.TFs), len(g.TFs))
				}
				for _, name := range sortedKeys(g.TFs) {
					tf, want := st.TFs[name], g.TFs[name]
					if tf == nil || tf.Order != want.Order || len(tf.Poles) != len(want.Poles) || len(tf.Zeros) != len(want.Zeros) {
						t.Errorf("eval %d: tf %s shape differs from golden q=%d p=%d z=%d",
							k, name, want.Order, len(want.Poles), len(want.Zeros))
						continue
					}
					for i, r := range want.Poles {
						if w := complex(float64(r[0]), float64(r[1])); !crelEq(tf.Poles[i], w, equivTol) {
							t.Errorf("eval %d: tf %s pole %d = %v, golden %v", k, name, i, tf.Poles[i], w)
						}
					}
					for i, r := range want.Zeros {
						if w := complex(float64(r[0]), float64(r[1])); !crelEq(tf.Zeros[i], w, equivTol) {
							t.Errorf("eval %d: tf %s zero %d = %v, golden %v", k, name, i, tf.Zeros[i], w)
						}
					}
				}
			}
		})
	}
}

// TestWorkspaceReuseIsDeterministic pins the zero-state-leak property
// the annealer's checkpoint/resume depends on: evaluating a sequence
// through one long-lived workspace must give bit-identical costs to
// evaluating the same sequence with a fresh workspace per point.
// (Adaptive weights live on the Compiled, not the workspace, so both
// sides see the same weight trajectory as long as the costs agree.)
func TestWorkspaceReuseIsDeterministic(t *testing.T) {
	for _, ckt := range []Circuit{SimpleOTA, BiCMOSTwoStage} {
		ckt := ckt
		t.Run(string(ckt), func(t *testing.T) {
			shared, err := Compile(ckt)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Compile(ckt)
			if err != nil {
				t.Fatal(err)
			}
			for k, x := range evalSequence(shared, 20) {
				got := shared.Cost(x)                // one reused workspace
				want := fresh.NewWorkspace().Cost(x) // a new workspace every time
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("eval %d: reused workspace cost %.17g, fresh workspace cost %.17g", k, got, want)
				}
			}
		})
	}
}
