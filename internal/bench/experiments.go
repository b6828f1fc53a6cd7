package bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"astrx/internal/acsim"
	"astrx/internal/awe"
	"astrx/internal/ckttest"
	"astrx/internal/expr"
	"astrx/internal/mna"
	"astrx/internal/netlist"
)

// ModelVariant is one arm of the §VI model-comparison experiment: the
// same Simple OTA, same specs, different device model / process.
type ModelVariant struct {
	Label      string
	Lib        string
	NMod, PMod string
}

// ModelVariants are the paper's three combinations.
var ModelVariants = []ModelVariant{
	{Label: "BSIM/2u", Lib: "c2u", NMod: "nbsim", PMod: "pbsim"},
	{Label: "BSIM/1.2u", Lib: "c1.2u", NMod: "nbsim", PMod: "pbsim"},
	{Label: "MOS3/1.2u", Lib: "c1.2u", NMod: "nmos3", PMod: "pmos3"},
}

// ModelResult is one arm's outcome.
type ModelResult struct {
	Variant ModelVariant
	AreaUm2 float64 // synthesized active area in µm²
	GainDB  float64
	GBWHz   float64
	Met     bool // all constraint specs met in simulation
}

// ModelComparison re-synthesizes the Simple OTA under each variant,
// minimizing area at fixed specs — experiment E6. The paper found
// BSIM/2µ largest, then BSIM/1.2µ, then MOS3/1.2µ (580/300/140 µm²):
// the *model*, not just the process, changes the design.
func ModelComparison(ctx context.Context, opt SynthOptions) ([]ModelResult, error) {
	out := make([]ModelResult, 0, len(ModelVariants))
	for i, v := range ModelVariants {
		src := SimpleOTASource(v.Lib, v.NMod, v.PMod)
		o := opt
		o.Seed = opt.Seed + int64(i)*37
		res, err := synthesizeDeck(ctx, SimpleOTA, src, o)
		if err != nil {
			return nil, fmt.Errorf("bench: model variant %s: %w", v.Label, err)
		}
		mr := ModelResult{Variant: v, Met: true}
		if row := res.Report.Spec("area"); row != nil {
			mr.AreaUm2 = row.Simulated * 1e12
		}
		if row := res.Report.Spec("adm"); row != nil {
			mr.GainDB = row.Simulated
		}
		if row := res.Report.Spec("gbw"); row != nil {
			mr.GBWHz = row.Simulated
		}
		for _, row := range res.Report.Specs {
			if !row.Objective && !row.Met {
				mr.Met = false
			}
		}
		out = append(out, mr)
	}
	return out, nil
}

// FormatModelComparison renders E6.
func FormatModelComparison(rs []ModelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPERIMENT E6. SIMPLE OTA UNDER THREE MODEL/PROCESS COMBINATIONS\n")
	fmt.Fprintf(&b, "%-12s %14s %10s %12s %8s\n", "Variant", "Area (um^2)", "Gain (dB)", "GBW (MHz)", "AllMet")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-12s %14.4g %10.4g %12.4g %8v\n",
			r.Variant.Label, r.AreaUm2, r.GainDB, r.GBWHz/1e6, r.Met)
	}
	return b.String()
}

// AWEPoint is one size point of experiment E7.
type AWEPoint struct {
	Nodes     int
	AWETime   time.Duration // one full AWE transfer-function extraction
	ACTime    time.Duration // a 200-point AC sweep (SPICE-style)
	MaxRelErr float64       // AWE vs exact across the sweep band
	Speedup   float64
}

// AWEScaling measures AWE cost and accuracy against direct AC sweeps on
// RC ladders of growing size, supporting §IV's claims (evaluation in
// tens of milliseconds at 1994 speeds; complexity ≈ O(n^1.4); accuracy
// matching simulation).
func AWEScaling(sizes []int) ([]AWEPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{10, 20, 40, 80, 160, 240}
	}
	const sweepPts = 200
	out := make([]AWEPoint, 0, len(sizes))
	for _, n := range sizes {
		nl := ckttest.RCLadder(n, 1e3, 1e-9)
		sys, err := mna.Build(nl, expr.MapEnv{})
		if err != nil {
			return nil, err
		}
		out1 := fmt.Sprintf("n%d", n)

		// Time both sides as the best of reps interleaved repetitions: an
		// AWE extraction (build analyzer + extract TF), then an AC sweep.
		// Load on the machine then slows both alike, and each side's
		// minimum is its least disturbed run.
		const reps = 5
		ac := acsim.NewAnalyzer(sys)
		wLo, wHi := 1e3, 1e9
		aweTime, acTime := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		var tf *awe.TF
		var sw *acsim.Sweep
		for r := 0; r < reps; r++ {
			start := time.Now()
			an, err := awe.NewAnalyzer(sys)
			if err != nil {
				return nil, err
			}
			tf, err = an.TransferFunction("vin", out1, "", 6)
			if err != nil {
				return nil, err
			}
			aweTime = min(aweTime, time.Since(start))

			start = time.Now()
			sw, err = ac.LogSweep("vin", out1, "", wLo, wHi, sweepPts)
			if err != nil {
				return nil, err
			}
			acTime = min(acTime, time.Since(start))
		}

		// Accuracy across the band (relative to the passband magnitude —
		// deep in the stopband both responses are ~0 and the paper's
		// measures never look there).
		maxErr := 0.0
		for _, p := range sw.Points {
			exact := p.H
			if mag := cmAbs(exact); mag < 1e-3 {
				continue
			}
			approx := tf.Eval(complex(0, p.Omega))
			rel := cmAbs(approx-exact) / cmAbs(exact)
			if rel > maxErr {
				maxErr = rel
			}
		}
		out = append(out, AWEPoint{
			Nodes:     n,
			AWETime:   aweTime,
			ACTime:    acTime,
			MaxRelErr: maxErr,
			Speedup:   float64(acTime) / float64(aweTime),
		})
	}
	return out, nil
}

func cmAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

// FitExponent least-squares fits t = a·n^k over the points and returns
// k, using only the larger half of the sizes (small circuits are
// dominated by fixed per-analysis overhead, not the LU).
func FitExponent(pts []AWEPoint) float64 {
	if len(pts) > 3 {
		pts = pts[len(pts)/2-1:]
	}
	n := float64(len(pts))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x := math.Log(float64(p.Nodes))
		y := math.Log(float64(p.AWETime))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// FormatAWEScaling renders E7.
func FormatAWEScaling(pts []AWEPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXPERIMENT E7. AWE VS DIRECT AC SWEEP (200 points)\n")
	fmt.Fprintf(&b, "%6s %12s %12s %10s %12s\n", "nodes", "AWE", "AC sweep", "speedup", "maxRelErr")
	for _, p := range pts {
		fmt.Fprintf(&b, "%6d %12v %12v %9.1fx %12.3g\n",
			p.Nodes, p.AWETime.Round(time.Microsecond), p.ACTime.Round(time.Microsecond),
			p.Speedup, p.MaxRelErr)
	}
	fmt.Fprintf(&b, "empirical AWE cost exponent: O(n^%.2f) (sparse LU here and in the paper, which gave ~O(n^1.4))\n",
		FitExponent(pts))
	return b.String()
}

// ParseAll is a convenience for the CLI: parse every suite deck, failing
// fast with a helpful message.
func ParseAll() (map[Circuit]*netlist.Deck, error) {
	out := make(map[Circuit]*netlist.Deck, len(Suite))
	for _, c := range Suite {
		d, err := Parse(c)
		if err != nil {
			return nil, err
		}
		out[c] = d
	}
	return out, nil
}
