package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"astrx/internal/circuit"
	"astrx/internal/oblx"
)

// Table1Row is one column of the paper's Table 1 ("Result of ASTRX's
// analyses"), transposed into a row per circuit.
type Table1Row struct {
	Circuit      Circuit
	NetlistLines int
	SynthLines   int
	UserVars     int
	NodeVars     int
	Terms        int
	CLines       int
	BiasNodes    int
	BiasElems    int
	Jigs         []circuit.Stats
}

// Table1 compiles every benchmark and collects its analysis statistics.
func Table1() ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(Suite))
	for _, c := range Suite {
		comp, err := Compile(c)
		if err != nil {
			return nil, err
		}
		s := comp.Stats()
		rows = append(rows, Table1Row{
			Circuit:      c,
			NetlistLines: s.NetlistLines,
			SynthLines:   s.SynthLines,
			UserVars:     s.UserVars,
			NodeVars:     s.NodeVoltVars,
			Terms:        s.CostTerms,
			CLines:       s.EstCLines,
			BiasNodes:    s.BiasNodes,
			BiasElems:    s.BiasElements,
			Jigs:         s.JigCircuits,
		})
	}
	return rows, nil
}

// FormatTable1 renders Table 1 as aligned text.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE 1. RESULT OF ASTRX'S ANALYSES\n")
	fmt.Fprintf(&b, "%-22s %8s %8s %6s %7s %6s %8s %14s %s\n",
		"Circuit", "Netlist", "Synth", "UserX", "NodeVX", "Terms", "LinesC", "Bias(n,e)", "AWE circuits (n,e)")
	for _, r := range rows {
		jigs := make([]string, len(r.Jigs))
		for i, j := range r.Jigs {
			jigs[i] = fmt.Sprintf("A:%d,%d", j.Nodes, j.Elements)
		}
		fmt.Fprintf(&b, "%-22s %8d %8d %6d %7d %6d %8d %14s %s\n",
			r.Circuit, r.NetlistLines, r.SynthLines, r.UserVars, r.NodeVars,
			r.Terms, r.CLines, fmt.Sprintf("B:%d,%d", r.BiasNodes, r.BiasElems),
			strings.Join(jigs, " "))
	}
	return b.String()
}

// specUnit describes how Table 2 formats one spec.
type specUnit struct {
	label string
	scale float64 // display = value / scale
	unit  string
}

var table2Units = map[string]specUnit{
	"adm":   {"dc gain (dB)", 1, "dB"},
	"gain":  {"dc gain (dB)", 1, "dB"},
	"gbw":   {"gain bandwidth (MHz)", 1e6, "MHz"},
	"bw":    {"bandwidth (MHz)", 1e6, "MHz"},
	"pm":    {"phase margin (deg)", 1, "°"},
	"psrrn": {"PSRR (Vss) (dB)", 1, "dB"},
	"psrrp": {"PSRR (Vdd) (dB)", 1, "dB"},
	"swing": {"output swing (V)", 1, "V"},
	"sr":    {"slew rate (V/us)", 1e6, "V/µs"},
	"pwr":   {"static power (mW)", 1e-3, "mW"},
	"area":  {"active area (1e3 um^2)", 1e-9, "k µm²"},
}

// Table2Result is one synthesized benchmark with its verification.
type Table2Result struct {
	*SynthResult
}

// Table2 synthesizes the Table-2 suite. Budget and run count are per
// circuit; runs execute in parallel inside RunBest.
func Table2(ctx context.Context, opt SynthOptions) ([]Table2Result, error) {
	out := make([]Table2Result, 0, len(Table2Suite))
	for i, c := range Table2Suite {
		o := opt
		o.Seed = opt.Seed + int64(i)*1000003
		res, err := Synthesize(ctx, c, o)
		if err != nil {
			return nil, err
		}
		out = append(out, Table2Result{res})
	}
	return out, nil
}

// FormatTable2 renders the synthesis results in the paper's layout:
// "target: OBLX / Simulation" per attribute.
func FormatTable2(results []Table2Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE 2. BASIC SYNTHESIS RESULTS (spec: OBLX / Simulation)\n")
	for _, res := range results {
		fmt.Fprintf(&b, "\n-- %s --\n", res.Circuit)
		deck := res.Run.Compiled.Deck
		for _, s := range deck.Specs {
			row := res.Report.Spec(s.Name)
			if row == nil {
				continue
			}
			u, ok := table2Units[s.Name]
			if !ok {
				u = specUnit{s.Name, 1, ""}
			}
			dir := ">="
			if s.Objective {
				if s.Maximize() {
					dir = "max"
				} else {
					dir = "min"
				}
			} else if !s.Maximize() {
				dir = "<="
			}
			target := fmt.Sprintf("%s %.4g", dir, s.Good/u.scale)
			if s.Objective {
				target = dir
			}
			met := " "
			if !row.Met && !s.Objective {
				met = "!"
			}
			fmt.Fprintf(&b, "  %-24s %10s: %10.4g / %-10.4g %s%s\n",
				u.label, target, row.Predicted/u.scale, row.Simulated/u.scale, u.unit, met)
		}
		fmt.Fprintf(&b, "  %-24s %10s: %v\n", "time/ckt eval", "", res.Run.TimePerEval().Round(time.Microsecond))
		fmt.Fprintf(&b, "  %-24s %10s: %v (%d evals, froze=%v)\n", "CPU time/run", "",
			res.Run.Duration.Round(time.Millisecond), res.Run.EvalCount, res.Run.Froze)
		fmt.Fprintf(&b, "  %-24s %10s: %.3g (worst spec rel err)\n", "OBLX-vs-sim accuracy", "", res.Report.WorstRelErr)
	}
	return b.String()
}

// ManualNovelFC is the published manual design of the novel folded
// cascode (Table 3, "Manual Design" column), quoted from the paper.
var ManualNovelFC = map[string]float64{
	"adm":   71.2,    // dB
	"gbw":   47.8e6,  // Hz
	"pm":    77.4,    // degrees
	"psrrn": 92.6,    // dB
	"psrrp": 72.3,    // dB
	"swing": 2.8,     // V (±1.4)
	"sr":    76.8e6,  // V/s
	"area":  68.7e-9, // m²
	"pwr":   9.0e-3,  // W
}

// Table3 re-synthesizes the novel folded cascode (the paper's Table 3).
func Table3(ctx context.Context, opt SynthOptions) (*SynthResult, error) {
	return Synthesize(ctx, NovelFC, opt)
}

// FormatTable3 renders the manual-vs-automatic comparison.
func FormatTable3(res *SynthResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE 3. NOVEL FOLDED CASCODE: MANUAL VS AUTOMATIC RE-SYNTHESIS\n")
	fmt.Fprintf(&b, "%-24s %12s %14s\n", "Attribute", "Manual", "OBLX / Sim")
	deck := res.Run.Compiled.Deck
	for _, s := range deck.Specs {
		row := res.Report.Spec(s.Name)
		if row == nil {
			continue
		}
		u, ok := table2Units[s.Name]
		if !ok {
			u = specUnit{s.Name, 1, ""}
		}
		manual, hasManual := ManualNovelFC[s.Name]
		ms := "-"
		if hasManual {
			ms = fmt.Sprintf("%.4g", manual/u.scale)
		}
		fmt.Fprintf(&b, "%-24s %12s %8.4g / %-8.4g %s\n",
			u.label, ms, row.Predicted/u.scale, row.Simulated/u.scale, u.unit)
	}
	fmt.Fprintf(&b, "%-24s %12s %14v\n", "time/ckt eval", "-", res.Run.TimePerEval().Round(time.Microsecond))
	fmt.Fprintf(&b, "%-24s %12s %14v\n", "CPU time/run", "-", res.Run.Duration.Round(time.Millisecond))
	return b.String()
}

// Fig2 runs the Simple OTA with trace recording and returns the KCL
// discrepancy series the paper plots.
func Fig2(ctx context.Context, opt SynthOptions) ([]oblx.TraceSample, error) {
	d, err := Parse(SimpleOTA)
	if err != nil {
		return nil, err
	}
	if opt.MaxMoves == 0 {
		opt.MaxMoves = 60_000
	}
	res, err := oblx.Run(ctx, d, oblx.Options{
		Seed: opt.Seed, MaxMoves: opt.MaxMoves, RecordTrace: true,
	})
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

// FormatFig2 renders the trace as a text series plus a crude log plot.
func FormatFig2(trace []oblx.TraceSample) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 2. DISCREPANCY FROM KCL-CORRECT VOLTAGES DURING OPTIMIZATION\n")
	fmt.Fprintf(&b, "%8s %12s %12s\n", "move", "maxKCLerr", "cost")
	for i, tp := range trace {
		if i%4 != 0 && i != len(trace)-1 {
			continue
		}
		bar := ""
		if tp.MaxKCLError > 0 {
			n := int(8 + math.Log10(tp.MaxKCLError+1e-12))
			if n < 0 {
				n = 0
			}
			bar = strings.Repeat("#", n)
		}
		fmt.Fprintf(&b, "%8d %12.3e %12.4g %s\n", tp.Move, tp.MaxKCLError, tp.Cost, bar)
	}
	if len(trace) > 1 {
		early, last := oblx.EarlyKCLError(trace), trace[len(trace)-1].MaxKCLError
		fmt.Fprintf(&b, "KCL discrepancy: %.3e (early, max over the first quarter) -> %.3e (frozen)\n", early, last)
	}
	return b.String()
}

// Fig3Point is one symbol of Fig. 3: preparatory-plus-CPU time for a
// first-time design vs worst-case prediction error, with complexity.
type Fig3Point struct {
	Tool       string
	Class      string  // "equation-based", "simulation-based", "astrx/oblx"
	PrepHours  float64 // designer time to pose the problem
	CPUHours   float64 // tool time
	ErrorPct   float64 // worst prediction-vs-simulation discrepancy
	Complexity int     // devices + user variables
	Source     string  // "literature" or "measured"
}

// Fig3Literature reproduces the prior-work clusters from the paper's
// figure (values read off the published scatter; see EXPERIMENTS.md).
// The paper equates 1000 lines of circuit-specific code to one month
// (~170 working hours).
var Fig3Literature = []Fig3Point{
	{Tool: "OASYS", Class: "equation-based", PrepHours: 2 * 170, CPUHours: 0.02, ErrorPct: 30, Complexity: 30, Source: "literature"},
	{Tool: "OPASYN", Class: "equation-based", PrepHours: 1.5 * 170, CPUHours: 0.01, ErrorPct: 20, Complexity: 25, Source: "literature"},
	{Tool: "STAIC", Class: "equation-based", PrepHours: 1 * 170, CPUHours: 0.05, ErrorPct: 50, Complexity: 28, Source: "literature"},
	{Tool: "ARIADNE", Class: "equation-based", PrepHours: 0.7 * 170, CPUHours: 0.5, ErrorPct: 200, Complexity: 35, Source: "literature"},
	{Tool: "Seattle/IDAC", Class: "equation-based", PrepHours: 12 * 170, CPUHours: 0.01, ErrorPct: 10, Complexity: 40, Source: "literature"},
}

// Fig3 measures the two live points: our equation-based baseline and an
// ASTRX/OBLX run on the same circuit, then merges the literature points.
func Fig3(opt SynthOptions, eqPrepHours, deckPrepHours float64,
	eqErrPct float64, eqCPU time.Duration,
	synthErrPct float64, synthCPU time.Duration, complexity int) []Fig3Point {
	pts := append([]Fig3Point(nil), Fig3Literature...)
	pts = append(pts,
		Fig3Point{
			Tool: "eqbase (this repo)", Class: "equation-based",
			PrepHours: eqPrepHours, CPUHours: eqCPU.Hours(),
			ErrorPct: eqErrPct, Complexity: complexity, Source: "measured",
		},
		Fig3Point{
			Tool: "ASTRX/OBLX (this repo)", Class: "astrx/oblx",
			PrepHours: deckPrepHours, CPUHours: synthCPU.Hours(),
			ErrorPct: synthErrPct, Complexity: complexity, Source: "measured",
		},
	)
	sort.Slice(pts, func(i, j int) bool { return pts[i].PrepHours+pts[i].CPUHours > pts[j].PrepHours+pts[j].CPUHours })
	return pts
}

// FormatFig3 renders the scatter as a table ordered by total time.
func FormatFig3(pts []Fig3Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIG 3. COMPLEXITY, ERROR AND FIRST-TIME DESIGN EFFORT\n")
	fmt.Fprintf(&b, "%-24s %-16s %12s %10s %10s %6s %s\n",
		"Tool", "Class", "PrepHours", "CPUHours", "Err%", "Cmplx", "Source")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-24s %-16s %12.3g %10.3g %10.3g %6d %s\n",
			p.Tool, p.Class, p.PrepHours, p.CPUHours, p.ErrorPct, p.Complexity, p.Source)
	}
	return b.String()
}

// DeckPrepHours estimates the preparatory effort of an ASTRX deck — the
// "afternoon of effort" the paper reports. We charge 2 minutes per deck
// line, which lands a ~90-line deck at roughly three hours.
func DeckPrepHours(c Circuit) (float64, error) {
	comp, err := Compile(c)
	if err != nil {
		return 0, err
	}
	s := comp.Stats()
	return float64(s.NetlistLines+s.SynthLines) * 2.0 / 60.0, nil
}
