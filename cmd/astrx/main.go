// Command astrx compiles an ASTRX problem description and prints the
// analysis statistics (the per-circuit content of the paper's Table 1)
// without running any synthesis.
//
// Usage:
//
//	astrx <deck-file>
//	astrx -bench "Simple OTA"     # compile a builtin benchmark
//	astrx -list                   # list builtin benchmarks
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"astrx/internal/astrx"
	"astrx/internal/bench"
	"astrx/internal/netlist"
)

func main() {
	benchName := flag.String("bench", "", "compile a builtin benchmark instead of a file")
	list := flag.Bool("list", false, "list builtin benchmarks")
	hashOnly := flag.Bool("hash", false, "print the deck's canonical content hash (the oblxd result-cache key input) and exit")
	cornersFlag := flag.String("corners", "", `corners to compile plans for: comma-separated .corner names, "all" (default), or "none"`)
	flag.Parse()
	corners, err := astrx.ParseCorners(*cornersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "astrx: -corners:", err)
		os.Exit(2)
	}

	if *list {
		for _, c := range bench.Suite {
			fmt.Println(c)
		}
		return
	}

	var src, title string
	switch {
	case *benchName != "":
		found := false
		for _, c := range bench.Suite {
			if string(c) == *benchName {
				src = bench.DeckSource(c)
				title = *benchName
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "astrx: unknown benchmark %q (try -list)\n", *benchName)
			os.Exit(1)
		}
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "astrx:", err)
			os.Exit(1)
		}
		src = string(data)
		title = flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: astrx [-bench name | deck-file]")
		os.Exit(2)
	}

	if *hashOnly {
		h, err := netlist.CanonicalHash(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "astrx:", err)
			os.Exit(1)
		}
		fmt.Println(h)
		return
	}

	deck, err := netlist.Parse(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "astrx:", err)
		os.Exit(1)
	}
	// Pre-flight before compiling: every detectable mistake is reported
	// at once (dangling transfer functions, bad variable ranges, ...),
	// not just the first one Compile happens to trip over.
	if err := deck.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "astrx: deck failed validation:")
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	comp, err := astrx.Compile(deck, astrx.CostOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "astrx:", err)
		os.Exit(1)
	}
	s := comp.Stats()
	fmt.Printf("ASTRX analysis of %s\n", title)
	fmt.Printf("  input lines:   netlist/models %d, synthesis-specific %d\n", s.NetlistLines, s.SynthLines)
	fmt.Printf("  variables:     user-supplied %d, node voltages added %d\n", s.UserVars, s.NodeVoltVars)
	fmt.Printf("  cost function: %d terms (~%d lines of generated C in the original tool)\n", s.CostTerms, s.EstCLines)
	fmt.Printf("  bias circuit:  %d nodes, %d elements\n", s.BiasNodes, s.BiasElements)
	for i, j := range s.JigCircuits {
		a := s.AWE[i]
		share := ""
		if a.Reuses >= 0 {
			share = fmt.Sprintf("; reuses circuit %d's factored matrix", a.Reuses+1)
		}
		fmt.Printf("  AWE circuit %d (%s): %d nodes, %d elements%s\n", i+1, a.Name, j.Nodes, j.Elements, share)
		for _, tf := range a.TFs {
			how := "one solve; moments and Padé fit when a spec reads the model"
			if tf.DCOnly {
				how = "read only by dc_gain: one solve, never fitted"
			}
			fmt.Printf("    tf %-8s %s\n", tf.Name, how)
		}
	}
	for _, v := range comp.Vars()[:comp.NUser] {
		kind := "log-grid"
		if v.Continuous {
			kind = "continuous"
		}
		fmt.Printf("  var %-10s [%.3g, %.3g] %s\n", v.Name, v.Min, v.Max, kind)
	}

	names, err := astrx.SelectCorners(deck, corners)
	if err != nil {
		fmt.Fprintln(os.Stderr, "astrx:", err)
		os.Exit(1)
	}
	if len(names) > 0 {
		set, err := astrx.CompileCorners(deck, names, astrx.CostOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "astrx:", err)
			os.Exit(1)
		}
		fmt.Printf("  corners:       %d lanes (nominal + %s), %d worst-case annealing variables\n",
			set.K(), strings.Join(names, ", "), set.NVars())
	}
}
