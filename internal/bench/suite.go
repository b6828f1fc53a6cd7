package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"astrx/internal/astrx"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/verify"
)

// Circuit identifies one benchmark.
type Circuit string

// The benchmark suite of Table 1.
const (
	SimpleOTA      Circuit = "Simple OTA"
	OTA            Circuit = "OTA"
	TwoStage       Circuit = "Two-Stage"
	FoldedCascode  Circuit = "Folded Cascode"
	Comparator     Circuit = "Comparator"
	BiCMOSTwoStage Circuit = "BiCMOS Two-Stage"
	NovelFC        Circuit = "Novel Folded Cascode"
)

// Suite lists the benchmarks in Table 1 order.
var Suite = []Circuit{
	SimpleOTA, OTA, TwoStage, FoldedCascode, Comparator, BiCMOSTwoStage, NovelFC,
}

// Table2Suite lists the circuits whose synthesis results appear in
// Table 2 (Comparator is published separately; Novel FC is Table 3).
var Table2Suite = []Circuit{SimpleOTA, OTA, TwoStage, FoldedCascode, BiCMOSTwoStage}

// DeckSource returns the ASTRX input deck for a benchmark. For SimpleOTA
// the model/process combination is selectable (experiment E6); the other
// circuits use Level-3 models on the 2µ process.
func DeckSource(c Circuit) string {
	switch c {
	case SimpleOTA:
		return SimpleOTASource("c2u", "nmos3", "pmos3")
	case OTA:
		return deckOTA
	case TwoStage:
		return deckTwoStage
	case FoldedCascode:
		return deckFoldedCascode
	case Comparator:
		return deckComparator
	case BiCMOSTwoStage:
		return deckBiCMOSTwoStage
	case NovelFC:
		return deckNovelFoldedCascode
	}
	panic(fmt.Sprintf("bench: unknown circuit %q", c))
}

// SimpleOTASource renders the Simple OTA deck for a given process
// library and NMOS/PMOS model pair — the knob experiment E6 turns.
func SimpleOTASource(lib, nmod, pmod string) string {
	body := strings.ReplaceAll(deckSimpleOTABody, "NMOD", nmod)
	body = strings.ReplaceAll(body, "PMOD", pmod)
	return ".lib " + lib + "\n" + body
}

// Parse parses a benchmark deck.
func Parse(c Circuit) (*netlist.Deck, error) {
	d, err := netlist.Parse(DeckSource(c))
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", c, err)
	}
	return d, nil
}

// Compile parses and compiles a benchmark.
func Compile(c Circuit) (*astrx.Compiled, error) {
	d, err := Parse(c)
	if err != nil {
		return nil, err
	}
	comp, err := astrx.Compile(d, astrx.CostOptions{})
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", c, err)
	}
	return comp, nil
}

// SynthOptions configures a benchmark synthesis.
type SynthOptions struct {
	Seed     int64
	MaxMoves int // 0 → oblx.DefaultMaxMoves
	Runs     int // parallel seeded runs, best kept (0 → 1)
}

// SynthResult bundles synthesis output with its verification.
type SynthResult struct {
	Circuit Circuit
	Run     *oblx.Result
	Report  *verify.Report
}

// Synthesize runs OBLX on a benchmark and verifies the result against
// the reference simulator.
func Synthesize(ctx context.Context, c Circuit, opt SynthOptions) (*SynthResult, error) {
	return synthesizeDeck(ctx, c, DeckSource(c), opt)
}

func synthesizeDeck(ctx context.Context, c Circuit, src string, opt SynthOptions) (*SynthResult, error) {
	d, err := netlist.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", c, err)
	}
	best, errs := oblx.RunBest(ctx, d, opt.Runs, oblx.Options{Seed: opt.Seed, MaxMoves: opt.MaxMoves})
	if best == nil {
		return nil, fmt.Errorf("bench: %s: %w", c, errors.Join(errs...))
	}
	rep, err := verify.Design(best.Compiled, best.X, best.State.SpecVals)
	if err != nil {
		return nil, fmt.Errorf("bench: %s verify: %w", c, err)
	}
	return &SynthResult{Circuit: c, Run: best, Report: rep}, nil
}

// netlistParse and astrxCompile are tiny aliases so tests read cleanly.
func netlistParse(src string) (*netlist.Deck, error) { return netlist.Parse(src) }

func astrxCompile(d *netlist.Deck) (*astrx.Compiled, error) {
	return astrx.Compile(d, astrx.CostOptions{})
}
