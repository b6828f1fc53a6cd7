package astrx

import (
	"context"
	"errors"
	"fmt"

	iastrx "astrx/internal/astrx"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/verify"
)

// SynthConfig tunes a synthesis run through the façade.
type SynthConfig struct {
	// Seed is the base random seed (default 1).
	Seed int64
	// MaxMoves is the annealing move budget per run (default
	// oblx.DefaultMaxMoves, 120 000).
	MaxMoves int
	// Runs is the number of independent seeded runs; the best is kept
	// (default 1). The paper used "5-10 annealing runs overnight".
	Runs int
}

// Result is a completed synthesis.
type Result struct {
	// Run is the winning OBLX run (variables, cost, trace, timings).
	Run *oblx.Result
	// Deck is the parsed problem description.
	Deck *netlist.Deck
}

// Variables returns the synthesized user design variables by name.
func (r *Result) Variables() map[string]float64 {
	out := make(map[string]float64, r.Run.Compiled.NUser)
	for i := 0; i < r.Run.Compiled.NUser; i++ {
		out[r.Run.Compiled.Vars()[i].Name] = r.Run.X[i]
	}
	return out
}

// Specs returns OBLX's predicted spec values.
func (r *Result) Specs() map[string]float64 {
	out := make(map[string]float64, len(r.Run.State.SpecVals))
	for k, v := range r.Run.State.SpecVals {
		out[k] = v
	}
	return out
}

// Compile parses and compiles a deck without synthesizing — the ASTRX
// half on its own. The returned Stats carry the Table-1-style analysis.
func Compile(deckSource string) (*iastrx.Compiled, error) {
	d, err := netlist.Parse(deckSource)
	if err != nil {
		return nil, err
	}
	return iastrx.Compile(d, iastrx.CostOptions{})
}

// Synthesize runs the full ASTRX→OBLX flow on a problem description.
func Synthesize(deckSource string, cfg SynthConfig) (*Result, error) {
	return SynthesizeContext(context.Background(), deckSource, cfg)
}

// SynthesizeContext is Synthesize with cancellation: when ctx is
// cancelled or its deadline passes, the run stops early and the
// best-so-far design is returned (Run.Cancelled is set) instead of an
// error. With Runs > 1 a run that fails is retried once with a fresh
// seed; surviving runs still compete, and an error is only returned when
// every run failed.
func SynthesizeContext(ctx context.Context, deckSource string, cfg SynthConfig) (*Result, error) {
	d, err := netlist.Parse(deckSource)
	if err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	run, errs := oblx.RunBest(ctx, d, cfg.Runs, oblx.Options{Seed: cfg.Seed, MaxMoves: cfg.MaxMoves})
	if run == nil {
		return nil, errors.Join(errs...)
	}
	return &Result{Run: run, Deck: d}, nil
}

// Verify measures a synthesized design with the reference simulator
// (full Newton bias solve plus direct AC sweeps) and compares it with
// OBLX's predictions spec by spec.
func Verify(r *Result) (*verify.Report, error) {
	if r == nil || r.Run == nil {
		return nil, fmt.Errorf("astrx: nil result")
	}
	return verify.Design(r.Run.Compiled, r.Run.X, r.Run.State.SpecVals)
}
