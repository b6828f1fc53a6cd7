package oblx

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"astrx/internal/anneal"
	"astrx/internal/astrx"
	"astrx/internal/faults"
	"astrx/internal/telemetry"
	"astrx/internal/trace"
)

// corneredDividerCards declare two corners that move the divider's bias
// source. The divider's gain is a resistor ratio, so the corners change
// the operating point but not the spec — which is exactly what the
// failure-machinery tests want: three lanes with identical spec
// behavior, so every observable difference comes from the corner
// bookkeeping under test, not the circuit.
const corneredDividerCards = `
.corner slow vb=0.9
.corner fast vb=1.1
`

// corneredDiffAmpCards are realistic worst-case corners for the Table 2
// diff-amp: a hot slow corner (raised threshold, sagging supply) and a
// cold fast one (raised supply).
const corneredDiffAmpCards = `
.corner slow temp=85 nmos3.vto=0.95 vdd=2.4
.corner fast temp=-40 vdd=2.6
`

// TestCornerSynthesisMeetsAllCorners is the headline worst-case check:
// annealing the Table 2 diff-amp over nominal + two corners must land
// on a design whose specs hold at every corner, with every lane
// dc-solved and none degraded.
func TestCornerSynthesisMeetsAllCorners(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis run in -short mode")
	}
	// The worst-case target: the spec must hold at the slow corner too,
	// so aim the ugf requirement where the corners can still reach it.
	src := strings.Replace(diffAmpDeck, "good=1Meg", "good=300k", 1) + corneredDiffAmpCards
	deck := parse(t, src)
	res, err := Run(context.Background(), deck, Options{Seed: 3, MaxMoves: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Failed {
		t.Fatal("worst-case cost failed")
	}
	if res.Degraded {
		t.Fatal("healthy corners were quarantined")
	}
	// The master vector carries one node-voltage section per lane.
	nUser := res.Compiled.NUser
	nFree := len(res.Compiled.Vars()) - nUser
	if want := nUser + 3*nFree; len(res.X) != want {
		t.Fatalf("len(X) = %d, want %d (user + 3 lanes)", len(res.X), want)
	}
	if len(res.Corners) != 3 {
		t.Fatalf("corner breakdown has %d lanes, want 3", len(res.Corners))
	}
	for _, cr := range res.Corners {
		if !cr.Evaluated {
			t.Errorf("corner %s: not evaluated at the final design", cr.Name)
			continue
		}
		if !cr.DCSolved {
			t.Errorf("corner %s: final bias not dc-solved", cr.Name)
		}
		if !cr.AllMet {
			t.Errorf("corner %s: specs not met at the final design: %v", cr.Name, cr.SpecVals)
		}
		if cr.SpecVals["ugf"] < 300e3 {
			t.Errorf("corner %s: ugf = %g Hz, want ≥ 300 kHz", cr.Name, cr.SpecVals["ugf"])
		}
	}
	for name, cf := range res.Failures.Corners {
		if cf.Quarantined {
			t.Errorf("corner %s quarantined in a healthy run (%d fails)", name, cf.Fails)
		}
	}
}

// TestCornerPermanentFailureDegrades pins the graceful-degradation
// contract: with one corner fault-injected to fail every evaluation,
// the run must retry, then quarantine that corner after exactly
// cornerQuarantineAfter consecutive failures, finish on the surviving
// lanes with Degraded set, and still synthesize a working design.
func TestCornerPermanentFailureDegrades(t *testing.T) {
	deck := parse(t, dividerDeck+corneredDividerCards)
	inj := faults.New(7, faults.Rates{CornerFail: 1, FailCorner: "slow"})
	res, err := Run(context.Background(), deck, Options{
		Seed: 5, MaxMoves: 15_000, Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("permanently failing corner did not degrade the run")
	}
	slow, ok := res.Failures.Corners["slow"]
	if !ok {
		t.Fatalf("no failure ledger for the injected corner: %+v", res.Failures.Corners)
	}
	if !slow.Quarantined {
		t.Error("slow corner not quarantined")
	}
	// Quarantine triggers after exactly the threshold of consecutive
	// post-retry failures; afterwards the lane is excluded, so the
	// counters freeze there — the accounting is fully deterministic.
	if slow.Fails != cornerQuarantineAfter {
		t.Errorf("slow corner fails = %d, want exactly %d", slow.Fails, cornerQuarantineAfter)
	}
	if slow.Retries != slow.Fails {
		t.Errorf("slow corner retries = %d, want %d (one retry per failure)", slow.Retries, slow.Fails)
	}
	if fast := res.Failures.Corners["fast"]; fast.Fails != 0 || fast.Quarantined {
		t.Errorf("healthy fast corner took collateral damage: %+v", fast)
	}
	if got, wantMin := inj.Count(faults.CornerFail), int64(2*cornerQuarantineAfter); got < wantMin {
		t.Errorf("injector fired %d times, want ≥ %d (initial + retry per eval)", got, wantMin)
	}
	// The run still optimizes the surviving lanes to a working design.
	if !isFiniteCost(res.Cost.Total) {
		t.Fatalf("degraded run cost = %g, want finite", res.Cost.Total)
	}
	if gain := res.State.SpecVals["gain"]; gain < 0.95 {
		t.Errorf("degraded run gain = %g, want ≥ 0.95", gain)
	}
	// Final per-lane breakdown: the quarantined corner is reported as
	// such and was not evaluated at the final design.
	byName := map[string]CornerResult{}
	for _, cr := range res.Corners {
		byName[cr.Name] = cr
	}
	if cr := byName["slow"]; !cr.Quarantined || cr.Evaluated || cr.AllMet || cr.DCSolved {
		t.Errorf("slow corner result = %+v, want quarantined and unevaluated", cr)
	}
	if cr := byName["fast"]; !cr.Evaluated {
		t.Errorf("fast corner result = %+v, want evaluated", cr)
	}
	if cr := byName["nominal"]; !cr.Evaluated || !cr.DCSolved {
		t.Errorf("nominal result = %+v, want evaluated and dc-solved", cr)
	}
}

// TestCornerCheckpointResumeReproducesRun is the corner-aware restart
// acceptance check: a worst-case run with a permanently failing corner,
// interrupted mid-flight and resumed from its checkpoint, must land on
// exactly the same design, counters, and per-corner ledger as the same
// run uninterrupted. The injected failure is rate-1 — it consumes no
// injector randomness, so both legs see the identical fault sequence.
func TestCornerCheckpointResumeReproducesRun(t *testing.T) {
	deck := parse(t, dividerDeck+corneredDividerCards)
	opt := Options{Seed: 21, MaxMoves: 40_000, NoFreeze: true}
	mkInj := func() *faults.Injector {
		return faults.New(7, faults.Rates{CornerFail: 1, FailCorner: "slow"})
	}

	full := opt
	full.Faults = mkInj()
	want, err := Run(context.Background(), deck, full)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Degraded {
		t.Fatal("reference run not degraded — fault injection broken?")
	}

	// Leg 1: checkpoint every 1500 moves, cancel at the first file.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20_000; i++ {
			if _, err := os.Stat(path); err == nil {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	o1 := opt
	o1.Faults = mkInj()
	o1.CheckpointPath = path
	o1.CheckpointEvery = 1500
	r1, err := Run(ctx, deck, o1)
	cancel()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if r1.CheckpointErr != nil {
		t.Fatal(r1.CheckpointErr)
	}
	if !r1.Cancelled {
		t.Skip("run finished before the cancel landed; nothing to resume")
	}

	// Leg 2: resume. The checkpoint carries the corner ledger — the
	// quarantine must not restart from zero.
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Corners) != 2 {
		t.Fatalf("checkpoint carries %d corners, want 2", len(ck.Corners))
	}
	o2 := opt
	o2.Faults = mkInj()
	o2.Resume = ck
	r2, err := Run(context.Background(), deck, o2)
	if err != nil {
		t.Fatal(err)
	}

	if r2.Cost.Total != want.Cost.Total {
		t.Errorf("final cost: resumed %g != uninterrupted %g", r2.Cost.Total, want.Cost.Total)
	}
	if len(r2.X) != len(want.X) {
		t.Fatalf("len(X): %d != %d", len(r2.X), len(want.X))
	}
	for i := range want.X {
		if r2.X[i] != want.X[i] {
			t.Fatalf("X[%d]: resumed %g != uninterrupted %g", i, r2.X[i], want.X[i])
		}
	}
	if r2.EvalCount != want.EvalCount {
		t.Errorf("eval count: resumed %d != uninterrupted %d", r2.EvalCount, want.EvalCount)
	}
	if r2.Moves != want.Moves {
		t.Errorf("moves: resumed %d != uninterrupted %d", r2.Moves, want.Moves)
	}
	if r2.Degraded != want.Degraded {
		t.Errorf("degraded: resumed %v != uninterrupted %v", r2.Degraded, want.Degraded)
	}
	if !reflect.DeepEqual(r2.Failures.Corners, want.Failures.Corners) {
		t.Errorf("corner ledger: resumed %+v != uninterrupted %+v",
			r2.Failures.Corners, want.Failures.Corners)
	}
}

// TestCornerNominalOnlyMatchesUncornered: an explicit empty corner
// selection on a cornered deck must reproduce the plain nominal run of
// the same circuit bit-exactly — the .corner cards change the deck's
// canonical text but not its nominal evaluation.
func TestCornerNominalOnlyMatchesUncornered(t *testing.T) {
	opt := Options{Seed: 1, MaxMoves: 15_000}
	plain, err := Run(context.Background(), parse(t, dividerDeck), opt)
	if err != nil {
		t.Fatal(err)
	}
	nomOpt := opt
	nomOpt.Corners = []string{}
	nom, err := Run(context.Background(), parse(t, dividerDeck+corneredDividerCards), nomOpt)
	if err != nil {
		t.Fatal(err)
	}
	if nom.Degraded || len(nom.Corners) != 0 || nom.Failures.Corners != nil {
		t.Errorf("nominal-only run grew corner state: degraded=%v corners=%d",
			nom.Degraded, len(nom.Corners))
	}
	if nom.Cost.Total != plain.Cost.Total {
		t.Errorf("cost: nominal-only %g != uncornered %g", nom.Cost.Total, plain.Cost.Total)
	}
	if !reflect.DeepEqual(nom.X, plain.X) {
		t.Errorf("X: nominal-only %v != uncornered %v", nom.X, plain.X)
	}
	if nom.EvalCount != plain.EvalCount {
		t.Errorf("eval count: nominal-only %d != uncornered %d", nom.EvalCount, plain.EvalCount)
	}
}

// TestCornerSelectionErrors: unknown corner names and corner-selection
// mismatches against a checkpoint are refused up front, not silently
// reinterpreted.
func TestCornerSelectionErrors(t *testing.T) {
	deck := parse(t, dividerDeck+corneredDividerCards)
	if _, err := Run(context.Background(), deck, Options{Corners: []string{"typo"}}); err == nil {
		t.Error("unknown corner name accepted")
	}

	// A nominal-only run must refuse a checkpoint that carries corners.
	comp, err := astrx.Compile(parse(t, dividerDeck), astrx.CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{
		Version: checkpointVersion, Vars: len(comp.Vars()),
		Anneal: &anneal.Checkpoint{}, Weights: &astrx.WeightsState{},
		Corners: []CornerCheckpoint{{Name: "slow"}, {Name: "fast"}},
	}
	if _, err := Run(context.Background(), parse(t, dividerDeck), Options{Resume: ck}); err == nil {
		t.Error("nominal-only run accepted a cornered checkpoint")
	}

	// A cornered run must refuse a checkpoint with the wrong corner set.
	cs, err := astrx.CompileCorners(deck, []string{"slow", "fast"}, astrx.CostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ck2 := &Checkpoint{
		Version: checkpointVersion, Vars: len(cs.Vars()),
		Anneal: &anneal.Checkpoint{}, Weights: &astrx.WeightsState{},
		Corners: []CornerCheckpoint{{Name: "slow"}},
	}
	if _, err := Run(context.Background(), deck, Options{Resume: ck2}); err == nil {
		t.Error("cornered run accepted a checkpoint with a missing corner")
	}
	ck2.Corners = []CornerCheckpoint{{Name: "slow"}, {Name: "typo"}}
	if _, err := Run(context.Background(), deck, Options{Resume: ck2}); err == nil {
		t.Error("cornered run accepted a checkpoint with renamed corners")
	}
}

// TestCornerStageTiming checks that a cornered run is clocked like a
// nominal one: with every eval sampled, each corner lane's evaluation
// reports all seven pipeline stages to the shared timer, and the
// anneal span carries their means as stage.<name>_us attrs beside the
// factorization counts summed over the lanes.
func TestCornerStageTiming(t *testing.T) {
	deck := parse(t, diffAmpDeck+corneredDiffAmpCards)
	timer := telemetry.NewEvalTimer(1)
	tid := trace.TraceIDFromRequest("corner-stages")
	rec := trace.NewRecorder(trace.Context{TraceID: tid, SpanID: trace.RootSpanID(tid)}, 0)
	res, err := Run(context.Background(), deck, Options{
		Seed: 1, MaxMoves: 1500, NoFreeze: true, StageTimer: timer, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corners) != 3 {
		t.Fatalf("corner breakdown has %d lanes, want 3", len(res.Corners))
	}
	stages := map[string]int64{}
	for _, row := range timer.Breakdown() {
		stages[row.Stage] = row.SampledEvals
	}
	var anneal *trace.Span
	for _, sp := range rec.Snapshot() {
		if sp.Name == "anneal" {
			anneal = &sp
		}
	}
	if anneal == nil {
		t.Fatal("no anneal span recorded")
	}
	for _, want := range telemetry.StageNames() {
		// Every eval of the run samples all three healthy lanes.
		if n, floor := stages[want], int64(len(res.Corners)*res.EvalCount); n < floor {
			t.Errorf("stage %s: %d sampled lane evals, want ≥ %d", want, n, floor)
		}
		if _, err := strconv.ParseFloat(anneal.Attrs["stage."+want+"_us"], 64); err != nil {
			t.Errorf("anneal span stage.%s_us = %q", want, anneal.Attrs["stage."+want+"_us"])
		}
	}
	checkFactorAttrs(t, anneal, res)
}
