package oblx

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"astrx/internal/anneal"
	"astrx/internal/astrx"
	"astrx/internal/durable"
	"astrx/internal/faults"
	"astrx/internal/netlist"
)

// TestFaultInjectedRunCompletes is the headline robustness check: a
// ≥20k-move anneal with 1% injected evaluator panics and 1% injected NaN
// costs must complete normally, produce a finite best cost, and report
// failure counters that match the injector's ground truth.
func TestFaultInjectedRunCompletes(t *testing.T) {
	deck := parse(t, dividerDeck)
	inj := faults.New(99, faults.Rates{EvalPanic: 0.01, NaNCost: 0.01})
	res, err := Run(context.Background(), deck, Options{
		Seed: 2, MaxMoves: 25_000, NoFreeze: true, Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled {
		t.Error("run reported cancellation without a cancelled context")
	}
	if !isFiniteCost(res.Cost.Total) {
		t.Fatalf("best cost = %g, want finite", res.Cost.Total)
	}
	f := res.Failures
	if f.PanicsRecovered == 0 || f.NonFiniteCosts == 0 {
		t.Fatalf("1%% fault rates over 25k moves injected nothing: %+v", f)
	}
	if got, want := int64(f.PanicsRecovered), inj.Count(faults.EvalPanic); got != want {
		t.Errorf("panics recovered = %d, injector fired %d", got, want)
	}
	if got, want := int64(f.NonFiniteCosts), inj.Count(faults.NaNCost); got != want {
		t.Errorf("non-finite costs = %d, injector fired %d", got, want)
	}
	// Every failed attempt is either retried or quarantined — the
	// retry-then-quarantine bookkeeping must balance exactly.
	if f.PanicsRecovered+f.NonFiniteCosts != f.Retries+f.Quarantined {
		t.Errorf("failure accounting does not balance: %+v", f)
	}
	// The annealer's per-class Failed counters sum to the rejected total.
	sum := 0
	for _, ms := range res.MoveStats {
		sum += ms.Failed
	}
	if sum != f.RejectedMoves {
		t.Errorf("per-class failed sum %d != rejected moves %d", sum, f.RejectedMoves)
	}
}

func isFiniteCost(x float64) bool { return x == x && x < 1e308 && x > -1e308 }

// TestRunBestTimeoutReturnsBestSoFar checks the deadline-bounded path: a
// RunBest whose context expires long before the move budget must return
// usable best-so-far results from every run, with no errors.
func TestRunBestTimeoutReturnsBestSoFar(t *testing.T) {
	deck := parse(t, dividerDeck)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	all := recordRuns(t)
	best, errs := RunBest(ctx, deck, 2, Options{
		Seed: 7, MaxMoves: 50_000_000, NoFreeze: true,
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if best == nil {
		t.Fatal("no best result from a timeout-bounded RunBest")
	}
	if len(*all) != 2 {
		t.Fatalf("surviving runs = %d, want 2", len(*all))
	}
	for i, r := range *all {
		if !r.Cancelled {
			t.Errorf("run %d: Cancelled not set", i)
		}
		if !isFiniteCost(r.Cost.Total) {
			t.Errorf("run %d: best-so-far cost %g", i, r.Cost.Total)
		}
	}
}

// TestCheckpointResumeReproducesRun is the restart acceptance check: a
// run interrupted mid-flight and resumed from its checkpoint must land
// on exactly the same final design as the same run uninterrupted.
func TestCheckpointResumeReproducesRun(t *testing.T) {
	deck := parse(t, dividerDeck)
	opt := Options{Seed: 21, MaxMoves: 40_000, NoFreeze: true}

	full, err := Run(context.Background(), deck, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Leg 1: checkpoint every 1500 moves, cancel as soon as the first
	// checkpoint file lands.
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

	// Leg 2: resume from the final (cancellation-point) checkpoint.
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Anneal.Move >= opt.MaxMoves {
		t.Fatalf("checkpoint at move %d, nothing left to run", ck.Anneal.Move)
	}
	o2 := opt
	o2.Resume = ck
	r2, err := Run(context.Background(), deck, o2)
	if err != nil {
		t.Fatal(err)
	}

	if r2.Cost.Total != full.Cost.Total {
		t.Errorf("final cost: resumed %g != uninterrupted %g", r2.Cost.Total, full.Cost.Total)
	}
	if len(r2.X) != len(full.X) {
		t.Fatalf("len(X): %d != %d", len(r2.X), len(full.X))
	}
	for i := range full.X {
		if r2.X[i] != full.X[i] {
			t.Fatalf("X[%d]: resumed %g != uninterrupted %g", i, r2.X[i], full.X[i])
		}
	}
	if r2.EvalCount != full.EvalCount {
		t.Errorf("eval count: resumed %d != uninterrupted %d", r2.EvalCount, full.EvalCount)
	}
	if r2.Moves != full.Moves {
		t.Errorf("moves: resumed %d != uninterrupted %d", r2.Moves, full.Moves)
	}
}

func TestCheckpointRejectsWrongDeck(t *testing.T) {
	deck := parse(t, dividerDeck)
	ck := &Checkpoint{Version: checkpointVersion, Vars: 99,
		Anneal: &anneal.Checkpoint{}, Weights: &astrx.WeightsState{}}
	_, err := Run(context.Background(), deck, Options{Resume: ck})
	if err == nil {
		t.Error("checkpoint with wrong variable count accepted")
	}
}

func TestSaveLoadCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	ck := &Checkpoint{Version: checkpointVersion, Seed: 5, MaxMoves: 100, Vars: 2,
		Anneal: &anneal.Checkpoint{}, Weights: &astrx.WeightsState{}}
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 5 || got.MaxMoves != 100 || got.Vars != 2 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing checkpoint loaded")
	}
	ck.Version = 99
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := SaveCheckpoint(bad, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(bad); err == nil {
		t.Error("wrong-version checkpoint loaded")
	}
}

// TestCheckpointEnvelopeAndLegacy pins the durability contract of the
// checkpoint file: saves land on disk as checksummed envelopes carrying
// every counter (including Unstable), and a corrupted envelope, a
// raw-JSON checkpoint from releases before the envelope, and a sealed
// checkpoint without annealer state are all refused.
func TestCheckpointEnvelopeAndLegacy(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	ck := &Checkpoint{Version: checkpointVersion, Seed: 5, MaxMoves: 100, Vars: 2,
		Anneal: &anneal.Checkpoint{}, Weights: &astrx.WeightsState{},
		Evals: 42, Unstable: 7}
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !durable.IsSealed(raw) {
		t.Fatal("SaveCheckpoint wrote a raw file, want a sealed envelope")
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Evals != 42 || got.Unstable != 7 {
		t.Errorf("counters lost in round trip: %+v", got)
	}

	// Flip a payload byte: the checksum must catch it.
	raw[len(raw)-2] ^= 0x01
	torn := filepath.Join(dir, "torn.ckpt")
	if err := os.WriteFile(torn, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(torn); err == nil {
		t.Error("corrupted envelope loaded without error")
	}

	// A pre-envelope checkpoint is plain JSON: no checksum covers it, so
	// it is refused even when its contents would resume.
	legacy := filepath.Join(dir, "legacy.ckpt")
	if err := os.WriteFile(legacy, []byte(
		`{"version":1,"seed":9,"max_moves":50,"vars":2,`+
			`"anneal":{},"weights":{},"evals":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(legacy); !errors.Is(err, durable.ErrNotSealed) {
		t.Errorf("legacy raw-JSON checkpoint: err %v, want durable.ErrNotSealed", err)
	}

	// A sealed checkpoint of the right version but no annealer or weight
	// state is refused at load, not left for a resume to dereference.
	bare := filepath.Join(dir, "bare.ckpt")
	if err := durable.WriteSealedAtomic(nil, bare, []byte(`{"version":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(bare); err == nil {
		t.Error("sealed checkpoint without annealer state loaded")
	}
}

// FuzzDecodeCheckpoint holds the checkpoint decoder to never panicking,
// and to accepting only checkpoints of the current version that carry
// annealer and weight state.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add([]byte(`{"version":1,"seed":9,"max_moves":50,"vars":2,"anneal":{},"weights":{},"evals":3}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":2,"anneal":{},"weights":{}}`))
	f.Add([]byte(`{"version":1,"anneal":null,"weights":{}}`))
	f.Add([]byte(`{"version":1,"anneal":{"move":-3,"cur":[1e308,null]},"weights":{"spec":{"":1}},"corners":[{"name":""}]}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		ck, err := DecodeCheckpoint(payload)
		if err != nil {
			return
		}
		if ck.Version != checkpointVersion || ck.Anneal == nil || ck.Weights == nil {
			t.Fatalf("accepted checkpoint version %d, anneal %v, weights %v",
				ck.Version, ck.Anneal != nil, ck.Weights != nil)
		}
	})
}

// TestRunBestRetriesFailedRun exercises the degrade-gracefully path with
// a stubbed runner: run 0 fails on its first seed, succeeds on the
// reseeded retry; run 1 succeeds outright. The retry's result is the
// cheapest, so it wins only if it was kept.
func TestRunBestRetriesFailedRun(t *testing.T) {
	var mu sync.Mutex
	calls := map[int64]int{}
	runFn = func(ctx context.Context, deck *netlist.Deck, o Options) (*Result, error) {
		mu.Lock()
		calls[o.Seed]++
		mu.Unlock()
		if o.Seed == 11 {
			return nil, errors.New("synthetic failure")
		}
		return &Result{Seed: o.Seed, Cost: astrx.CostBreakdown{Total: -float64(o.Seed)}}, nil
	}
	defer func() { runFn = Run }()

	best, errs := RunBest(context.Background(), nil, 2, Options{Seed: 11})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if best == nil || best.Seed != 11+reseedOffset {
		t.Errorf("best = %+v, want run 0's reseeded retry (lowest cost)", best)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls[11] != 1 || calls[11+reseedOffset] != 1 || calls[11+7919] != 1 {
		t.Errorf("call pattern = %v, want one original, one retry, one sibling", calls)
	}
}

// TestRunBestAllFailed: only when every run (and its retry) fails does
// RunBest return a nil best — with every error reported per run.
func TestRunBestAllFailed(t *testing.T) {
	runFn = func(ctx context.Context, deck *netlist.Deck, o Options) (*Result, error) {
		return nil, errors.New("synthetic failure")
	}
	defer func() { runFn = Run }()

	best, errs := RunBest(context.Background(), nil, 3, Options{Seed: 1})
	if best != nil || len(errs) != 3 {
		t.Errorf("best=%v errs=%d, want total failure over 3 runs", best, len(errs))
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("run %d: missing error", i)
		}
	}
}

// TestRunBestSurvivesRunPanic: a panicking runner must not take down the
// sibling runs.
func TestRunBestSurvivesRunPanic(t *testing.T) {
	runFn = func(ctx context.Context, deck *netlist.Deck, o Options) (*Result, error) {
		if o.Seed == 1 { // first attempt of run 0
			panic("synthetic panic")
		}
		return &Result{Seed: o.Seed, Cost: astrx.CostBreakdown{Total: 1}}, nil
	}
	defer func() { runFn = Run }()

	best, errs := RunBest(context.Background(), nil, 2, Options{Seed: 1})
	if best == nil {
		t.Fatal("sibling result discarded after a run panic")
	}
	if errs[1] != nil {
		t.Errorf("sibling run failed: %v", errs[1])
	}
	if errs[0] == nil {
		t.Error("panicked run not reported in its error slot")
	}
}
