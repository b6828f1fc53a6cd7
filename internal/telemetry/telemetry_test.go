package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"astrx/internal/trace"
)

func TestStageNames(t *testing.T) {
	want := []string{"bias", "stamp", "factor", "solve", "moments", "fit", "specs"}
	for i, w := range want {
		if got := Stage(i).String(); got != w {
			t.Errorf("Stage(%d) = %q, want %q", i, got, w)
		}
	}
	if Stage(200).String() != "unknown" {
		t.Errorf("out-of-range stage should stringify as unknown")
	}
	if len(want) != NumStages {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(want))
	}
}

func TestEvalTimerSamplingCadence(t *testing.T) {
	timer := NewEvalTimer(4)
	c := timer.NewClock()
	const evals = 40
	for i := 0; i < evals; i++ {
		c.Begin()
		c.Mark(StageBias)
		c.Mark(StageSpecs)
		c.End()
	}
	bd := timer.Breakdown()
	if len(bd) != 2 {
		t.Fatalf("breakdown has %d stages, want 2: %+v", len(bd), bd)
	}
	for _, row := range bd {
		if row.SampledEvals != evals/4 {
			t.Errorf("stage %s sampled %d evals, want %d", row.Stage, row.SampledEvals, evals/4)
		}
		if row.TotalSeconds < 0 || row.MeanSeconds < 0 {
			t.Errorf("stage %s has negative timing: %+v", row.Stage, row)
		}
	}
	if got := timer.SampleEvery(); got != 4 {
		t.Errorf("SampleEvery = %d, want 4", got)
	}
}

func TestEvalTimerDisabledAndNil(t *testing.T) {
	if c := NewEvalTimer(0).NewClock(); c != nil {
		t.Fatalf("disabled timer should hand out nil clocks")
	}
	var timer *EvalTimer
	if timer.SampleEvery() != 0 || timer.Breakdown() != nil || timer.NewClock() != nil {
		t.Fatalf("nil timer methods should be inert")
	}
	// All clock methods must be safe on a nil receiver.
	var c *Clock
	c.Begin()
	c.Mark(StageFactor)
	c.End()
}

func TestEvalTimerAbandonedEvalDiscarded(t *testing.T) {
	timer := NewEvalTimer(1)
	c := timer.NewClock()
	c.Begin()
	c.Mark(StageBias)
	// No End: simulates an error path bailing out mid-pipeline.
	c.Begin()
	c.Mark(StageStamp)
	c.End()
	bd := timer.Breakdown()
	if len(bd) != 1 || bd[0].Stage != "stamp" {
		t.Fatalf("abandoned eval leaked into breakdown: %+v", bd)
	}
}

// TestClockTrace: a traced clock records each stage of a sampled
// evaluation as an eval:<stage> span under its parent, besides adding it
// to the timer; unsampled evaluations record nothing.
func TestClockTrace(t *testing.T) {
	const parent = "00f067aa0ba902b7"
	timer := NewEvalTimer(2)
	tid := trace.TraceIDFromRequest("clock-trace")
	rec := trace.NewRecorder(trace.Context{TraceID: tid, SpanID: trace.RootSpanID(tid)}, 0)
	c := timer.NewClock()
	c.Trace(rec, parent)
	for i := 0; i < 6; i++ {
		c.Begin()
		time.Sleep(time.Microsecond)
		c.Mark(StageFit)
		c.End()
	}
	spans := rec.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans for 3 sampled evaluations, want 3: %+v", len(spans), spans)
	}
	for _, sp := range spans {
		if sp.Name != "eval:fit" || sp.Kind != trace.KindEval || sp.Parent != parent || sp.DurationNS <= 0 {
			t.Errorf("span %+v, want an eval:fit eval span of positive duration under %s", sp, parent)
		}
	}
	if bd := timer.Breakdown(); len(bd) != 1 || bd[0].SampledEvals != 3 {
		t.Errorf("breakdown %+v, want 3 fit samples", bd)
	}
	var nilClock *Clock
	nilClock.Trace(rec, parent) // a nil clock stays a no-op
}

func TestEvalTimerConcurrentClocks(t *testing.T) {
	timer := NewEvalTimer(1)
	const workers, evals = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := timer.NewClock()
			for i := 0; i < evals; i++ {
				c.Begin()
				c.Mark(StageFactor)
				c.End()
			}
		}()
	}
	wg.Wait()
	bd := timer.Breakdown()
	if len(bd) != 1 || bd[0].SampledEvals != workers*evals {
		t.Fatalf("want %d lu samples, got %+v", workers*evals, bd)
	}
}

func TestClockZeroAlloc(t *testing.T) {
	timer := NewEvalTimer(1)
	c := timer.NewClock()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Begin()
		c.Mark(StageBias)
		c.Mark(StageFactor)
		c.End()
	})
	if allocs != 0 {
		t.Fatalf("armed clock allocates %.1f/op, want 0", allocs)
	}
	var nilClock *Clock
	allocs = testing.AllocsPerRun(1000, func() {
		nilClock.Begin()
		nilClock.Mark(StageBias)
		nilClock.End()
	})
	if allocs != 0 {
		t.Fatalf("nil clock allocates %.1f/op, want 0", allocs)
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept", "job", "j1", "attempt", 2)
	var rec map[string]any
	line := strings.TrimSpace(buf.String())
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("output not one JSON line (%q): %v", line, err)
	}
	if rec["msg"] != "kept" || rec["job"] != "j1" {
		t.Fatalf("unexpected record: %v", rec)
	}

	buf.Reset()
	lg, err = NewLogger(&buf, "text", "")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("dropped at default level")
	lg.Info("hello")
	if !strings.Contains(buf.String(), "msg=hello") || strings.Contains(buf.String(), "dropped") {
		t.Fatalf("text logger output wrong: %q", buf.String())
	}

	for _, bad := range [][2]string{{"yaml", "info"}, {"text", "loud"}} {
		if _, err := NewLogger(&buf, bad[0], bad[1]); err == nil {
			t.Errorf("NewLogger(%q, %q) should fail", bad[0], bad[1])
		}
	}
}

func TestDiscardLogger(t *testing.T) {
	lg := DiscardLogger()
	// Must be usable (no panic) and genuinely disabled at every level.
	lg.Debug("x")
	lg.With("k", "v").WithGroup("g").Error("y", "err", fmt.Errorf("boom"))
	if lg.Enabled(context.Background(), slog.LevelError) {
		t.Fatalf("discard logger claims to be enabled")
	}
}
