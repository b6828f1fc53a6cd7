package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/retry"
	"astrx/internal/trace"
)

// getJSON fetches a URL and decodes the JSON body into v, returning the
// status code.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// oneRun adapts a stand-in for one anneal to the synthesize seam: it is
// launched once whatever the job's run count, as oblx.RunBest launches
// Run for one run, and its error fills the one error slot.
func oneRun(run func(context.Context, *netlist.Deck, oblx.Options) (*oblx.Result, error)) func(context.Context, *netlist.Deck, int, oblx.Options) (*oblx.Result, []error) {
	return func(ctx context.Context, deck *netlist.Deck, _ int, opt oblx.Options) (*oblx.Result, []error) {
		r, err := run(ctx, deck, opt)
		return r, []error{err}
	}
}

// stallingSynth stands in for the annealer: it reports one progress
// sample (move 17, an accepted random move) and then hangs until its
// context is cancelled, like a run the watchdog must kill.
func stallingSynth(ctx context.Context, deck *netlist.Deck, opt oblx.Options) (*oblx.Result, error) {
	if opt.Progress != nil {
		opt.Progress(oblx.ProgressEvent{
			Move: 17, MaxMoves: opt.MaxMoves, MoveClass: "random",
			Accepted: true, DCost: -0.5, Temp: 3.25, LamTarget: 0.44,
			AcceptRatio: 0.5, Cost: 12.5, BestCost: 12.5, Evals: 100,
		})
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// rootMoves returns the move events on the job root of a trace.
func rootMoves(t *testing.T, sum *TraceSummary) []trace.Event {
	t.Helper()
	if len(sum.Tree) != 1 || sum.Tree[0].Name != "job" {
		t.Fatalf("trace tree: want one job root, got %+v", sum.Tree)
	}
	var moves []trace.Event
	for _, ev := range sum.Tree[0].Events {
		if ev.Name == "move" {
			moves = append(moves, ev)
		}
	}
	return moves
}

// checkStalledMove asserts the move event stallingSynth reported.
func checkStalledMove(t *testing.T, moves []trace.Event) {
	t.Helper()
	if len(moves) == 0 {
		t.Fatal("job root carries no move events")
	}
	for _, ev := range moves {
		if ev.Attrs["move"] != "17" || ev.Attrs["move_class"] != "random" || ev.Attrs["accepted"] != "true" {
			t.Errorf("move event corrupted: %+v", ev.Attrs)
		}
	}
}

// TestMoveEventsSurviveRestart is the post-mortem drill: a job that
// stalls on every attempt is killed, requeued, and finally poisoned,
// and after a daemon restart its last moves are still served — as move
// events on the job root of the durable trace snapshot.
func TestMoveEventsSurviveRestart(t *testing.T) {
	orig := synthesize
	defer func() { synthesize = orig }()
	synthesize = oneRun(stallingSynth)

	dir := t.TempDir()
	m1, err := New(Options{
		StateDir:     dir,
		Workers:      1,
		StallTimeout: 60 * time.Millisecond,
		Retry:        retry.Policy{Base: 10 * time.Millisecond, Max: 20 * time.Millisecond, Multiplier: 2, MaxAttempts: 2},
		Logger:       testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit(testDeck, JobOptions{Seed: 1, MaxMoves: 1000}, Origin{RequestID: "req-moves-1"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StatePoisoned, 30*time.Second)
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}

	// ---- restart over the same state dir ----
	m2 := newTestManager(t, Options{StateDir: dir, Workers: 1})
	ts := httptest.NewServer(m2.Handler())
	defer ts.Close()

	if j2 := m2.Get(j.ID); j2 == nil || j2.State() != StatePoisoned {
		t.Fatalf("poisoned job not recovered: %v", j2)
	}
	var sum TraceSummary
	if code := getJSON(t, ts.URL+"/v1/jobs/"+j.ID+"/trace", &sum); code != http.StatusOK {
		t.Fatalf("trace after restart: status %d", code)
	}
	if sum.Source != "snapshot" || !strings.Contains(sum.Cause, "stalled") {
		t.Fatalf("trace after restart: source %q cause %q", sum.Source, sum.Cause)
	}
	// One sample per attempt, both on the one root.
	moves := rootMoves(t, &sum)
	checkStalledMove(t, moves)
	if len(moves) != 2 {
		t.Errorf("root carries %d move events, want one per attempt (2)", len(moves))
	}

	// The request ID survived the restart inside the job record.
	if rec := readRecord(t, dir, j.ID); rec.RequestID != "req-moves-1" {
		t.Errorf("persisted request ID = %q, want req-moves-1", rec.RequestID)
	}
}

// TestRestartKeepsStalledAttemptMoves: a job whose attempt stalled and
// was requeued, then parked on disk by a shutdown during its backoff,
// reopens its root span after the restart with the killed attempt's
// move events still on it.
func TestRestartKeepsStalledAttemptMoves(t *testing.T) {
	// Restore the real annealer only after the restarted manager's
	// cleanup has stopped the worker that reads it.
	orig := synthesize
	t.Cleanup(func() { synthesize = orig })
	synthesize = oneRun(stallingSynth)

	dir := t.TempDir()
	m1, err := New(Options{
		StateDir:     dir,
		Workers:      1,
		StallTimeout: 60 * time.Millisecond,
		// A backoff far longer than the test: the requeued job waits
		// queued until the shutdown parks it on disk.
		Retry:  retry.Policy{Base: time.Hour, Max: time.Hour, Multiplier: 1, MaxAttempts: 5},
		Logger: testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit(testDeck, JobOptions{Seed: 1, MaxMoves: 1000}, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		j.mu.Lock()
		requeued := j.attempts == 1 && j.state == StateQueued
		j.mu.Unlock()
		if requeued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never stalled and requeued (state %s)", j.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}

	// ---- restart: the job requeues and runs again, hanging silently ----
	synthesize = oneRun(func(ctx context.Context, deck *netlist.Deck, opt oblx.Options) (*oblx.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	m2 := newTestManager(t, Options{StateDir: dir, Workers: 1})
	ts := httptest.NewServer(m2.Handler())
	defer ts.Close()

	var sum TraceSummary
	if code := getJSON(t, ts.URL+"/v1/jobs/"+j.ID+"/trace", &sum); code != http.StatusOK {
		t.Fatalf("trace after restart: status %d", code)
	}
	if sum.Source != "live" || !sum.Tree[0].Open {
		t.Fatalf("want the live, reopened root; got source %q tree %+v", sum.Source, sum.Tree)
	}
	checkStalledMove(t, rootMoves(t, &sum))
}

// TestSubscribeConcurrentPublish races the SSE replay buffer: publishers
// appending progress and state events while subscribers attach, drain,
// and detach. Run under -race; the invariants checked are that replay
// snapshots never exceed the buffer cap and stay in event order.
func TestSubscribeConcurrentPublish(t *testing.T) {
	j := &Job{ID: "race", state: StateQueued, bestCost: math.NaN()}

	var pubs, subs sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for i := 0; i < 2000; i++ {
				ev := Event{Type: "progress", Prog: &oblx.ProgressEvent{Move: i, Run: p}}
				j.mu.Lock()
				j.publishLocked(ev)
				j.mu.Unlock()
			}
		}(p)
	}
	for s := 0; s < 8; s++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				replay, ch, cancel := j.Subscribe()
				if len(replay) > maxBufferedEvents {
					t.Errorf("replay has %d events, cap is %d", len(replay), maxBufferedEvents)
				}
				// Drain a few live events, then detach mid-stream.
				for i := 0; i < 10; i++ {
					select {
					case <-ch:
					case <-time.After(time.Millisecond):
					}
				}
				cancel()
			}
		}()
	}
	pubs.Wait()
	// Terminal state event lands after the progress storm.
	j.mu.Lock()
	j.publishLocked(Event{Type: "state", State: StateDone})
	j.mu.Unlock()
	close(stop)
	subs.Wait()

	replay, _, cancel := j.Subscribe()
	cancel()
	if len(replay) == 0 || len(replay) > maxBufferedEvents {
		t.Fatalf("final replay has %d events", len(replay))
	}
	if last := replay[len(replay)-1]; last.Type != "state" || last.State != StateDone {
		t.Errorf("state transitions must never be evicted; last event %+v", last)
	}
}

// TestTraceparentRequestID: with no X-Request-Id, the request ID falls
// back to the W3C traceparent trace ID, so daemon log lines correlate
// with an upstream tracing system.
func TestTraceparentRequestID(t *testing.T) {
	cases := []struct {
		tp, want string
	}{
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", "0af7651916cd43dd8448eb211c80319c"},
		{"00-00000000000000000000000000000000-b7ad6b7169203331-01", ""}, // all-zero trace ID is invalid
		{"00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", ""}, // uppercase is not valid traceparent
		{"garbage", ""},
		{"", ""},
		// Cases the pre-trace-package extractor wrongly accepted:
		{"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", ""},       // version ff is forbidden
		{"zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", ""},       // non-hex version
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", ""}, // version 00 has exactly 4 fields
		{"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", ""},       // all-zero parent span ID
		{"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz", ""},       // non-hex flags
		// A future version may append fields; the embedded IDs still parse.
		{"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", "0af7651916cd43dd8448eb211c80319c"},
	}
	for _, c := range cases {
		if got := traceparentID(c.tp); got != c.want {
			t.Errorf("traceparentID(%q) = %q, want %q", c.tp, got, c.want)
		}
	}

	m := newTestManager(t, Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("X-Request-Id = %q, want the traceparent trace ID", got)
	}

	// An explicit X-Request-Id wins over traceparent.
	req2, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req2.Header.Set("traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	req2.Header.Set("X-Request-Id", "explicit-7")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "explicit-7" {
		t.Errorf("X-Request-Id = %q, want explicit-7", got)
	}
}
