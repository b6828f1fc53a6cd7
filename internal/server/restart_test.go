package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"astrx/internal/durable"
)

// lockedBuffer is a mutex-guarded bytes.Buffer: a slog sink that late
// goroutines may still write to while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRestartResume is the daemon-death drill from the issue: start a
// manager with a state directory, submit a job, watch at least three
// progress events arrive over SSE, kill the daemon mid-anneal (graceful
// shutdown — the annealer checkpoints at the exact cancellation move),
// start a fresh manager over the same state directory, and fetch the
// completed result, whose verified specs must meet the deck's good
// thresholds.
func TestRestartResume(t *testing.T) {
	stateDir := t.TempDir()

	// ---- first incarnation ----
	// Capture structured log output so the test can assert on the
	// recovery lines of the second incarnation.
	logBuf := &lockedBuffer{}
	logger := slog.New(slog.NewTextHandler(logBuf, nil))
	m1, err := New(Options{
		StateDir:        stateDir,
		Workers:         1,
		CheckpointEvery: 200,
		ProgressEvery:   100,
		Logger:          logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(m1.Handler())

	id := submitJSON(t, ts1, testDeck, JobOptions{Seed: 1, MaxMoves: 8000, Runs: 1, ProgressEvery: 100})

	// Stream events until we have seen >= 3 progress samples, proving
	// the job is genuinely mid-anneal.
	sseCtx, sseCancel := context.WithTimeout(context.Background(), time.Minute)
	req, _ := http.NewRequestWithContext(sseCtx, "GET", ts1.URL+"/v1/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	progress := 0
	dec := newSSEDecoder(resp.Body)
	for progress < 3 {
		ev, err := dec.next()
		if err != nil {
			t.Fatalf("sse: %v (saw %d progress events)", err, progress)
		}
		if ev.Type == "progress" {
			progress++
		}
		if ev.Type == "state" && ev.State.terminal() {
			t.Fatalf("job finished before the kill (state %s) — raise MaxMoves", ev.State)
		}
	}
	resp.Body.Close()
	sseCancel()

	// ---- kill the daemon mid-anneal ----
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer shutCancel()
	if err := m1.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// The job must be parked on disk as queued, with a checkpoint.
	rec := readRecord(t, stateDir, id)
	if rec.State != StateQueued {
		t.Fatalf("persisted state after shutdown: %s, want queued", rec.State)
	}
	if _, err := os.Stat(stateDir + "/job-" + id + ".ckpt"); err != nil {
		t.Fatalf("no checkpoint after shutdown: %v", err)
	}

	// ---- second incarnation over the same state dir ----
	m2, err := New(Options{
		StateDir:        stateDir,
		Workers:         1,
		CheckpointEvery: 200,
		ProgressEvery:   100,
		Logger:          logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(m2.Handler())
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m2.Shutdown(ctx)
	}()

	j := m2.Get(id)
	if j == nil {
		t.Fatal("job not recovered by the second incarnation")
	}

	// It must RESUME from the checkpoint, not restart: the recovery log
	// announces the resume move, tagged with the job ID.
	if out := logBuf.String(); !strings.Contains(out, "will resume from move") {
		t.Error("second incarnation did not resume from the checkpoint")
	} else if !strings.Contains(out, "job="+id) {
		t.Errorf("recovery log lines are not tagged with job=%s", id)
	}

	// Wait for completion and fetch the result over HTTP.
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) && !j.State().terminal() {
		time.Sleep(20 * time.Millisecond)
	}
	if got := j.State(); got != StateDone {
		t.Fatalf("resumed job ended %s, want done", got)
	}

	hr, err := http.Get(ts2.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", hr.StatusCode)
	}
	var res JobResult
	if err := json.NewDecoder(hr.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.State != StateDone {
		t.Fatalf("result state %s", res.State)
	}
	if res.Verify == nil {
		t.Fatalf("no verification on the resumed result (verify_error: %s)", res.VerifyError)
	}
	for _, s := range res.Verify.Specs {
		if !s.Objective && !s.Met {
			t.Errorf("resumed result misses spec %s: simulated %g (good=%g bad=%g)",
				s.Name, s.Simulated, s.Good, s.Bad)
		}
	}

	// Terminal job cleans up its checkpoint.
	if _, err := os.Stat(stateDir + "/job-" + id + ".ckpt"); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after completion (stat err: %v)", err)
	}
}

// TestRecoverTerminalHistory: finished jobs survive a restart as
// servable history.
func TestRecoverTerminalHistory(t *testing.T) {
	stateDir := t.TempDir()

	m1 := newTestManager(t, Options{StateDir: stateDir})
	ts1 := httptest.NewServer(m1.Handler())
	id := submitJSON(t, ts1, testDeck, JobOptions{Seed: 1, MaxMoves: 4000})
	j := m1.Get(id)
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) && !j.State().terminal() {
		time.Sleep(20 * time.Millisecond)
	}
	if j.State() != StateDone {
		t.Fatalf("job ended %s", j.State())
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m1.Shutdown(ctx)

	m2 := newTestManager(t, Options{StateDir: stateDir})
	ts2 := httptest.NewServer(m2.Handler())
	defer ts2.Close()

	resp, err := http.Get(ts2.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("historical result: status %d", resp.StatusCode)
	}
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.State != StateDone || res.Result == nil {
		t.Fatalf("historical result incomplete: %+v", res)
	}
}

// sseDecoder yields decoded events from an SSE body one at a time, for
// tests that must stop reading mid-stream.
type sseDecoder struct {
	sc *bufio.Scanner
}

func newSSEDecoder(r io.Reader) *sseDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &sseDecoder{sc: sc}
}

func (d *sseDecoder) next() (Event, error) {
	for d.sc.Scan() {
		line := d.sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			return Event{}, err
		}
		return ev, nil
	}
	if err := d.sc.Err(); err != nil {
		return Event{}, err
	}
	return Event{}, io.EOF
}

// readRecord loads a persisted job record from the state directory,
// verifying its durable envelope.
func readRecord(t *testing.T, dir, id string) *jobRecord {
	t.Helper()
	payload, err := durable.ReadSealed(nil, dir+"/job-"+id+".json")
	if err != nil {
		t.Fatal(err)
	}
	var rec jobRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		t.Fatal(err)
	}
	return &rec
}

// TestRequeueFIFOAcrossRestart checks the graceful-drain ordering
// contract: jobs queued at shutdown come back after a restart in their
// original submission order, and a lease released back by a draining
// external worker re-enters at the queue head (it was claimed first, so
// FIFO is preserved, not reset).
func TestRequeueFIFOAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	m1, err := New(Options{StateDir: dir, ExternalExec: true, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := m1.Submit(testDeck, JobOptions{Seed: int64(i + 1), MaxMoves: 1000}, Origin{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	m2, err := New(Options{StateDir: dir, ExternalExec: true, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m2.Shutdown(ctx)
	})
	if d := m2.QueueDepth(); d != 3 {
		t.Fatalf("recovered queue depth %d, want 3", d)
	}

	// Claim the head, hand it back (graceful worker drain): it must be
	// claimable again before the jobs behind it.
	head := m2.ClaimQueued()
	if head == nil || head.ID != ids[0] {
		t.Fatalf("first claim = %v, want %s", head, ids[0])
	}
	m2.ReleaseExternal(head)

	var got []string
	for i := 0; i < 3; i++ {
		j := m2.ClaimQueued()
		if j == nil {
			t.Fatalf("queue empty after %d claims, want 3", i)
		}
		got = append(got, j.ID)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("claim order %v, want submission order %v", got, ids)
		}
	}
	if j := m2.ClaimQueued(); j != nil {
		t.Fatalf("extra job %s in queue", j.ID)
	}
}
