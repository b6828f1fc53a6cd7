package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"astrx/internal/durable"
	"astrx/internal/faults"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/retry"
)

// metricsText fetches /debug/metrics as one string.
func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// TestChaosTornWritesNeverLoseJobs is the issue's headline drill: run the
// daemon's whole persistence layer over a filesystem that tears renames
// apart and silently drops the tail of writes, kill the daemon with jobs
// both finished and mid-anneal, and restart over the same directory with
// a healthy disk. Every submitted job must then be accounted for exactly
// once — recovered by the new daemon or quarantined with a recorded
// reason — and none may be invented, lost, or double-completed.
func TestChaosTornWritesNeverLoseJobs(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(1234, faults.Rates{})
	ffs := inj.FS(durable.OS, faults.FSRates{ShortWrite: 0.35, RenameTorn: 0.35})

	m1, err := New(Options{StateDir: dir, Workers: 2, ProgressEvery: 200, FS: ffs, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}

	// Four quick jobs that finish under the first daemon, two long ones
	// it is killed in the middle of.
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := m1.Submit(testDeck, JobOptions{Seed: int64(i + 1), MaxMoves: 3000}, Origin{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for i := 0; i < 2; i++ {
		j, err := m1.Submit(testDeck, JobOptions{Seed: int64(10 + i), MaxMoves: 5_000_000}, Origin{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids[:4] {
		for time.Now().Before(deadline) && !m1.Get(id).State().terminal() {
			time.Sleep(20 * time.Millisecond)
		}
		if !m1.Get(id).State().terminal() {
			t.Fatalf("quick job %s never finished under injected faults", id)
		}
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	if n := inj.Total(); n == 0 {
		t.Fatal("fault injector never fired; the test exercised nothing")
	}
	t.Logf("injected %d filesystem faults (short-write=%d torn-rename=%d)",
		inj.Total(), inj.Count(faults.FSShortWrite), inj.Count(faults.FSRenameTorn))

	// Second incarnation over the same directory, healthy disk.
	m2 := newTestManager(t, Options{StateDir: dir, Workers: 2})

	submitted := make(map[string]bool, len(ids))
	for _, id := range ids {
		submitted[id] = true
		recovered := m2.Get(id) != nil
		qpath := filepath.Join(dir, quarantineDir, "job-"+id+".json")
		_, qerr := os.Stat(qpath)
		quarantined := qerr == nil
		if recovered == quarantined {
			t.Errorf("job %s: recovered=%v quarantined=%v — want exactly one", id, recovered, quarantined)
		}
		if quarantined {
			reason, err := os.ReadFile(qpath + ".reason")
			if err != nil || len(bytes.TrimSpace(reason)) == 0 {
				t.Errorf("job %s quarantined without a reason sidecar (err %v)", id, err)
			}
		}
		// A recovered terminal job must still serve its result, not re-run.
		if j := m2.Get(id); j != nil && j.State() == StateDone && j.Result() == nil {
			t.Errorf("job %s recovered as done but lost its result", id)
		}
	}
	for _, j := range m2.Jobs() {
		if !submitted[j.ID] {
			t.Errorf("recovery invented job %s", j.ID)
		}
	}
}

// TestChaosCorruptCheckpointRestartsFromScratch: a checkpoint whose bytes
// rotted on disk is quarantined by the startup fsck and its job restarts
// from move zero — a lost prefix of moves, never a lost job and never a
// resume from garbage.
func TestChaosCorruptCheckpointRestartsFromScratch(t *testing.T) {
	dir := t.TempDir()
	m1, err := New(Options{StateDir: dir, Workers: 1, CheckpointEvery: 200, ProgressEvery: 100, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m1.Submit(testDeck, JobOptions{Seed: 1, MaxMoves: 8_000_000, ProgressEvery: 100}, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	id := j1.ID

	ckPath := filepath.Join(dir, "job-"+id+".ckpt")
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if _, err := os.Stat(ckPath); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := os.Stat(ckPath); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}

	// Rot the checkpoint: a valid-looking envelope header over garbage.
	if err := os.WriteFile(ckPath, []byte("%OBLX-ENV1 9999 deadbeef\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Options{StateDir: dir, Workers: 1})
	j2 := m2.Get(id)
	if j2 == nil {
		t.Fatal("job lost with its corrupt checkpoint")
	}
	j2.mu.Lock()
	resume := j2.resume
	j2.mu.Unlock()
	if resume != nil {
		t.Error("corrupt checkpoint was accepted for resume")
	}
	qck := filepath.Join(dir, quarantineDir, "job-"+id+".ckpt")
	if _, err := os.Stat(qck); err != nil {
		t.Errorf("corrupt checkpoint not quarantined: %v", err)
	}
	if _, err := os.Stat(qck + ".reason"); err != nil {
		t.Errorf("quarantined checkpoint has no reason sidecar: %v", err)
	}
	m2.Cancel(id)
}

// TestStallSupervisionRequeuesThenPoisons drives the watchdog end to end
// with a synthesis run that ticks once and then hangs: the job must be
// killed, requeued with backoff, killed again, and finally poisoned with
// its full failure history attached.
func TestStallSupervisionRequeuesThenPoisons(t *testing.T) {
	orig := synthesize
	defer func() { synthesize = orig }()
	synthesize = oneRun(func(ctx context.Context, deck *netlist.Deck, opt oblx.Options) (*oblx.Result, error) {
		if opt.Progress != nil {
			opt.Progress(oblx.ProgressEvent{Move: 1, MaxMoves: opt.MaxMoves})
		}
		<-ctx.Done() // stall: no further progress until the watchdog kills us
		return nil, ctx.Err()
	})

	m := newTestManager(t, Options{
		Workers:      1,
		StallTimeout: 60 * time.Millisecond,
		Retry:        retry.Policy{Base: 10 * time.Millisecond, Max: 20 * time.Millisecond, Multiplier: 2, MaxAttempts: 2},
	})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	j, err := m.Submit(testDeck, JobOptions{Seed: 1, MaxMoves: 1000}, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StatePoisoned, 30*time.Second)

	res := j.Result()
	if res == nil || res.State != StatePoisoned {
		t.Fatalf("poisoned job result: %+v", res)
	}
	if !strings.Contains(res.Error, "poisoned after 2 attempts") {
		t.Errorf("poison error %q does not report the attempt count", res.Error)
	}
	if len(res.History) != 2 {
		t.Fatalf("failure history has %d entries, want 2: %+v", len(res.History), res.History)
	}
	for i, f := range res.History {
		if f.Attempt != i+1 || !strings.Contains(f.Error, "stalled") || f.Time.IsZero() {
			t.Errorf("history[%d] = %+v", i, f)
		}
	}

	// The requeue between attempts was announced on the event stream with
	// its cause.
	replay, _, cancel := j.Subscribe()
	cancel()
	requeued := false
	for _, ev := range replay {
		if ev.Type == "state" && ev.State == StateQueued && strings.Contains(ev.Error, "stalled") {
			requeued = true
		}
	}
	if !requeued {
		t.Error("no queued event carrying the stall cause")
	}

	text := metricsText(t, ts)
	for _, want := range []string{
		"oblxd_stalls_total 2",
		"oblxd_job_retries_total 1",
		`oblxd_jobs_finished_total{state="poisoned"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobDeadlineFailsTerminally: a job that exceeds its wall-clock
// deadline fails (keeping the best-so-far design) instead of being
// recorded as a user cancellation or retried.
func TestJobDeadlineFailsTerminally(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, JobDeadline: 300 * time.Millisecond})
	j, err := m.Submit(testDeck, JobOptions{Seed: 1, MaxMoves: 500_000_000, ProgressEvery: 100}, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed, 30*time.Second)
	res := j.Result()
	if res == nil || !strings.Contains(res.Error, "deadline") {
		t.Fatalf("deadline result: %+v", res)
	}
	if res.Result == nil {
		t.Error("deadline failure dropped the best-so-far design")
	}
}

// TestQueueFullSheds429: with a bounded queue, excess submissions are
// shed with 429, a Retry-After hint, and a correlatable request ID.
func TestQueueFullSheds429(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, MaxQueue: 1})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	long := submitJSON(t, ts, testDeck, JobOptions{Seed: 1, MaxMoves: 5_000_000})
	waitState(t, m.Get(long), StateRunning, time.Minute)
	queued := submitJSON(t, ts, testDeck, JobOptions{Seed: 2, MaxMoves: 4000})

	body, _ := json.Marshal(submitRequest{Deck: testDeck})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Errorf("Retry-After = %q, want \"5\"", ra)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("shed response has no X-Request-Id")
	}
	var e apiError
	json.NewDecoder(resp.Body).Decode(&e)
	if !strings.Contains(e.Error, "queue full") {
		t.Errorf("shed error %q", e.Error)
	}
	if !strings.Contains(metricsText(t, ts), "oblxd_shed_total 1") {
		t.Error("oblxd_shed_total not incremented")
	}

	m.Cancel(queued)
	m.Cancel(long)
}

// flakyFS makes the state directory unwritable on demand: CreateTemp —
// the first step of every atomic write — fails while the switch is on.
// holdNextSync parks the next created file's fsync instead.
type flakyFS struct {
	durable.FS
	fail atomic.Bool

	mu            sync.Mutex
	release, held chan struct{} // armed by holdNextSync
}

func (f *flakyFS) CreateTemp(dir, pattern string) (durable.File, error) {
	if f.fail.Load() {
		return nil, errors.New("injected: state dir unwritable")
	}
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	release, held := f.release, f.held
	f.release, f.held = nil, nil
	f.mu.Unlock()
	if release == nil {
		return file, nil
	}
	return &heldFile{File: file, release: release, held: held}, nil
}

// holdNextSync arms the next write: its fsync closes held, then blocks
// until release is closed.
func (f *flakyFS) holdNextSync() (release, held chan struct{}) {
	release, held = make(chan struct{}), make(chan struct{})
	f.mu.Lock()
	f.release, f.held = release, held
	f.mu.Unlock()
	return release, held
}

// heldFile is a temp file whose Sync waits for the test to release it.
type heldFile struct {
	durable.File
	release, held chan struct{}
}

func (h *heldFile) Sync() error {
	close(h.held)
	<-h.release
	return h.File.Sync()
}

// TestDegradedModeFlipsAndHeals: persist failures flip the daemon into
// degraded (in-memory) mode — visible on /healthz and the oblxd_degraded
// gauge — and the next successful write heals it.
func TestDegradedModeFlipsAndHeals(t *testing.T) {
	ffs := &flakyFS{FS: durable.OS}
	m := newTestManager(t, Options{Workers: 1, StateDir: t.TempDir(), FS: ffs})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	if h := m.Health(); h.Status != "ok" || !h.StateDirWritable {
		t.Fatalf("initial health: %+v", h)
	}

	// Occupy the sole worker so later submissions stay queued and the
	// only persists are the ones this test provokes.
	long := submitJSON(t, ts, testDeck, JobOptions{Seed: 1, MaxMoves: 5_000_000})
	waitState(t, m.Get(long), StateRunning, time.Minute)

	ffs.fail.Store(true)
	if _, err := m.Submit(testDeck, JobOptions{Seed: 2, MaxMoves: 4000}, Origin{}); err != nil {
		t.Fatal(err) // persist failure degrades, it does not reject the job
	}
	if h := m.Health(); h.Status != "degraded" || h.StateDirWritable {
		t.Fatalf("health after failed persist: %+v", h)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "degraded" {
		t.Errorf("/healthz degraded: status %d body %+v (want 200/degraded)", resp.StatusCode, h)
	}
	text := metricsText(t, ts)
	if !strings.Contains(text, "oblxd_degraded 1") {
		t.Error("oblxd_degraded gauge not set")
	}
	if !strings.Contains(text, "oblxd_persist_errors_total") {
		t.Error("oblxd_persist_errors_total missing")
	}

	ffs.fail.Store(false)
	if _, err := m.Submit(testDeck, JobOptions{Seed: 3, MaxMoves: 4000}, Origin{}); err != nil {
		t.Fatal(err)
	}
	if h := m.Health(); h.Status != "ok" || !h.StateDirWritable {
		t.Errorf("health after recovery: %+v", h)
	}

	m.Cancel(long)
}

// TestDegradedModeIgnoresStaleHeal: a write that began before the state
// directory broke must not clear degraded mode when it finally succeeds;
// only a write that starts after the failure proves the directory healed.
func TestDegradedModeIgnoresStaleHeal(t *testing.T) {
	ffs := &flakyFS{FS: durable.OS}
	// ExternalExec: no local workers, so the only writes are this test's.
	m := newTestManager(t, Options{ExternalExec: true, StateDir: t.TempDir(), FS: ffs})
	j, err := m.Submit(testDeck, JobOptions{Seed: 1}, Origin{})
	if err != nil {
		t.Fatal(err)
	}

	release, held := ffs.holdNextSync()
	slow := make(chan error, 1)
	go func() { slow <- m.persist(j) }()
	<-held // the slow write is past CreateTemp, parked in its fsync

	ffs.fail.Store(true)
	if err := m.persist(j); err == nil {
		t.Fatal("persist succeeded on an unwritable state dir")
	}
	ffs.fail.Store(false)
	close(release)
	if err := <-slow; err != nil {
		t.Fatalf("delayed write: %v", err)
	}
	if h := m.Health(); h.Status != "degraded" || h.StateDirWritable {
		t.Fatalf("a write older than the failure healed degraded mode: %+v", h)
	}

	if err := m.persist(j); err != nil {
		t.Fatal(err)
	}
	if h := m.Health(); h.Status != "ok" || !h.StateDirWritable {
		t.Errorf("a write newer than the failure did not heal: %+v", h)
	}
}

// TestHealthzJSONBody: the health endpoint reports machine-readable
// detail, and every API response — including errors — carries the
// correlation headers.
func TestHealthzJSONBody(t *testing.T) {
	m := newTestManager(t, Options{Workers: 3, StateDir: t.TempDir()})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("healthz response has no X-Request-Id")
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 3 || !h.StateDirWritable ||
		h.QueueDepth != 0 || h.WorkersBusy != 0 || h.UptimeSeconds < 0 {
		t.Errorf("healthz body: %+v", h)
	}

	// A client-supplied request ID is honored and echoed.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/nosuchjob", nil)
	req.Header.Set("X-Request-Id", "req-test-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Request-Id"); got != "req-test-42" {
		t.Errorf("X-Request-Id = %q, want the client's req-test-42", got)
	}
	if ra := resp2.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("404 Retry-After = %q, want \"1\"", ra)
	}
}

// TestRetryAfterEstimateTracksJobDurations checks the 429 Retry-After
// hint is a real backlog estimate — average job duration × queue depth
// ÷ workers — not a constant, while staying at the 5s default before
// any job has finished.
func TestRetryAfterEstimateTracksJobDurations(t *testing.T) {
	m := newTestManager(t, Options{ExternalExec: true})

	// Empty queue, no history: clamped to the 1s floor.
	if d := m.retryAfterEstimate(); d != time.Second {
		t.Fatalf("empty-queue estimate = %s, want 1s floor", d)
	}

	for i := 0; i < 2; i++ {
		if _, err := m.Submit(testDeck, JobOptions{Seed: int64(i + 1), MaxMoves: 1000}, Origin{}); err != nil {
			t.Fatal(err)
		}
	}
	// No finished jobs yet: the 5s default average applies.
	// depth 2 × 5s ÷ 2 workers = 5s — the value the shedding test pins.
	if d := m.retryAfterEstimate(); d != 5*time.Second {
		t.Fatalf("no-history estimate = %s, want 5s", d)
	}

	// With real durations the estimate follows the observed average:
	// avg 45s × depth 2 ÷ 2 workers = 45s.
	m.mJobSecs.Observe(30)
	m.mJobSecs.Observe(60)
	if d := m.retryAfterEstimate(); d != 45*time.Second {
		t.Fatalf("estimate = %s, want 45s from observed durations", d)
	}
}
