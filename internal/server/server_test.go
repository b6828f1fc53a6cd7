package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// testDeck is a relaxed Simple OTA synthesis problem: same topology as
// the paper's Table 2 circuit, but with spec anchors loose enough that
// every non-objective spec is met within a few thousand moves. Server
// tests need jobs that finish (and succeed) in about a second, not the
// paper's 120k-move overnight runs.
const testDeck = `
.lib c2u
.module ota (inp inn out vdd vss)
m1 n1  inp ntail ntail nmos3 w=W1 l=L1
m2 out inn ntail ntail nmos3 w=W1 l=L1
m3 n1  n1  vdd  vdd  pmos3 w=W3 l=L3
m4 out n1  vdd  vdd  pmos3 w=W3 l=L3
m5 ntail nbias vss vss nmos3 w=W5 l=L5
m6 nbias nbias vss vss nmos3 w=W5 l=L5
ib vdd nbias Ib
.ends

.var W1 min=2u max=500u grid
.var L1 min=2u max=20u  grid
.var W3 min=2u max=500u grid
.var L3 min=2u max=20u  grid
.var W5 min=2u max=500u grid
.var L5 min=2u max=20u  grid
.var Ib min=2u max=250u cont

.const Cl 1p

.jig main
xamp inp inn out nvdd nvss ota
vdd nvdd 0 2.5
vss nvss 0 -2.5
vin inp 0 0 ac 1
vcm inn 0 0
cl1 out 0 Cl
.pz tf v(out) vin
.ends

.bias
xamp inp inn out nvdd nvss ota
vdd nvdd 0 2.5
vss nvss 0 -2.5
vi1 inp 0 0
vi2 inn 0 0
.ends

.obj  adm 'db(dc_gain(tf))' good=30 bad=5
.spec gbw 'ugf(tf)' good=1Meg bad=10k
.spec pm  'phase_margin(tf)' good=45 bad=15
.spec pwr 'power()' good=5m bad=50m
.region xamp.m1 sat
.region xamp.m2 sat
`

// tWriter adapts t.Logf to io.Writer so slog output lands in the test
// log. Writes after the test completes are dropped rather than panicking
// (late goroutines — backoff timers, watchdog ticks — may still log).
type tWriter struct{ t *testing.T }

func (w tWriter) Write(p []byte) (int, error) {
	defer func() { recover() }()
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// testLogger returns a debug-level structured logger writing into t.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(tWriter{t: t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// newTestManager starts a manager and registers cleanup-shutdown.
func newTestManager(t *testing.T, opt Options) *Manager {
	t.Helper()
	if opt.Workers == 0 {
		opt.Workers = 2
	}
	if opt.ProgressEvery == 0 {
		opt.ProgressEvery = 200
	}
	opt.Logger = testLogger(t)
	m, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

// submitJSON posts a deck through the HTTP API and returns the job ID.
func submitJSON(t *testing.T, ts *httptest.Server, deck string, opt JobOptions) string {
	t.Helper()
	body, _ := json.Marshal(submitRequest{Deck: deck, Options: opt})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, e.Error)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("submit: bad status %+v", st)
	}
	return st.ID
}

// readSSE consumes the job's event stream until the terminal state
// event, returning the number of progress events and the final state.
func readSSE(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) (progress int, final State) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("events: bad payload %q: %v", line, err)
		}
		switch ev.Type {
		case "progress":
			progress++
			if ev.Prog == nil {
				t.Fatal("progress event without payload")
			}
		case "state":
			if ev.State.terminal() {
				return progress, ev.State
			}
		}
	}
	t.Fatalf("event stream ended without a terminal state (scan err: %v)", sc.Err())
	return 0, ""
}

// waitState polls a job until it reaches want or the timeout expires.
func waitState(t *testing.T, j *Job, want State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID, j.State(), want)
}

// TestLifecycle covers the whole happy path over HTTP: submit, watch the
// event stream, fetch the verified result.
func TestLifecycle(t *testing.T) {
	m := newTestManager(t, Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	id := submitJSON(t, ts, testDeck, JobOptions{Seed: 1, MaxMoves: 4000, ProgressEvery: 200})

	prog, final := readSSE(t, ts, id, 2*time.Minute)
	if final != StateDone {
		t.Fatalf("final state %s, want done", final)
	}
	if prog < 3 {
		t.Errorf("got %d progress events, want >= 3", prog)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.State != StateDone {
		t.Fatalf("result state %s", res.State)
	}
	if res.Result == nil || len(res.Result.Variables) == 0 {
		t.Fatal("result has no design variables")
	}
	if res.Verify == nil {
		t.Fatalf("result has no verification (verify_error: %s)", res.VerifyError)
	}
	for _, s := range res.Verify.Specs {
		if !s.Objective && !s.Met {
			t.Errorf("spec %s not met: simulated %g (good=%g bad=%g)",
				s.Name, s.Simulated, s.Good, s.Bad)
		}
	}

	// Status endpoint reflects the terminal state and best cost.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st Status
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.BestCost == nil || st.Finished == nil {
		t.Errorf("status after completion: %+v", st)
	}

	// The metrics endpoint reports the finished job.
	resp3, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp3.Body)
	text := buf.String()
	for _, want := range []string{
		"oblxd_jobs_submitted_total 1",
		`oblxd_jobs_finished_total{state="done"} 1`,
		"oblxd_evals_total",
		"oblxd_job_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestSubmitRejectsBadDecks: parse and validation failures are HTTP 400
// with a useful message, before any synthesis work happens.
func TestSubmitRejectsBadDecks(t *testing.T) {
	m := newTestManager(t, Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	post := func(deck string) (int, string) {
		body, _ := json.Marshal(submitRequest{Deck: deck})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}

	if code, msg := post("this is not a deck"); code != http.StatusBadRequest {
		t.Errorf("garbage deck: status %d (%s), want 400", code, msg)
	}
	// Validation-level failure: spec measuring a transfer function no
	// .pz declares.
	bad := strings.Replace(testDeck, "ugf(tf)", "ugf(nosuch)", 1)
	code, msg := post(bad)
	if code != http.StatusBadRequest {
		t.Errorf("dangling TF: status %d, want 400", code)
	}
	if !strings.Contains(msg, "nosuch") {
		t.Errorf("error %q does not name the dangling transfer function", msg)
	}
	if code, _ := post(""); code != http.StatusBadRequest {
		t.Errorf("empty deck: status %d, want 400", code)
	}
}

// TestSubmitRejectsTooManyRuns: runs above maxRuns is HTTP 400 whether
// it comes as a query parameter, in the JSON body or on a batch child,
// and queues nothing. The manager runs no job itself, so no anneal could
// start even if a submit got through.
func TestSubmitRejectsTooManyRuns(t *testing.T) {
	m := newTestManager(t, Options{ExternalExec: true})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	over := JobOptions{Seed: 1, MaxMoves: 100, Runs: maxRuns + 1}
	jobBody, _ := json.Marshal(submitRequest{Deck: testDeck, Options: over})
	batchBody, _ := json.Marshal(batchRequest{Jobs: []batchItem{{Deck: testDeck, Options: over}}})
	for _, c := range []struct{ name, path, ct, body string }{
		{"query", fmt.Sprintf("/v1/jobs?max_moves=100&runs=%d", maxRuns+1), "text/plain", testDeck},
		{"json", "/v1/jobs", "application/json", string(jobBody)},
		{"batch", "/v1/batches", "application/json", string(batchBody)},
	} {
		resp, err := http.Post(ts.URL+c.path, c.ct, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "runs") {
			t.Errorf("%s: status %d (%s), want 400 naming runs", c.name, resp.StatusCode, e.Error)
		}
	}
	if n, jobs := m.QueueDepth(), len(m.Jobs()); n != 0 || jobs != 0 {
		t.Errorf("%d queued of %d jobs after the rejected submits, want none", n, jobs)
	}
}

// TestSubmitRefusesIncludeCard: a submitted deck cannot make the daemon
// read its files. An .include card is a deck error that names the card
// and quotes nothing of the named file.
func TestSubmitRefusesIncludeCard(t *testing.T) {
	m := newTestManager(t, Options{})
	const marker = "include-marker-9b2e"
	path := t.TempDir() + "/secret.inc"
	if err := os.WriteFile(path, []byte(marker+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(".include "+path+"\n"+testDeck, JobOptions{Seed: 1, MaxMoves: 100}, Origin{})
	var de *DeckError
	if !errors.As(err, &de) {
		t.Fatalf("submit: job %v, err %v, want a deck error", j, err)
	}
	if !strings.Contains(err.Error(), ".include") || strings.Contains(err.Error(), marker) {
		t.Errorf("error %q: want one that names .include and quotes nothing of the file", err)
	}
}

// TestCancelMidRun: DELETE on a running job cancels it; the partial
// best-so-far result is kept and served.
func TestCancelMidRun(t *testing.T) {
	m := newTestManager(t, Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	// A move budget far beyond what the test waits for.
	id := submitJSON(t, ts, testDeck, JobOptions{Seed: 1, MaxMoves: 5_000_000, ProgressEvery: 100})
	j := m.Get(id)
	if j == nil {
		t.Fatal("job not found in manager")
	}
	waitState(t, j, StateRunning, time.Minute)
	time.Sleep(50 * time.Millisecond) // let it anneal a little

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	waitState(t, j, StateCancelled, time.Minute)
	res := j.Result()
	if res == nil || res.State != StateCancelled {
		t.Fatalf("cancelled job result: %+v", res)
	}
	if res.Result == nil || !res.Result.Cancelled {
		t.Error("cancelled job should keep its best-so-far result view")
	}

	// Cancelling a terminal job is a conflict.
	resp2, err := http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("double cancel: status %d, want 409", resp2.StatusCode)
	}
}

// TestCancelQueued: cancelling a job that never reached a worker is
// immediate and terminal.
func TestCancelQueued(t *testing.T) {
	// One worker, occupied by a long job, so the second stays queued.
	m := newTestManager(t, Options{Workers: 1})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	long := submitJSON(t, ts, testDeck, JobOptions{Seed: 1, MaxMoves: 5_000_000})
	queued := submitJSON(t, ts, testDeck, JobOptions{Seed: 2, MaxMoves: 4000})

	j := m.Get(queued)
	if got := j.State(); got != StateQueued {
		t.Fatalf("second job is %s, want queued", got)
	}
	if err := m.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	if got := j.State(); got != StateCancelled {
		t.Fatalf("after cancel: %s", got)
	}
	if res := j.Result(); res == nil || res.State != StateCancelled {
		t.Fatalf("queued-cancel result: %+v", res)
	}
	// Unblock the worker for cleanup shutdown.
	if err := m.Cancel(long); err != nil {
		t.Fatal(err)
	}
}

// TestResultBeforeTerminalConflicts: the result endpoint refuses to
// serve a job that is still queued or running.
func TestResultBeforeTerminalConflicts(t *testing.T) {
	m := newTestManager(t, Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	id := submitJSON(t, ts, testDeck, JobOptions{Seed: 1, MaxMoves: 5_000_000})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result while running: status %d, want 409", resp.StatusCode)
	}
	m.Cancel(id)
}

// TestUnknownJob404s across all per-job endpoints.
func TestUnknownJob404s(t *testing.T) {
	m := newTestManager(t, Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	for _, ep := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/events", "/v1/jobs/deadbeef/result"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", ep, resp.StatusCode)
		}
	}
}

// TestSubmitPlainText: the curl-friendly path — raw deck body, options
// in query parameters.
func TestSubmitPlainText(t *testing.T) {
	m := newTestManager(t, Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	url := fmt.Sprintf("%s/v1/jobs?seed=3&max_moves=4000&progress_every=500", ts.URL)
	resp, err := http.Post(url, "text/plain", strings.NewReader(testDeck))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plain-text submit: status %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Options.Seed != 3 || st.Options.MaxMoves != 4000 {
		t.Errorf("options not picked up from query: %+v", st.Options)
	}
	m.Cancel(st.ID)
}

// TestDrainingRejectsSubmissions: after Shutdown begins, new submissions
// get 503.
func TestDrainingRejectsSubmissions(t *testing.T) {
	m := newTestManager(t, Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(submitRequest{Deck: testDeck})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", resp2.StatusCode)
	}
}

// TestProfilingEndpointGated checks that /debug/pprof/ exists only when
// Options.EnableProfiling is set — the profile endpoints leak internal
// state and must stay off by default.
func TestProfilingEndpointGated(t *testing.T) {
	get := func(ts *httptest.Server, path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	off := newTestManager(t, Options{})
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	if code := get(tsOff, "/debug/pprof/"); code != http.StatusNotFound {
		t.Errorf("pprof index with profiling off: status %d, want 404", code)
	}

	on := newTestManager(t, Options{EnableProfiling: true})
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	if code := get(tsOn, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index with profiling on: status %d, want 200", code)
	}
	if code := get(tsOn, "/debug/pprof/heap"); code != http.StatusOK {
		t.Errorf("pprof heap with profiling on: status %d, want 200", code)
	}
	// Metrics stay available in both configurations.
	if code := get(tsOff, "/debug/metrics"); code != http.StatusOK {
		t.Errorf("metrics with profiling off: status %d, want 200", code)
	}
}

// TestSubmitCorneredPlainText: the curl-friendly corner surface — raw
// deck with .corner cards, selection in the corners= query parameter.
// The finished result must carry the per-corner breakdown, and an
// unknown corner name must be rejected at the door.
func TestSubmitCorneredPlainText(t *testing.T) {
	deck := testDeck + "\n.corner slow vdd=2.4\n.corner fast vdd=2.6\n"
	m := newTestManager(t, Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs?seed=1&max_moves=3000&corners=slow", "text/plain", strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cornered submit: status %d", resp.StatusCode)
	}
	if len(st.Options.Corners) != 1 || st.Options.Corners[0] != "slow" {
		t.Fatalf("corners not picked up from query: %+v", st.Options.Corners)
	}
	j := m.Get(st.ID)
	if j == nil {
		t.Fatal("submitted job not found")
	}
	waitState(t, j, StateDone, 2*time.Minute)
	res := j.Result()
	if res == nil || res.Result == nil {
		t.Fatal("done job has no result")
	}
	corners := res.Result.Corners
	if len(corners) != 2 { // nominal + slow
		t.Fatalf("per-corner breakdown has %d lanes, want 2: %+v", len(corners), corners)
	}
	if corners[0].Name != "nominal" || corners[1].Name != "slow" {
		t.Errorf("lane names %q/%q, want nominal/slow", corners[0].Name, corners[1].Name)
	}

	resp, err = http.Post(ts.URL+"/v1/jobs?corners=bogus", "text/plain", strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown corner: status %d, want 400", resp.StatusCode)
	}
}

// TestSubmitBlankCornerListRejected: a corners= list whose every entry
// is blank names no corner. It is a 400 that creates no job, not a
// selection of every corner.
func TestSubmitBlankCornerListRejected(t *testing.T) {
	deck := testDeck + "\n.corner slow vdd=2.4\n.corner fast vdd=2.6\n"
	m := newTestManager(t, Options{})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	for _, q := range []string{"%20,", ",", "%20,%20,"} {
		resp, err := http.Post(ts.URL+"/v1/jobs?seed=1&max_moves=3000&corners="+q, "text/plain", strings.NewReader(deck))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "names no corner") {
			t.Errorf("corners=%s: status %d %s, want 400 naming the empty selection", q, resp.StatusCode, body)
		}
	}
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Errorf("a rejected corner selection created %d jobs", len(jobs))
	}
}
