package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"astrx/internal/metrics"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/telemetry"
	"astrx/internal/trace"
)

// submitTraced posts a deck with a W3C traceparent header and returns
// the job ID.
func submitTraced(t *testing.T, ts *httptest.Server, deck string, opt JobOptions, traceparent string) string {
	t.Helper()
	body, _ := json.Marshal(submitRequest{Deck: deck, Options: opt})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Traceparent", traceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// findSpans flattens a span tree into name → nodes.
func findSpans(nodes []*trace.Node, into map[string][]*trace.Node) {
	for _, n := range nodes {
		into[n.Name] = append(into[n.Name], n)
		findSpans(n.Children, into)
	}
}

// TestLocalStageHistograms: a local job's stage samples reach
// oblxd_eval_stage_seconds only through the eval spans its recorder
// commits, as a fleet job's do (TestFleetStageHistograms), so each
// stage's histogram counts exactly that stage's eval:<stage> spans in
// oblxd_span_duration_seconds.
func TestLocalStageHistograms(t *testing.T) {
	reg := metrics.New()
	m := newTestManager(t, Options{Registry: reg})
	j, err := m.Submit(testDeck, JobOptions{Seed: 1, MaxMoves: 4000, NoFreeze: true}, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone, 120*time.Second)
	for _, st := range telemetry.StageNames() {
		spans := reg.Histogram("oblxd_span_duration_seconds", metrics.DurationBuckets, "span", "eval:"+st).Count()
		stage := reg.Histogram("oblxd_eval_stage_seconds", telemetry.StageBuckets, "stage", st).Count()
		if stage == 0 || stage != spans {
			t.Errorf("stage %s: oblxd_eval_stage_seconds count %d, want the %d eval:%s spans, and above 0", st, stage, spans, st)
		}
	}
}

// TestTraceEndpointLifecycle is the single-daemon acceptance drill for
// the tracing tentpole: a job submitted with a client traceparent joins
// the client's trace, runs a real anneal, and serves one span tree —
// job root parented to the client span, with submit, queue-wait, and
// anneal children — live while the daemon is up and from the durable
// snapshot after a restart.
func TestTraceEndpointLifecycle(t *testing.T) {
	const (
		clientTID  = "4bf92f3577b34da6a3ce929d0e0e4736"
		clientSpan = "00f067aa0ba902b7"
	)
	dir := t.TempDir()
	m1, err := New(Options{StateDir: dir, Workers: 1, ProgressEvery: 200, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(m1.Handler())

	id := submitTraced(t, ts1, testDeck, JobOptions{Seed: 1, MaxMoves: 4000},
		"00-"+clientTID+"-"+clientSpan+"-01")
	j := m1.Get(id)
	if j == nil {
		t.Fatal("job not found after submit")
	}
	waitState(t, j, StateDone, 60*time.Second)

	// The terminal state publishes just before the trace closes; poll
	// briefly until the root span has been ended.
	var live TraceSummary
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON(t, ts1.URL+"/v1/jobs/"+id+"/trace", &live); code != http.StatusOK {
			t.Fatalf("live trace: status %d", code)
		}
		if len(live.Tree) == 1 && live.Tree[0].Status == "ok" || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if live.Source != "live" || live.TraceID != clientTID {
		t.Fatalf("live trace: source %q trace ID %q, want live/%s", live.Source, live.TraceID, clientTID)
	}
	checkTree := func(sum TraceSummary) {
		t.Helper()
		if len(sum.Tree) != 1 {
			t.Fatalf("trace has %d roots, want 1: %+v", len(sum.Tree), sum.Tree)
		}
		root := sum.Tree[0]
		if root.Name != "job" || root.SpanID != trace.RootSpanID(clientTID) {
			t.Fatalf("root span %q id %q, want job/%s", root.Name, root.SpanID, trace.RootSpanID(clientTID))
		}
		if root.Parent != clientSpan {
			t.Errorf("root parent %q, want the client span %s", root.Parent, clientSpan)
		}
		if root.Attrs["job"] != sum.ID || root.Attrs["state"] != "done" || root.Status != "ok" {
			t.Errorf("root attrs/status: %+v %q", root.Attrs, root.Status)
		}
		byName := map[string][]*trace.Node{}
		findSpans(sum.Tree, byName)
		for _, name := range []string{"submit", "queue-wait", "anneal"} {
			if len(byName[name]) == 0 {
				t.Errorf("no %q span in tree (have %d spans)", name, sum.Spans)
			}
		}
		if ann := byName["anneal"]; len(ann) > 0 {
			if ann[0].Parent != root.SpanID {
				t.Errorf("anneal parented to %q, want the job root", ann[0].Parent)
			}
			if ann[0].Attrs["moves"] == "" || ann[0].Attrs["evals"] == "" {
				t.Errorf("anneal span attrs missing moves/evals: %+v", ann[0].Attrs)
			}
		}
	}
	checkTree(live)

	// The queue-wait latency histogram saw the submit→claim hop.
	mResp, err := http.Get(ts1.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mBody := new(bytes.Buffer)
	mBody.ReadFrom(mResp.Body)
	mResp.Body.Close()
	for _, want := range []string{"oblxd_queue_wait_seconds", "oblxd_span_duration_seconds"} {
		if !strings.Contains(mBody.String(), want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}

	// The job record persisted the propagation context for recovery.
	if rec := readRecord(t, dir, id); rec.Traceparent != "00-"+clientTID+"-"+trace.RootSpanID(clientTID)+"-01" {
		t.Errorf("persisted traceparent = %q", rec.Traceparent)
	}

	ts1.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}

	// ---- restart: the tree is served from the durable snapshot ----
	m2 := newTestManager(t, Options{StateDir: dir, Workers: 1})
	ts2 := httptest.NewServer(m2.Handler())
	defer ts2.Close()

	var snap TraceSummary
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+id+"/trace", &snap); code != http.StatusOK {
		t.Fatalf("snapshot trace: status %d", code)
	}
	if snap.Source != "snapshot" || snap.TraceID != clientTID || snap.Cause != "done" {
		t.Fatalf("snapshot trace: %+v", snap)
	}
	checkTree(snap)
}

// TestTraceConcurrentSnapshot races live span traffic against trace
// snapshotting: while a real anneal records spans and publishes SSE
// progress (and move events on the root span), concurrent readers
// hammer GET .../trace and the SSE stream. Run under -race; the invariant is simply no data
// race and well-formed responses throughout.
func TestTraceConcurrentSnapshot(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, ProgressEvery: 100})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	id := submitJSON(t, ts, testDeck, JobOptions{Seed: 1, MaxMoves: 30_000, ProgressEvery: 100})
	j := m.Get(id)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sum TraceSummary
				if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/trace", &sum); code != http.StatusOK {
					t.Errorf("trace during run: status %d", code)
					return
				}
				if sum.TraceID == "" || sum.Source != "live" {
					t.Errorf("trace during run: %+v", sum)
					return
				}
			}
		}()
	}
	// SSE subscriber rides along until the terminal state event.
	if _, final := readSSE(t, ts, id, 120*time.Second); final != StateDone {
		t.Errorf("final state %s, want done", final)
	}
	close(stop)
	wg.Wait()
	waitState(t, j, StateDone, 10*time.Second)

	var sum TraceSummary
	if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/trace", &sum); code != http.StatusOK {
		t.Fatalf("final trace: status %d", code)
	}
	if len(sum.Tree) != 1 || sum.Tree[0].Name != "job" || sum.Tree[0].Status != "ok" {
		t.Fatalf("final trace tree: %+v", sum.Tree)
	}
	// The run record: every progress sample is a move event on the root
	// linked to the anneal span, which carries the stage timings.
	byName := map[string][]*trace.Node{}
	findSpans(sum.Tree, byName)
	if len(byName["anneal"]) != 1 {
		t.Fatalf("anneal spans: %d, want 1", len(byName["anneal"]))
	}
	anneal := byName["anneal"][0]
	if _, ok := anneal.Attrs["stage.fit_us"]; !ok {
		t.Errorf("anneal span has no stage timings: %v", anneal.Attrs)
	}
	moves := rootMoves(t, &sum)
	if len(moves) != 300 {
		t.Errorf("root carries %d move events, want 300 (30000 moves / 100)", len(moves))
	}
	for _, ev := range moves {
		if ev.Attrs["span_id"] != anneal.SpanID {
			t.Fatalf("move event %v not linked to anneal span %s", ev.Attrs, anneal.SpanID)
		}
	}
}

// TestTraceLegacyJob409: unknown jobs 404; a recovered terminal job with
// neither a live recorder nor a snapshot on disk (a state dir written
// before the daemon gained tracing) answers 409, not 500.
func TestTraceLegacyJob409(t *testing.T) {
	orig := synthesize
	defer func() { synthesize = orig }()
	synthesize = oneRun(func(ctx context.Context, deck *netlist.Deck, opt oblx.Options) (*oblx.Result, error) {
		return nil, context.Canceled
	})

	dir := t.TempDir()
	m1, err := New(Options{StateDir: dir, Workers: 1, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m1.Submit(testDeck, JobOptions{Seed: 1, MaxMoves: 1000}, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed, 30*time.Second)
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	// Simulate a pre-tracing state dir: drop the trace artifact.
	if err := os.Remove(dir + "/job-" + j.ID + ".trace"); err != nil {
		t.Fatalf("expected a trace snapshot to exist: %v", err)
	}

	m2 := newTestManager(t, Options{StateDir: dir, Workers: 1})
	ts := httptest.NewServer(m2.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var e apiError
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || !strings.Contains(e.Error, "no trace") {
		t.Errorf("legacy trace: status %d error %q, want 409/no trace", resp.StatusCode, e.Error)
	}

	resp2, err := http.Get(ts.URL + "/v1/jobs/nosuchjob/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", resp2.StatusCode)
	}
}
