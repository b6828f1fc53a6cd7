package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"astrx/internal/metrics"
	"astrx/internal/retry"
	"astrx/internal/server"
	"astrx/internal/telemetry"
	"astrx/internal/trace"
)

// submitTraced posts a deck with a W3C traceparent header, so the job
// joins the client's trace.
func (f *testFleet) submitTraced(deck string, opt server.JobOptions, traceparent string) string {
	f.t.Helper()
	body, _ := json.Marshal(map[string]any{"deck": deck, "options": opt})
	req, _ := http.NewRequest("POST", f.ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		f.t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		f.t.Fatal(err)
	}
	return st.ID
}

// getTrace fetches and decodes GET /v1/jobs/{id}/trace.
func (f *testFleet) getTrace(id string) server.TraceSummary {
	f.t.Helper()
	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		f.t.Fatalf("trace: status %d: %s", resp.StatusCode, b)
	}
	var sum server.TraceSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		f.t.Fatal(err)
	}
	return sum
}

// flatten walks a span forest into name → nodes.
func flatten(nodes []*trace.Node, into map[string][]*trace.Node) {
	for _, n := range nodes {
		into[n.Name] = append(into[n.Name], n)
		flatten(n.Children, into)
	}
}

// TestFleetTraceparentPropagation covers the propagation table: how the
// job's trace ID derives from the submit headers, how the claim
// response hands the context to workers, and how shipped spans are
// accepted (matching trace, fenced epoch rejected; foreign trace IDs
// dropped).
func TestFleetTraceparentPropagation(t *testing.T) {
	const (
		clientTID  = "0af7651916cd43dd8448eb211c80319c"
		clientSpan = "b7ad6b7169203331"
	)
	cases := []struct {
		name, tp string
		// wantClient: the job must adopt the client's trace ID verbatim.
		wantClient bool
	}{
		{"valid header", "00-" + clientTID + "-" + clientSpan + "-01", true},
		{"no header", "", false},
		{"garbage header", "not-a-traceparent", false},
		{"forbidden version ff", "ff-" + clientTID + "-" + clientSpan + "-01", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := startFleet(t, server.Options{CheckpointEvery: 500}, fastFleetOptions())
			id := f.submitTraced(testDeck, server.JobOptions{Seed: 1, MaxMoves: 1000}, c.tp)

			sum := f.getTrace(id)
			if c.wantClient && sum.TraceID != clientTID {
				t.Fatalf("trace ID %q, want the client's %s", sum.TraceID, clientTID)
			}
			if !c.wantClient && (sum.TraceID == clientTID || sum.TraceID == "") {
				t.Fatalf("trace ID %q, want a derived non-client ID", sum.TraceID)
			}

			// The claim response carries the job's context: same trace ID,
			// parent = the deterministic root span ID.
			var cr ClaimResponse
			if code := fleetPost(t, f.ts.URL, "/v1/fleet/claim", ClaimRequest{Worker: "w"}, &cr); code != http.StatusOK {
				t.Fatalf("claim: HTTP %d", code)
			}
			tc, err := trace.Parse(cr.Traceparent)
			if err != nil {
				t.Fatalf("claim traceparent %q does not parse: %v", cr.Traceparent, err)
			}
			if tc.TraceID != sum.TraceID || tc.SpanID != trace.RootSpanID(sum.TraceID) {
				t.Fatalf("claim context %+v, want trace %s root %s", tc, sum.TraceID, trace.RootSpanID(sum.TraceID))
			}

			// A shipped span with the right trace lands in the tree…
			ship := trace.Span{
				TraceID: tc.TraceID, SpanID: "aaaaaaaaaaaaaaa1", Parent: tc.SpanID,
				Name: "shipped-test-span", Start: time.Now(), Status: "ok",
			}
			// …a foreign trace ID is silently dropped…
			foreign := trace.Span{
				TraceID: "ffffffffffffffffffffffffffffffff", SpanID: "aaaaaaaaaaaaaaa2",
				Name: "foreign-span", Start: time.Now(), Status: "ok",
			}
			code := fleetPost(t, f.ts.URL, "/v1/fleet/jobs/"+id+"/heartbeat",
				HeartbeatRequest{Worker: "w", Run: cr.Run, Epoch: cr.Epoch,
					Spans: []trace.Span{ship, foreign}}, nil)
			if code != http.StatusOK {
				t.Fatalf("heartbeat: HTTP %d", code)
			}
			// …and a fenced (stale-epoch) ship is rejected wholesale.
			fenced := trace.Span{
				TraceID: tc.TraceID, SpanID: "aaaaaaaaaaaaaaa3", Parent: tc.SpanID,
				Name: "fenced-span", Start: time.Now(), Status: "ok",
			}
			code = fleetPost(t, f.ts.URL, "/v1/fleet/jobs/"+id+"/heartbeat",
				HeartbeatRequest{Worker: "zombie", Run: cr.Run, Epoch: cr.Epoch + 7,
					Spans: []trace.Span{fenced}}, nil)
			if code != http.StatusConflict {
				t.Fatalf("fenced heartbeat: HTTP %d, want 409", code)
			}

			byName := map[string][]*trace.Node{}
			flatten(f.getTrace(id).Tree, byName)
			if len(byName["shipped-test-span"]) != 1 {
				t.Error("shipped span with matching trace ID not ingested")
			}
			if len(byName["foreign-span"]) != 0 {
				t.Error("span from a foreign trace was ingested")
			}
			if len(byName["fenced-span"]) != 0 {
				t.Error("span from a fenced worker was ingested")
			}
			if len(byName["claim"]) != 1 {
				t.Errorf("claim spans: %d, want 1", len(byName["claim"]))
			}
		})
	}
}

// TestFleetStageTiming: a fleet lease times its evaluations at the
// daemon's cadence, so a committed job's anneal span carries the
// stage.<name>_us means a local job's does, and the samples arrive as
// eval spans under it. The worker beats only every two seconds, so one
// ship buffer collects more eval spans than the eval ring holds, and
// the anneal span must still ship.
func TestFleetStageTiming(t *testing.T) {
	opt := fastFleetOptions()
	opt.LeaseTTL, opt.HeartbeatEvery = 10*time.Second, 2*time.Second
	f := startFleet(t, server.Options{CheckpointEvery: 500}, opt)
	f.startWorker(WorkerOptions{ID: "w1"})
	id := f.submit(testDeck, server.JobOptions{Seed: 1, MaxMoves: 8000, NoFreeze: true})
	f.waitState(id, server.StateDone, 120*time.Second)

	byName := map[string][]*trace.Node{}
	flatten(f.getTrace(id).Tree, byName)
	if len(byName["anneal"]) != 1 {
		t.Fatalf("anneal spans: %d, want 1", len(byName["anneal"]))
	}
	anneal := byName["anneal"][0]
	for _, st := range telemetry.StageNames() {
		if _, err := strconv.ParseFloat(anneal.Attrs["stage."+st+"_us"], 64); err != nil {
			t.Errorf("anneal span stage.%s_us = %q", st, anneal.Attrs["stage."+st+"_us"])
		}
	}
	evals := 0
	var count func([]*trace.Node)
	count = func(nodes []*trace.Node) {
		for _, n := range nodes {
			if strings.HasPrefix(n.Name, "eval:") {
				evals++
			}
			count(n.Children)
		}
	}
	count(anneal.Children)
	t.Logf("%d eval spans under the anneal span", evals)
	if evals == 0 {
		t.Error("no eval spans under the anneal span")
	}
}

// TestFleetStageHistograms: a lease's sampled stage timings arrive at
// the coordinator only as eval:<stage> spans, and each one ingested must
// also land in that stage's oblxd_eval_stage_seconds histogram, so
// /debug/metrics reports fleet jobs' stage timing as it does local
// jobs'. Every ingested span is counted once in its span-duration
// histogram, so after one job the two counts agree stage by stage.
func TestFleetStageHistograms(t *testing.T) {
	reg := metrics.New()
	f := startFleet(t, server.Options{Registry: reg, CheckpointEvery: 500}, fastFleetOptions())
	f.startWorker(WorkerOptions{ID: "w1"})
	id := f.submit(testDeck, server.JobOptions{Seed: 1, MaxMoves: 4000, NoFreeze: true})
	f.waitState(id, server.StateDone, 120*time.Second)

	for _, st := range telemetry.StageNames() {
		spans := reg.Histogram("oblxd_span_duration_seconds", metrics.DurationBuckets, "span", "eval:"+st).Count()
		stage := reg.Histogram("oblxd_eval_stage_seconds", telemetry.StageBuckets, "stage", st).Count()
		if spans == 0 {
			t.Errorf("stage %s: no eval spans ingested", st)
		}
		if stage != spans {
			t.Errorf("stage %s: oblxd_eval_stage_seconds count %d, want the %d eval:%s spans ingested", st, stage, spans, st)
		}
	}
}

// TestFleetTraceKillResume is the acceptance drill from the issue: a
// job submitted with a client traceparent is claimed by a worker that
// is killed mid-anneal after shipping a checkpoint; a second worker
// resumes from the checkpoint and completes. The trace served at
// GET /v1/jobs/{id}/trace must be a single tree under the original
// trace ID, spanning both workers, with a resume event on the second
// attempt's anneal span.
func TestFleetTraceKillResume(t *testing.T) {
	const (
		clientTID  = "4bf92f3577b34da6a3ce929d0e0e4736"
		clientSpan = "00f067aa0ba902b7"
	)
	f := startFleet(t, server.Options{
		StateDir:        t.TempDir(),
		CheckpointEvery: 200,
		Retry:           retry.Policy{Base: 10 * time.Millisecond, Multiplier: 1, MaxAttempts: 5},
	}, Options{
		LeaseTTL:       400 * time.Millisecond,
		HeartbeatEvery: 40 * time.Millisecond,
	})
	victim, _ := f.startWorker(WorkerOptions{ID: "victim", Dir: t.TempDir()})

	id := f.submitTraced(testDeck, server.JobOptions{Seed: 1, MaxMoves: 60_000},
		"00-"+clientTID+"-"+clientSpan+"-01")

	j := f.mgr.Get(id)
	if j == nil {
		t.Fatal("job not found")
	}
	shipped := time.Now().Add(60 * time.Second)
	for f.mgr.ResumePayload(j) == nil {
		if time.Now().After(shipped) {
			t.Fatal("no checkpoint shipped before deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	victim.Kill()
	f.waitMetric("oblxd_lease_expirations_total 1", 30*time.Second)

	f.startWorker(WorkerOptions{ID: "rescuer", Dir: t.TempDir()})
	f.waitState(id, server.StateDone, 300*time.Second)

	// The trace closes just after the terminal state publishes.
	var sum server.TraceSummary
	settle := time.Now().Add(10 * time.Second)
	for {
		sum = f.getTrace(id)
		if len(sum.Tree) == 1 && sum.Tree[0].Status == "ok" || time.Now().After(settle) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	if sum.TraceID != clientTID {
		t.Fatalf("trace ID %q, want the original client trace %s", sum.TraceID, clientTID)
	}
	if len(sum.Tree) != 1 {
		t.Fatalf("trace has %d roots, want one tree; spans %d", len(sum.Tree), sum.Spans)
	}
	root := sum.Tree[0]
	if root.Name != "job" || root.SpanID != trace.RootSpanID(clientTID) || root.Parent != clientSpan {
		t.Fatalf("root %q id %q parent %q, want job/%s/%s",
			root.Name, root.SpanID, root.Parent, trace.RootSpanID(clientTID), clientSpan)
	}

	byName := map[string][]*trace.Node{}
	flatten(sum.Tree, byName)

	// Both incarnations claimed: two claim spans naming the two workers.
	workers := map[string]bool{}
	for _, n := range byName["claim"] {
		workers[n.Attrs["worker"]] = true
	}
	if len(byName["claim"]) < 2 || !workers["victim"] || !workers["rescuer"] {
		t.Errorf("claim spans %d with workers %v, want both victim and rescuer", len(byName["claim"]), workers)
	}

	// The rescuer's anneal span completed under the same root and
	// carries the resume event (the victim's open span died with it).
	annealSpans := byName["anneal"]
	if len(annealSpans) == 0 {
		t.Fatal("no anneal span shipped home")
	}
	resumed := false
	for _, n := range annealSpans {
		if n.Parent != root.SpanID {
			t.Errorf("anneal span parented to %q, want the job root", n.Parent)
		}
		for _, ev := range n.Events {
			if ev.Name == "resume" {
				resumed = true
				if ev.Attrs["move"] == "" {
					t.Error("resume event has no move attr")
				}
			}
		}
	}
	if !resumed {
		t.Error("no anneal span carries a resume event — the resumed attempt's trace is missing")
	}

	if !strings.Contains(f.metricsText(), "oblxd_span_duration_seconds") {
		t.Error("span duration histogram absent from exposition")
	}
}

// rootMoveNumbers returns the move attribute of every move event on the
// job root of a trace.
func rootMoveNumbers(t *testing.T, sum server.TraceSummary) []string {
	t.Helper()
	if len(sum.Tree) != 1 || sum.Tree[0].Name != "job" {
		t.Fatalf("trace tree: want one job root, got %d roots", len(sum.Tree))
	}
	var moves []string
	for _, ev := range sum.Tree[0].Events {
		if ev.Name == "move" {
			moves = append(moves, ev.Attrs["move"])
		}
	}
	return moves
}

// TestFleetKillKeepsHeartbeatMoves: the progress samples a worker sent
// with its heartbeats land as move events on the job's root span, and
// they outlive the worker — after a kill -9 and the lease-expiry
// requeue, the job's trace still holds every sample the dead worker
// delivered.
func TestFleetKillKeepsHeartbeatMoves(t *testing.T) {
	f := startFleet(t, server.Options{
		StateDir:        t.TempDir(),
		CheckpointEvery: 200,
		Retry:           retry.Policy{Base: time.Hour, Max: time.Hour, Multiplier: 1, MaxAttempts: 5},
	}, Options{
		LeaseTTL:       400 * time.Millisecond,
		HeartbeatEvery: 40 * time.Millisecond,
	})
	victim, _ := f.startWorker(WorkerOptions{ID: "victim", Dir: t.TempDir()})
	id := f.submit(testDeck, server.JobOptions{Seed: 1, MaxMoves: 60_000})

	var before []string
	deadline := time.Now().Add(60 * time.Second)
	for len(before) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat samples reached the trace")
		}
		time.Sleep(10 * time.Millisecond)
		before = rootMoveNumbers(t, f.getTrace(id))
	}
	victim.Kill()
	f.waitMetric("oblxd_lease_expirations_total 1", 30*time.Second)
	// No second worker: the requeued job waits out its backoff queued.
	f.waitState(id, server.StateQueued, 30*time.Second)

	after := rootMoveNumbers(t, f.getTrace(id))
	if len(after) < len(before) {
		t.Fatalf("root lost move events across the requeue: %d before, %d after", len(before), len(after))
	}
	for i, mv := range before {
		if after[i] != mv {
			t.Fatalf("move event %d changed across the requeue: %s, then %s", i, mv, after[i])
		}
	}
}
