package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"astrx/internal/faults"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/retry"
	"astrx/internal/server"
)

// The fleet chaos suite proves the exactly-once contract under the
// failure modes ROADMAP.md lists for distributed supervision: dropped
// and duplicated messages, partitions that heal after the lease TTL,
// kill -9 mid-anneal, coordinator restart, and eval-progress stalls.
// Every scenario ends with the job completed, resumed, or quarantined —
// never lost, never committed twice.

// fleetPost drives the fleet protocol by hand — the deterministic
// "partitioned worker" whose messages the test controls exactly.
func fleetPost(t *testing.T, base, path string, body, out any) int {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// waitMetric polls the exposition until the named sample line reports a
// value (any line containing prefix), failing after timeout.
func (f *testFleet) waitMetric(prefix string, timeout time.Duration) {
	f.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if strings.Contains(f.metricsText(), prefix) {
			return
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("metric %q not observed within %s; exposition:\n%s",
				prefix, timeout, grepMetrics(f.metricsText(), "oblxd_"))
		}
		time.Sleep(15 * time.Millisecond)
	}
}

// TestFleetChaosDroppedDuplicatedHeartbeats runs a worker whose every
// fleet call crosses a lossy, duplicating network. Dropped heartbeats
// must not expire a healthy lease (several beats fit in one TTL), and a
// duplicated complete must ack idempotently — the job finishes exactly
// once.
func TestFleetChaosDroppedDuplicatedHeartbeats(t *testing.T) {
	f := startFleet(t, server.Options{}, Options{
		LeaseTTL:       5 * time.Second,
		HeartbeatEvery: 30 * time.Millisecond,
	})
	in := faults.New(7, faults.Rates{})
	client := &http.Client{Transport: in.Transport(nil, faults.NetRates{Drop: 0.15, Dup: 0.15})}
	f.startWorker(WorkerOptions{ID: "lossy", Client: client})

	id := f.submit(testDeck, server.JobOptions{Seed: 1, MaxMoves: 3000})
	f.waitState(id, server.StateDone, 120*time.Second)

	if n := in.Count(faults.NetDrop) + in.Count(faults.NetDup); n == 0 {
		t.Error("no network faults fired — chaos rates not applied")
	}
	text := f.metricsText()
	if !strings.Contains(text, `oblxd_jobs_finished_total{state="done"} 1`) {
		t.Errorf("job must finish exactly once under loss; exposition:\n%s",
			grepMetrics(text, "oblxd_jobs_finished_total"))
	}
}

// TestFleetPartitionFencing walks the canonical partition story: a
// worker claims a job and goes silent (partitioned before its first
// heartbeat). The lease expires, the job is requeued and re-leased to a
// healthy worker. Then the partition heals and the stale worker tries
// to heartbeat and to commit a result with its old epoch — both must be
// rejected by fencing, and only the healthy worker's completion lands.
func TestFleetPartitionFencing(t *testing.T) {
	f := startFleet(t, server.Options{
		Retry: retry.Policy{Base: 10 * time.Millisecond, Multiplier: 1, MaxAttempts: 5},
	}, Options{
		LeaseTTL:       250 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
	})

	id := f.submit(testDeck, server.JobOptions{Seed: 1, MaxMoves: 8000})

	// The doomed claim: the worker partitions immediately after claiming.
	var cr ClaimResponse
	if code := fleetPost(t, f.ts.URL, "/v1/fleet/claim", ClaimRequest{Worker: "stale"}, &cr); code != http.StatusOK {
		t.Fatalf("claim: HTTP %d", code)
	}
	if cr.JobID != id {
		t.Fatalf("claimed %s, want %s", cr.JobID, id)
	}

	// Silence → lease expiry → requeue with one attempt burned.
	f.waitMetric("oblxd_lease_expirations_total 1", 30*time.Second)

	// A healthy worker picks the job back up.
	f.startWorker(WorkerOptions{ID: "healthy"})
	waitRunning := time.Now().Add(30 * time.Second)
	for f.status(id).State != server.StateRunning {
		if time.Now().After(waitRunning) {
			t.Fatalf("job not re-leased; state %s", f.status(id).State)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The partition heals: the stale worker's heartbeat and commit carry
	// a fenced epoch and must bounce off 409.
	hbCode := fleetPost(t, f.ts.URL, "/v1/fleet/jobs/"+id+"/heartbeat",
		HeartbeatRequest{Worker: "stale", Run: cr.Run, Epoch: cr.Epoch}, nil)
	if hbCode != http.StatusConflict {
		t.Errorf("stale heartbeat: HTTP %d, want 409", hbCode)
	}
	cmCode := fleetPost(t, f.ts.URL, "/v1/fleet/jobs/"+id+"/complete",
		CompleteRequest{Worker: "stale", Run: cr.Run, Epoch: cr.Epoch,
			Result: &server.JobResult{State: server.StateFailed, Error: "stale result, must never land"}},
		nil)
	if cmCode != http.StatusConflict {
		t.Errorf("stale complete: HTTP %d, want 409", cmCode)
	}

	// Only the healthy completion counts.
	f.waitState(id, server.StateDone, 120*time.Second)
	text := f.metricsText()
	if !strings.Contains(text, `oblxd_jobs_finished_total{state="done"} 1`) ||
		strings.Contains(text, `oblxd_jobs_finished_total{state="failed"}`) {
		t.Errorf("exactly-once violated; exposition:\n%s", grepMetrics(text, "oblxd_jobs_finished_total"))
	}
	if !strings.Contains(text, "oblxd_fenced_commits_total") || strings.Contains(text, "oblxd_fenced_commits_total 0\n") {
		t.Errorf("fenced commit not counted; exposition:\n%s", grepMetrics(text, "oblxd_fenced"))
	}
}

// TestFleetKillResume kills a worker mid-anneal (kill -9: total
// silence) after it shipped a checkpoint. The lease must expire, the
// job requeue, and a second worker resume from the shipped checkpoint
// rather than move zero — completing the job exactly once.
func TestFleetKillResume(t *testing.T) {
	f := startFleet(t, server.Options{
		StateDir:        t.TempDir(),
		CheckpointEvery: 200,
		Retry:           retry.Policy{Base: 10 * time.Millisecond, Multiplier: 1, MaxAttempts: 5},
	}, Options{
		LeaseTTL:       400 * time.Millisecond,
		HeartbeatEvery: 40 * time.Millisecond,
	})
	victim, _ := f.startWorker(WorkerOptions{ID: "victim", Dir: t.TempDir()})

	id := f.submit(testDeck, server.JobOptions{Seed: 1, MaxMoves: 60_000})

	// Wait until the coordinator holds a shipped checkpoint, then kill.
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

	// Death is discovered by lease expiry alone.
	f.waitMetric("oblxd_lease_expirations_total 1", 30*time.Second)

	var log lockedBuffer
	f.startWorker(WorkerOptions{ID: "rescuer", Dir: t.TempDir(), Logger: bufferLogger(&log)})
	f.waitState(id, server.StateDone, 300*time.Second)

	if !strings.Contains(log.String(), "resuming from shipped checkpoint") {
		t.Error("rescuer did not resume from the shipped checkpoint")
	}
	text := f.metricsText()
	if !strings.Contains(text, `oblxd_jobs_finished_total{state="done"} 1`) {
		t.Errorf("job must finish exactly once after kill; exposition:\n%s",
			grepMetrics(text, "oblxd_jobs_finished_total"))
	}
}

// TestFleetCoordinatorRestartFencing restarts the coordinator over the
// same state directory while a worker holds a lease. The persisted
// fencing epoch must make every post-restart lease strictly newer: the
// pre-restart worker's late commit is rejected, the job is re-leased
// and completed exactly once, and a duplicated delivery of the winning
// commit acks idempotently.
func TestFleetCoordinatorRestartFencing(t *testing.T) {
	dir := t.TempDir()
	mgrOpt := server.Options{
		StateDir:     dir,
		ExternalExec: true,
		Registry:     nil, // fresh per incarnation
		Logger:       testLogger(t),
	}
	fOpt := Options{LeaseTTL: 30 * time.Second, HeartbeatEvery: time.Second, StateDir: dir}

	mgr1, err := server.New(mgrOpt)
	if err != nil {
		t.Fatal(err)
	}
	coord1 := NewCoordinator(mgr1, fOpt)
	ts1 := serveFleet(coord1)

	f1 := &testFleet{t: t, mgr: mgr1, coord: coord1, ts: ts1}
	id := f1.submit(testDeck, server.JobOptions{Seed: 1, MaxMoves: 1000})

	var cr1 ClaimResponse
	if code := fleetPost(t, ts1.URL, "/v1/fleet/claim", ClaimRequest{Worker: "before"}, &cr1); code != http.StatusOK {
		t.Fatalf("claim: HTTP %d", code)
	}

	// Coordinator and store go down mid-lease.
	ts1.Close()
	coord1.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	mgr1.Shutdown(ctx)
	cancel()

	// Second incarnation over the same state directory: the job record
	// is recovered and requeued, the epoch high-water mark reloaded.
	mgr2, err := server.New(mgrOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr2.Shutdown(ctx)
	})
	coord2 := NewCoordinator(mgr2, fOpt)
	t.Cleanup(coord2.Stop)
	ts2 := serveFleet(coord2)
	t.Cleanup(ts2.Close)
	f2 := &testFleet{t: t, mgr: mgr2, coord: coord2, ts: ts2}

	var cr2 ClaimResponse
	if code := fleetPost(t, ts2.URL, "/v1/fleet/claim", ClaimRequest{Worker: "after"}, &cr2); code != http.StatusOK {
		t.Fatalf("re-claim: HTTP %d (job not recovered?)", code)
	}
	if cr2.JobID != id {
		t.Fatalf("re-claimed %s, want %s", cr2.JobID, id)
	}
	if cr2.Epoch <= cr1.Epoch {
		t.Fatalf("post-restart epoch %d does not outfence pre-restart epoch %d", cr2.Epoch, cr1.Epoch)
	}

	// The pre-restart worker finally reports in: fenced.
	code := fleetPost(t, ts2.URL, "/v1/fleet/jobs/"+id+"/complete",
		CompleteRequest{Worker: "before", Run: cr1.Run, Epoch: cr1.Epoch,
			Result: &server.JobResult{State: server.StateFailed, Error: "pre-restart result"}}, nil)
	if code != http.StatusConflict {
		t.Fatalf("pre-restart commit: HTTP %d, want 409", code)
	}

	// The new leaseholder commits; a duplicated delivery acks.
	win := &server.JobResult{State: server.StateDone}
	for i := 0; i < 2; i++ {
		code = fleetPost(t, ts2.URL, "/v1/fleet/jobs/"+id+"/complete",
			CompleteRequest{Worker: "after", Run: cr2.Run, Epoch: cr2.Epoch, Result: win}, nil)
		if code != http.StatusOK {
			t.Fatalf("commit delivery %d: HTTP %d, want 200", i+1, code)
		}
	}

	if st := f2.status(id); st.State != server.StateDone {
		t.Fatalf("job state %s, want done", st.State)
	}
	text := f2.metricsText()
	if !strings.Contains(text, `oblxd_jobs_finished_total{state="done"} 1`) {
		t.Errorf("exactly-once across restart violated; exposition:\n%s",
			grepMetrics(text, "oblxd_jobs_finished_total"))
	}
	if !strings.Contains(text, "oblxd_fenced_commits_total 1") {
		t.Errorf("fenced commit not counted; exposition:\n%s", grepMetrics(text, "oblxd_fenced"))
	}
}

// TestFleetStallRequeuedThenPoisoned swaps the worker's synthesis for a
// run that ticks progress once and then hangs. Heartbeats keep flowing
// — the worker is alive — but the eval watermark freezes, so the
// coordinator must revoke the lease as stalled, requeue with backoff,
// and poison the job when attempts run out, with the stall causes in
// its persisted history.
func TestFleetStallRequeuedThenPoisoned(t *testing.T) {
	orig := workerSynth
	defer func() { workerSynth = orig }()
	workerSynth = func(ctx context.Context, deck *netlist.Deck, opt oblx.Options) (*oblx.Result, error) {
		if opt.Progress != nil {
			opt.Progress(oblx.ProgressEvent{Move: 1, MaxMoves: opt.MaxMoves, Evals: 50, BestCost: 1})
		}
		<-ctx.Done() // heartbeats continue, evals never advance
		return nil, ctx.Err()
	}

	f := startFleet(t, server.Options{
		Retry: retry.Policy{Base: 10 * time.Millisecond, Multiplier: 1, MaxAttempts: 2},
	}, Options{
		LeaseTTL:       2 * time.Second,
		HeartbeatEvery: 25 * time.Millisecond,
		StallTimeout:   100 * time.Millisecond,
	})
	f.startWorker(WorkerOptions{ID: "stuck"})

	id := f.submit(testDeck, server.JobOptions{Seed: 1, MaxMoves: 1000})
	st := f.waitState(id, server.StatePoisoned, 60*time.Second)
	if !strings.Contains(st.Error, "stalled") {
		t.Errorf("poison cause %q, want a stall", st.Error)
	}

	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr server.JobResult
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.History) == 0 {
		t.Error("poisoned job has no failure history")
	}
	text := f.metricsText()
	if !strings.Contains(text, "oblxd_stalls_total 2") {
		t.Errorf("stall supervision fired %s, want 2 stalls",
			grepMetrics(text, "oblxd_stalls_total"))
	}
}
