package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"astrx/internal/metrics"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/server"

	"log/slog"
)

// testDeck is the same relaxed Simple OTA problem the server tests use:
// the paper's Table 2 topology with spec anchors loose enough that a few
// thousand moves finish (and usually succeed). Fleet tests need runs
// measured in fractions of a second, not the paper's overnight budgets.
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

// tWriter adapts t.Logf to io.Writer; writes after test completion are
// dropped (late goroutines may still log).
type tWriter struct{ t *testing.T }

func (w tWriter) Write(p []byte) (int, error) {
	defer func() { recover() }()
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(tWriter{t: t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// lockedBuffer is a concurrency-safe log sink tests can grep.
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

// bufferLogger returns a debug logger writing into a greppable buffer.
func bufferLogger(buf *lockedBuffer) *slog.Logger {
	return slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// serveFleet mounts a coordinator's handler on a test HTTP server.
func serveFleet(c *Coordinator) *httptest.Server {
	return httptest.NewServer(c.Handler())
}

// testFleet is one coordinator (manager + HTTP server) under test.
type testFleet struct {
	t     *testing.T
	mgr   *server.Manager
	coord *Coordinator
	ts    *httptest.Server
}

// startFleet builds an external-exec manager, a coordinator on top, and
// an HTTP server exposing both APIs. Cleanup runs in reverse order:
// server, coordinator, manager.
func startFleet(t *testing.T, mgrOpt server.Options, fOpt Options) *testFleet {
	t.Helper()
	mgrOpt.ExternalExec = true
	if mgrOpt.ProgressEvery == 0 {
		mgrOpt.ProgressEvery = 200
	}
	if mgrOpt.Registry == nil {
		mgrOpt.Registry = metrics.New()
	}
	if mgrOpt.Logger == nil {
		mgrOpt.Logger = testLogger(t)
	}
	mgr, err := server.New(mgrOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	if fOpt.Logger == nil {
		fOpt.Logger = testLogger(t)
	}
	coord := NewCoordinator(mgr, fOpt)
	t.Cleanup(coord.Stop)
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)
	return &testFleet{t: t, mgr: mgr, coord: coord, ts: ts}
}

// startWorker runs a fleet worker against the coordinator; the returned
// stop function drains it gracefully and waits for exit.
func (f *testFleet) startWorker(opt WorkerOptions) (*Worker, func()) {
	f.t.Helper()
	opt.Coordinator = f.ts.URL
	if opt.Poll <= 0 {
		opt.Poll = 20 * time.Millisecond
	}
	if opt.Logger == nil {
		opt.Logger = testLogger(f.t)
	}
	w := NewWorker(opt)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				f.t.Error("worker did not stop")
			}
		})
	}
	f.t.Cleanup(stop)
	return w, stop
}

// submit posts a deck through the client API and returns the job ID.
func (f *testFleet) submit(deck string, opt server.JobOptions) string {
	f.t.Helper()
	body, _ := json.Marshal(map[string]any{"deck": deck, "options": opt})
	resp, err := http.Post(f.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
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

// status fetches the job's current status.
func (f *testFleet) status(id string) server.Status {
	f.t.Helper()
	resp, err := http.Get(f.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		f.t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want, failing fast when it
// lands in a different terminal state.
func (f *testFleet) waitState(id string, want server.State, timeout time.Duration) server.Status {
	f.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := f.status(id)
		if st.State == want {
			return st
		}
		if st.State == server.StateDone || st.State == server.StateFailed ||
			st.State == server.StateCancelled || st.State == server.StatePoisoned {
			f.t.Fatalf("job %s reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("job %s stuck in %s after %s, want %s", id, st.State, timeout, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// metricsText fetches the Prometheus exposition.
func (f *testFleet) metricsText() string {
	f.t.Helper()
	resp, err := http.Get(f.ts.URL + "/debug/metrics")
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// healthz fetches and parses /healthz.
func (f *testFleet) healthz() server.Health {
	f.t.Helper()
	resp, err := http.Get(f.ts.URL + "/healthz")
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	var h server.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		f.t.Fatal(err)
	}
	return h
}

// fastFleetOptions are lease timings tuned for single-CPU race-detector
// test runs: heartbeats fast enough to observe, TTLs generous enough
// that a healthy worker never expires by accident.
func fastFleetOptions() Options {
	return Options{
		LeaseTTL:       3 * time.Second,
		HeartbeatEvery: 50 * time.Millisecond,
	}
}

// TestFleetRunUsesDaemonProgressCadence: a fleet run streams progress
// at the cadence a local run of the same job would — the manager's
// ProgressEvery for a job that sets none, the job's own otherwise —
// because the coordinator launches from the manager's LaunchOptions.
func TestFleetRunUsesDaemonProgressCadence(t *testing.T) {
	got := make(chan int, 2)
	orig := workerSynth
	defer func() { workerSynth = orig }()
	workerSynth = func(ctx context.Context, deck *netlist.Deck, opt oblx.Options) (*oblx.Result, error) {
		got <- opt.ProgressEvery
		return orig(ctx, deck, opt)
	}

	f := startFleet(t, server.Options{ProgressEvery: 50}, fastFleetOptions())
	f.startWorker(WorkerOptions{ID: "w1"})
	for _, tc := range []struct{ job, want int }{{0, 50}, {70, 70}} {
		id := f.submit(testDeck, server.JobOptions{Seed: 1, MaxMoves: 1000, ProgressEvery: tc.job})
		select {
		case every := <-got:
			if every != tc.want {
				t.Errorf("job progress_every %d: the worker's run got %d, want %d", tc.job, every, tc.want)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("no run launched")
		}
		f.waitState(id, server.StateDone, 120*time.Second)
	}
}

// TestFleetLifecycle runs one job through a real coordinator + worker
// pair over HTTP: claim, heartbeats with progress, completion — then
// checks the operational surfaces (healthz fleet section, metrics).
func TestFleetLifecycle(t *testing.T) {
	f := startFleet(t, server.Options{StateDir: t.TempDir(), CheckpointEvery: 500}, fastFleetOptions())
	f.startWorker(WorkerOptions{ID: "w1", Dir: t.TempDir()})

	id := f.submit(testDeck, server.JobOptions{Seed: 1, MaxMoves: 3000})
	st := f.waitState(id, server.StateDone, 120*time.Second)
	if st.BestCost == nil {
		t.Error("no best cost recorded — progress events did not flow through heartbeats")
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
	if jr.State != server.StateDone || jr.Result == nil {
		t.Fatalf("result: state %s, view nil=%v", jr.State, jr.Result == nil)
	}

	h := f.healthz()
	if h.Fleet == nil {
		t.Fatal("healthz: no fleet section in coordinator mode")
	}
	if h.Fleet.Workers != 1 || h.Fleet.WorkersByState[WorkerAlive] != 1 {
		t.Errorf("healthz fleet: %+v, want 1 alive worker", h.Fleet)
	}
	if h.Fleet.QueueDepth != 0 {
		t.Errorf("healthz fleet queue_depth = %d, want 0", h.Fleet.QueueDepth)
	}

	text := f.metricsText()
	for _, want := range []string{
		`oblxd_workers{state="alive"} 1`,
		`oblxd_heartbeats_total{outcome="ok"}`,
		`oblxd_jobs_finished_total{state="done"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestFleetWorkerForwardsCorners: a fleet worker anneals over exactly
// the corners the job selected — none for an explicit empty list, the
// named ones (plus nominal) otherwise — not every corner the deck
// declares.
func TestFleetWorkerForwardsCorners(t *testing.T) {
	deck := testDeck + "\n.corner slow vdd=2.4\n.corner fast vdd=2.6\n"
	f := startFleet(t, server.Options{CheckpointEvery: 500}, fastFleetOptions())
	f.startWorker(WorkerOptions{ID: "w1"})
	for _, c := range []struct {
		corners []string
		want    []string
	}{
		{[]string{}, nil},
		{[]string{"slow"}, []string{"nominal", "slow"}},
	} {
		id := f.submit(deck, server.JobOptions{Seed: 1, MaxMoves: 600, Corners: c.corners})
		f.waitState(id, server.StateDone, 120*time.Second)
		resp, err := http.Get(f.ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var jr server.JobResult
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if jr.Result == nil {
			t.Fatalf("corners %q: no result view", c.corners)
		}
		var got []string
		for _, cr := range jr.Result.Corners {
			got = append(got, cr.Name)
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("corners %q: result lanes %q, want %q", c.corners, got, c.want)
		}
	}
}

// TestFleetMultiRunFanOut checks that a Runs=3 job fans out as per-run
// leases across two workers and commits exactly one final result.
func TestFleetMultiRunFanOut(t *testing.T) {
	f := startFleet(t, server.Options{CheckpointEvery: 500}, fastFleetOptions())
	f.startWorker(WorkerOptions{ID: "w1"})
	f.startWorker(WorkerOptions{ID: "w2"})

	id := f.submit(testDeck, server.JobOptions{Seed: 1, MaxMoves: 2000, Runs: 3})
	f.waitState(id, server.StateDone, 180*time.Second)

	text := f.metricsText()
	if !strings.Contains(text, `oblxd_jobs_finished_total{state="done"} 1`) {
		t.Errorf("multi-run job must finish exactly once; metrics:\n%s", grepMetrics(text, "oblxd_jobs_finished_total"))
	}
	f.coord.mu.Lock()
	nMultis, nLeases := len(f.coord.multis), len(f.coord.leases)
	f.coord.mu.Unlock()
	if nMultis != 0 || nLeases != 0 {
		t.Errorf("leaked fan-out state: %d multis, %d leases", nMultis, nLeases)
	}
}

// TestFinalizeMultiPicksRunBestWinner: a fanned-out job commits the run
// oblx.RunBest would keep — a done run beats a failed one, then
// oblx.Beats (dc-solved first, then lower cost) — and a tie keeps the
// lower run index, as RunBest's scan in run order does.
func TestFinalizeMultiPicksRunBestWinner(t *testing.T) {
	done := func(id string, solved bool, cost float64) *server.JobResult {
		return &server.JobResult{ID: id, State: server.StateDone,
			Result: &oblx.ResultView{DCSolved: solved, Cost: oblx.CostView{Total: cost}}}
	}
	failed := &server.JobResult{ID: "failed", State: server.StateFailed}
	for _, tc := range []struct {
		results []*server.JobResult
		want    string
	}{
		{[]*server.JobResult{failed, done("cheap", false, 1), done("solved", true, 5)}, "solved"},
		{[]*server.JobResult{done("unsolved", false, 1), failed}, "unsolved"},
		{[]*server.JobResult{done("r0", true, 3), done("r1", true, 2), done("r2", true, 2)}, "r1"},
		{[]*server.JobResult{failed, failed}, "failed"},
	} {
		for range 20 { // a map-ordered scan would pick ties at random
			mj := &multiJob{job: &server.Job{ID: "j"}, runs: len(tc.results),
				results: make(map[int]*server.JobResult)}
			for i, r := range tc.results {
				mj.results[i] = r
			}
			c := &Coordinator{multis: map[string]*multiJob{"j": mj}}
			if got := c.finalizeMultiLocked(mj); got == nil || got.ID != tc.want {
				t.Fatalf("winner of %d runs = %+v, want %s", len(tc.results), got, tc.want)
			}
			if len(c.multis) != 0 {
				t.Fatal("finalized fan-out record not removed")
			}
		}
	}
}

// TestWorkerRegistryLiveness drives the liveness classification off
// synthetic last-seen times.
func TestWorkerRegistryLiveness(t *testing.T) {
	f := startFleet(t, server.Options{}, Options{LeaseTTL: time.Second, HeartbeatEvery: 100 * time.Millisecond})
	c := f.coord

	c.noteWorker("fresh")
	now := time.Now()
	c.mu.Lock()
	c.workers["lagging"] = &workerInfo{lastSeen: now.Add(-500 * time.Millisecond)} // past 3× heartbeat
	c.workers["gone"] = &workerInfo{lastSeen: now.Add(-2 * time.Second)}           // past the TTL
	c.mu.Unlock()

	total, by := c.workerBreakdown()
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
	for state, want := range map[string]int{WorkerAlive: 1, WorkerSuspect: 1, WorkerDead: 1} {
		if by[state] != want {
			t.Errorf("breakdown[%s] = %d, want %d (all: %v)", state, by[state], want, by)
		}
	}

	h := f.healthz()
	if h.Fleet == nil || h.Fleet.Workers != 3 {
		t.Errorf("healthz fleet = %+v, want 3 workers", h.Fleet)
	}
}

// TestFleetQueueDepthInHealth checks queue_depth surfaces jobs waiting
// for a claim (no worker is running in this test).
func TestFleetQueueDepthInHealth(t *testing.T) {
	f := startFleet(t, server.Options{CheckpointEvery: 500}, fastFleetOptions())
	f.submit(testDeck, server.JobOptions{Seed: 1, MaxMoves: 1000})
	f.submit(testDeck, server.JobOptions{Seed: 2, MaxMoves: 1000})

	if h := f.healthz(); h.Fleet == nil || h.Fleet.QueueDepth != 2 {
		t.Errorf("healthz fleet = %+v, want queue_depth 2", h.Fleet)
	}
}

// grepMetrics filters an exposition to lines mentioning name.
func grepMetrics(text, name string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
