package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"time"

	"astrx/internal/metrics"
	"astrx/internal/oblx"
	"astrx/internal/rescache"
	"astrx/internal/server"
	"astrx/internal/telemetry"
)

// serveConfig is an open-loop serving workload: seeded Poisson arrivals
// against an in-process oblxd over loopback HTTP, half of them new
// synthesis jobs and half resubmissions of finished ones.
type serveConfig struct {
	// decks are the miss corpus: new job k runs decks[k%len(decks)] at
	// anneal seed k/len(decks)+1. Like the synthesis corpus it is fixed;
	// the benchmark seed draws the arrival times, the order of the new
	// jobs, and which finished job each resubmission repeats.
	decks   []deckSpec
	moves   int     // per new job, with the default freezing criterion
	rate    float64 // submissions per second
	warmup  int     // new jobs run to completion before the window opens
	workers int
	// pollEvery is the poller's sweep interval over unfinished jobs.
	pollEvery time.Duration
	// drainTimeout bounds the wait for the last jobs after the window.
	drainTimeout time.Duration
}

// arrival is one scheduled submission.
type arrival struct {
	at   time.Duration // offset from the window start
	hit  bool          // resubmission of a finished job
	miss int           // new jobs: index into the miss corpus
	pick float64       // resubmissions: position in the finished list, in [0, 1)
}

// schedule draws the window's arrivals: round(rate × window) of them,
// which makes their times a Poisson process conditioned on its count
// (independent uniform times, sorted), exactly half of them new jobs.
func schedule(seed int64, rate float64, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(rate * window.Seconds()))
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	kinds := rng.Perm(n) // the first n/2 slots of the permutation are hits
	missOrder := rng.Perm(n - n/2)
	out := make([]arrival, n)
	next := 0
	for i := range out {
		out[i].at = at[i]
		if kinds[i] < n/2 {
			out[i].hit = true
			out[i].pick = rng.Float64()
		} else {
			out[i].miss = missOrder[next]
			next++
		}
	}
	return out
}

// submitRequest is the JSON body of POST /v1/jobs.
type submitRequest struct {
	Deck    string            `json:"deck"`
	Options server.JobOptions `json:"options"`
}

// jobRec tracks one submission from its due time to its fetched result.
type jobRec struct {
	req        submitRequest
	warm       bool
	orig       *jobRec // resubmissions: the finished job repeated
	due        time.Time
	sent       time.Time
	acked      time.Time
	id         string
	status     server.Status
	result     server.JobResult
	observed   time.Time // when the poller saw the job terminal
	fetchStart time.Time
	fetchEnd   time.Time
}

// tracker is the state the generator and the poller share.
type tracker struct {
	mu          sync.Mutex
	outstanding []*jobRec
	finished    []*jobRec // new jobs seen terminal: what resubmissions repeat
	all         []*jobRec
	errors      int // failed HTTP exchanges (transport errors and unexpected codes)
	changed     chan struct{}
}

func (t *tracker) add(r *jobRec) {
	t.mu.Lock()
	t.outstanding = append(t.outstanding, r)
	t.all = append(t.all, r)
	t.mu.Unlock()
}

func (t *tracker) pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.outstanding)
}

func (t *tracker) errored() {
	t.mu.Lock()
	t.errors++
	t.mu.Unlock()
}

// waitIdle blocks until no submission is outstanding or the deadline
// passes, and reports whether everything finished.
func (t *tracker) waitIdle(deadline time.Time) bool {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for t.pending() > 0 {
		select {
		case <-t.changed:
		case <-timer.C:
			return t.pending() == 0
		}
	}
	return true
}

// client is one keep-alive connection to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON reply into out, failing on any
// status not in want.
func (c *client) do(method, path string, body []byte, out any, want ...int) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if !slices.Contains(want, resp.StatusCode) {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// daemon is an in-process oblxd: manager, result cache and HTTP server.
type daemon struct {
	dir    string
	reg    *metrics.Registry
	mgr    *server.Manager
	srv    *http.Server
	served chan struct{}
	base   string
}

// startDaemon opens a result cache and a manager over a fresh state
// directory under workDir, serves its API on a loopback port, and makes
// one round trip to it.
func startDaemon(workDir string, workers, sampleEvery int) (*daemon, error) {
	dir, err := os.MkdirTemp(workDir, "state-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, reg: metrics.New(), served: make(chan struct{})}
	cache, err := rescache.New(rescache.Options{Mode: rescache.RW, Dir: filepath.Join(dir, "rescache"), Registry: d.reg})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.mgr, err = server.New(server.Options{
		StateDir: dir, Workers: workers, Registry: d.reg, Cache: cache, TelemetrySampleEvery: sampleEvery,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.mgr.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: d.mgr.Handler()}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln)
	}()
	c := newClient(d.base)
	defer c.close()
	if err := c.do("GET", "/healthz", nil, nil, http.StatusOK); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop closes the HTTP server, drains the manager and removes the state
// directory, returning once the serving goroutine has exited.
func (d *daemon) stop() {
	d.srv.Close()
	<-d.served
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.mgr.Shutdown(ctx)
	os.RemoveAll(d.dir)
}

func terminalState(s server.State) bool {
	return s == server.StateDone || s == server.StateFailed || s == server.StateCancelled || s == server.StatePoisoned
}

// poll sweeps the outstanding submissions every interval until stop is
// closed: a job seen terminal gets its result fetched and moves to the
// finished list.
func poll(c *client, t *tracker, every time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		t.mu.Lock()
		out := append([]*jobRec(nil), t.outstanding...)
		t.mu.Unlock()
		for _, r := range out {
			var st server.Status
			if err := c.do("GET", "/v1/jobs/"+r.id, nil, &st, http.StatusOK); err != nil {
				t.errored()
				continue
			}
			if !terminalState(st.State) {
				continue
			}
			r.status = st
			r.observed = time.Now()
			r.fetchStart = r.observed
			if err := c.do("GET", "/v1/jobs/"+r.id+"/result", nil, &r.result, http.StatusOK); err != nil {
				t.errored()
				continue
			}
			r.fetchEnd = time.Now()
			t.mu.Lock()
			for i, o := range t.outstanding {
				if o == r {
					t.outstanding = append(t.outstanding[:i], t.outstanding[i+1:]...)
					break
				}
			}
			if r.orig == nil {
				t.finished = append(t.finished, r)
			}
			t.mu.Unlock()
			select {
			case t.changed <- struct{}{}:
			default:
			}
		}
	}
}

// missRequest is new job k of the corpus; warm-up jobs use seeds past
// any the window reaches.
func missRequest(cfg serveConfig, k int, warm bool) submitRequest {
	seed := int64(k/len(cfg.decks) + 1)
	if warm {
		seed += 1_000_000
	}
	return submitRequest{
		Deck:    cfg.decks[k%len(cfg.decks)].src,
		Options: server.JobOptions{Seed: seed, MaxMoves: cfg.moves},
	}
}

// submit posts one request; a cache hit answers 200, a queued job 202.
func submit(c *client, r *jobRec) error {
	body, err := json.Marshal(r.req)
	if err != nil {
		return err
	}
	var st server.Status
	r.sent = time.Now()
	err = c.do("POST", "/v1/jobs", body, &st, http.StatusOK, http.StatusAccepted)
	r.acked = time.Now()
	r.id = st.ID
	return err
}

// runServe measures the serving workload: set-up, warm-up, the open-loop
// window, and the drain of the jobs still running when it closes.
func runServe(ctx context.Context, cfg serveConfig, env runEnv) (*measurement, error) {
	m := newMeasurement()
	sampleEvery := 0 // the daemon's default stage sampling
	if env.traced {
		sampleEvery = 1
	}
	var setups []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		time.Sleep(env.setupGap)
		t0 := time.Now()
		dd, err := startDaemon(env.workDir, cfg.workers, sampleEvery)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	defer d.stop()
	m.set("setup_s", percentile(setups, 50))
	m.note("setup_s", "median of %d", setupReps)

	t := &tracker{changed: make(chan struct{}, 1)}
	sub, pol := newClient(d.base), newClient(d.base)
	defer sub.close()
	defer pol.close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		poll(pol, t, cfg.pollEvery, stop)
	}()
	stopPoller := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopPoller()

	for w := 0; w < cfg.warmup; w++ {
		r := &jobRec{req: missRequest(cfg, w, true), warm: true}
		r.due = time.Now()
		if err := submit(sub, r); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		t.add(r)
	}
	if !t.waitIdle(time.Now().Add(cfg.drainTimeout)) {
		return nil, fmt.Errorf("warm-up jobs did not finish within %s", cfg.drainTimeout)
	}
	t.mu.Lock()
	warm := append([]*jobRec(nil), t.finished...)
	t.mu.Unlock()
	for _, r := range warm {
		if err := checkJob(r); err != nil {
			return nil, fmt.Errorf("warm-up job %s: %w", r.id, err)
		}
	}

	sched := schedule(env.seed, cfg.rate, env.window)
	rt0 := readRuntime()
	start := time.Now()
	for _, a := range sched {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		r := &jobRec{due: start.Add(a.at)}
		if a.hit {
			t.mu.Lock()
			r.orig = t.finished[int(a.pick*float64(len(t.finished)))]
			t.mu.Unlock()
			r.req = r.orig.req
		} else {
			r.req = missRequest(cfg, a.miss, false)
		}
		time.Sleep(time.Until(r.due))
		m.attempted++
		if err := submit(sub, r); err != nil {
			t.errored()
			m.fail("submit: %v", err)
			continue
		}
		t.add(r)
	}
	if !t.waitIdle(time.Now().Add(cfg.drainTimeout)) {
		m.fail("%d jobs still unfinished %s after the window", t.pending(), cfg.drainTimeout)
	}
	rt1 := readRuntime()
	stopPoller() // the records below are no longer written

	t.mu.Lock()
	defer t.mu.Unlock()
	var (
		missLat, hitLat, submits, fetches, waits, execs, lates, anneals, costs []float64
		results                                                                []runCounts
		evals, annealSecs, worst                                               float64
		met, total, resubmits, hits, completed                                 int
	)
	lastFinish := start
	for _, r := range t.all {
		if r.warm {
			continue
		}
		submits = append(submits, ms(r.acked.Sub(r.sent)))
		lates = append(lates, ms(r.sent.Sub(r.due)))
		if r.orig != nil {
			resubmits++
		}
		if r.fetchEnd.IsZero() {
			continue // unfinished: already failed above
		}
		fetches = append(fetches, ms(r.fetchEnd.Sub(r.fetchStart)))
		if err := checkJob(r); err != nil {
			m.fail("job %s: %v", r.id, err)
			continue
		}
		fin := *r.status.Finished
		completed++
		if fin.After(lastFinish) {
			lastFinish = fin
		}
		lat := fin.Sub(r.due)
		if r.status.CacheHit {
			hits++
			hitLat = append(hitLat, ms(lat))
			continue
		}
		if r.orig != nil {
			continue // a resubmission that missed the cache: neither a hit nor a new job
		}
		missLat = append(missLat, lat.Seconds())
		waits = append(waits, ms(r.status.Started.Sub(r.status.Created)))
		execs = append(execs, r.status.Finished.Sub(*r.status.Started).Seconds())
		rv, vs := r.result.Result, r.result.Verify
		anneals = append(anneals, float64(rv.DurationNS)/1e9)
		costs = append(costs, rv.Cost.Total)
		evals += float64(rv.EvalCount)
		annealSecs += float64(rv.DurationNS) / 1e9
		results = append(results, runCounts{rv.Moves, rv.EvalCount, rv.Accepted, rv.MoveStats, rv.Failures, rv.Degraded})
		worst = math.Max(worst, vs.WorstRelErr)
		for _, s := range vs.Specs {
			if !s.Objective {
				total++
				if s.Met {
					met++
				}
			}
		}
	}

	m.setTiming("run_s_p50", "job_s_p90", missLat)
	m.set("evals_per_cpu_s", ratio(evals, rt1.processCPU-rt0.processCPU))
	// Completions per second from the window's start to the last
	// completion: below the offered rate when a backlog drains late.
	drain := lastFinish.Sub(start)
	m.set("jobs_per_s", ratio(float64(completed), drain.Seconds()))
	m.note("jobs_per_s", "%d jobs in %.2f s, offered %.1f/s", completed, drain.Seconds(), cfg.rate)
	m.set("specs_met_frac", ratio(float64(met), float64(total)))
	m.note("specs_met_frac", "%d/%d", met, total)
	m.setTiming("final_cost_p50", "", costs)
	m.set("worst_rel_err", worst)

	m.setTiming("hit_ms_p50", "hit_ms_p90", hitLat)
	m.setTiming("server.submit_ms_p50", "server.submit_ms_p90", submits)
	m.setTiming("server.result_ms_p50", "", fetches)
	m.setTiming("server.queue_wait_ms_p50", "server.queue_wait_ms_p90", waits)
	m.setTiming("server.exec_s_p50", "", execs)
	m.setTiming("oblx.anneal_s_p50", "", anneals)
	m.set("server.shed", float64(d.reg.Counter("oblxd_shed_total").Value()))
	m.set("server.errors", float64(t.errors))
	m.set("rescache.hit_frac", ratio(float64(hits), float64(resubmits)))
	m.note("rescache.hit_frac", "%d/%d", hits, resubmits)
	m.set("harness.late_ms_p90", percentile(lates, 90))
	m.set("harness.late_ms_max", percentile(lates, 100))
	annealStats(m, results)
	if n := len(results); n > 0 {
		m.set("runtime.alloc_mb_per_run", float64(rt1.allocBytes-rt0.allocBytes)/1e6/float64(n))
	}
	m.set("runtime.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	if env.traced {
		stageStats(m, daemonStages(d.reg), evals, annealSecs)
		for _, r := range t.all {
			if !r.warm && !r.fetchEnd.IsZero() {
				traceJob(env.spans, r)
			}
		}
	}
	return m, nil
}

// checkJob checks one finished submission: it reached done with a
// verified result whose spec values are finite, and a cache hit returns
// the original job's result apart from its ID. A resubmission the cache
// missed re-ran the same deterministic synthesis, so it must match too,
// apart from its wall-clock fields.
func checkJob(r *jobRec) error {
	res := r.result
	switch {
	case r.status.State != server.StateDone:
		return fmt.Errorf("state %s: %s", r.status.State, r.status.Error)
	case r.status.Finished == nil:
		return fmt.Errorf("done without a finish time")
	case res.Result == nil || res.Verify == nil:
		return fmt.Errorf("no verified result (verify error %q)", res.VerifyError)
	case !r.status.CacheHit && r.status.Started == nil:
		return fmt.Errorf("ran without a start time")
	}
	for _, s := range res.Verify.Specs {
		if !finite(s.Predicted) || !finite(s.Simulated) {
			return fmt.Errorf("spec %s: predicted %g, simulated %g", s.Name, s.Predicted, s.Simulated)
		}
	}
	if r.orig == nil {
		return nil
	}
	got, want := res, r.orig.result
	got.ID, want.ID = "", ""
	if !r.status.CacheHit {
		got.Result, want.Result = wallFree(got.Result), wallFree(want.Result)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("resubmission of %s returned a different result", r.orig.id)
	}
	return nil
}

// wallFree copies a result view without its wall-clock fields.
func wallFree(v *oblx.ResultView) *oblx.ResultView {
	c := *v
	c.DurationNS, c.TimePerEvalNS, c.EvalsPerSec = 0, 0, 0
	return &c
}

// daemonStages reads the daemon's sampled per-stage eval histograms.
func daemonStages(reg *metrics.Registry) []telemetry.StageBreakdown {
	var out []telemetry.StageBreakdown
	for _, s := range telemetry.StageNames() {
		h := reg.Histogram("oblxd_eval_stage_seconds", telemetry.StageBuckets, "stage", s)
		if n := h.Count(); n > 0 {
			out = append(out, telemetry.StageBreakdown{
				Stage: s, SampledEvals: int64(n), TotalSeconds: h.Sum(), MeanSeconds: h.Sum() / float64(n),
			})
		}
	}
	return out
}

// traceJob records one job's spans: the root covers its due time to its
// fetched result; the queue and execution spans come from the server's
// own timestamps. The client waits on its submit call until the reply
// arrives, so server spans start no earlier than that reply, even when
// a worker picked the job up first: the spans then tile the root.
func traceJob(spans *spanLog, r *jobRec) {
	tid := spans.newTrace()
	root := spans.add(tid, "", "job", r.due, r.fetchEnd)
	spans.add(tid, root, "harness.late", r.due, r.sent)
	spans.add(tid, root, "server.submit", r.sent, r.acked)
	afterReply := func(t time.Time) time.Time {
		if t.Before(r.acked) {
			return r.acked
		}
		return t
	}
	st := r.status
	if st.Started != nil {
		spans.add(tid, root, "server.queue", afterReply(st.Created), afterReply(*st.Started))
		spans.add(tid, root, "server.exec", afterReply(*st.Started), afterReply(*st.Finished))
	}
	spans.add(tid, root, "harness.poll", afterReply(*st.Finished), r.observed)
	spans.add(tid, root, "server.result", r.fetchStart, r.fetchEnd)
}
