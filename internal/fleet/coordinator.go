package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"astrx/internal/durable"
	"astrx/internal/metrics"
	"astrx/internal/oblx"
	"astrx/internal/retry"
	"astrx/internal/server"
	"astrx/internal/telemetry"

	"log/slog"
)

// Options configures a Coordinator.
type Options struct {
	// LeaseTTL is how long a lease survives without a heartbeat before
	// the worker is declared dead and the run is re-leased (0 → 15s).
	LeaseTTL time.Duration
	// HeartbeatEvery is the cadence workers are told to beat at
	// (0 → LeaseTTL/3). Several heartbeats fit in one TTL, so isolated
	// drops don't expire a healthy worker's lease.
	HeartbeatEvery time.Duration
	// StallTimeout declares a run stalled when heartbeats keep arriving
	// but the eval counter stops advancing for this long; the lease is
	// revoked and the job requeued, burning a supervised attempt.
	// 0 → stall supervision off (death supervision stays on).
	StallTimeout time.Duration
	// Retry paces the re-lease backoff of multi-start runs and bounds
	// their attempts. Zero value → the manager's own policy (whole jobs
	// always use the manager's policy via RequeueExternal).
	Retry retry.Policy
	// StateDir persists the fencing-epoch high-water mark so leases
	// granted after a coordinator restart outfence everything granted
	// before it. Point it at the manager's state directory. Empty is
	// safe only because an in-memory manager forgets its jobs on
	// restart anyway: stale-epoch messages then fail the lease lookup
	// instead of the fence.
	StateDir string
	// FS is the filesystem under epoch persistence (nil → the real
	// one). Chaos tests substitute a fault-injecting wrapper.
	FS durable.FS
	// Logger receives structured fleet logs (nil → discarded).
	Logger *slog.Logger
}

// Coordinator owns the lease table, the worker registry, and the fleet
// half of the HTTP API. It drives a server.Manager built with
// Options.ExternalExec: the manager still owns jobs, durability, and
// client-facing endpoints; the coordinator decides who runs what and
// when a run is declared dead, stalled, or finished.
type Coordinator struct {
	mgr  *server.Manager
	opt  Options
	rpol retry.Policy
	fsys durable.FS
	log  *slog.Logger
	// suspectAfter is the liveness threshold between alive and suspect.
	suspectAfter time.Duration

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	leases  map[leaseKey]*lease
	multis  map[string]*multiJob
	workers map[string]*workerInfo
	// committed records the epoch that successfully completed each run,
	// so a duplicated complete delivery acks instead of being fenced.
	committed map[leaseKey]uint64
	// epoch is the fencing high-water mark (see lease.go).
	epoch uint64

	mHB       map[string]*metrics.Counter // heartbeats by outcome
	mLeaseExp *metrics.Counter
	mFenced   *metrics.Counter
	mStalls   *metrics.Counter
}

// multiJob tracks the fan-out of one multi-start job: which run
// indices still need a lease, and per-run attempts and outcomes.
type multiJob struct {
	job      *server.Job
	runs     int
	pending  []pendingRun
	active   int
	attempts map[int]int
	results  map[int]*server.JobResult
}

// pendingRun is a run awaiting (re-)lease, with its backoff deadline.
type pendingRun struct {
	run       int
	notBefore time.Time
}

// NewCoordinator wires a coordinator onto an external-exec manager and
// starts the lease reaper. Call Stop to shut it down.
func NewCoordinator(mgr *server.Manager, opt Options) *Coordinator {
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 15 * time.Second
	}
	if opt.HeartbeatEvery <= 0 {
		opt.HeartbeatEvery = opt.LeaseTTL / 3
	}
	rpol := opt.Retry
	if rpol == (retry.Policy{}) {
		rpol = mgr.RetryPolicy()
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = durable.OS
	}
	lg := opt.Logger
	if lg == nil {
		lg = telemetry.DiscardLogger()
	}
	c := &Coordinator{
		mgr:          mgr,
		opt:          opt,
		rpol:         rpol,
		fsys:         fsys,
		log:          lg,
		suspectAfter: 3 * opt.HeartbeatEvery,
		leases:       make(map[leaseKey]*lease),
		multis:       make(map[string]*multiJob),
		workers:      make(map[string]*workerInfo),
		committed:    make(map[leaseKey]uint64),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.loadEpoch()

	reg := mgr.Registry()
	c.mHB = map[string]*metrics.Counter{}
	for _, outcome := range []string{"ok", "fenced", "unknown"} {
		c.mHB[outcome] = reg.Counter("oblxd_heartbeats_total", "outcome", outcome)
	}
	reg.SetHelp("oblxd_heartbeats_total", "worker heartbeats by outcome")
	c.mLeaseExp = reg.Counter("oblxd_lease_expirations_total")
	reg.SetHelp("oblxd_lease_expirations_total", "leases expired because the worker missed heartbeats")
	c.mFenced = reg.Counter("oblxd_fenced_commits_total")
	reg.SetHelp("oblxd_fenced_commits_total", "stale-epoch checkpoint/complete attempts rejected by fencing")
	c.mStalls = reg.Counter("oblxd_stalls_total")
	for _, st := range workerStates {
		st := st
		reg.GaugeFunc("oblxd_workers", func() float64 {
			_, by := c.workerBreakdown()
			return float64(by[st])
		}, "state", st)
	}
	reg.SetHelp("oblxd_workers", "registered fleet workers by liveness state")

	mgr.SetFleetHealth(c.fleetHealth)

	c.wg.Add(1)
	go c.reaper()
	return c
}

// Stop halts the reaper. Leases stay in memory (the process is going
// away); running jobs are re-leased by the next incarnation's recovery.
func (c *Coordinator) Stop() {
	c.cancel()
	c.wg.Wait()
}

// Handler mounts the fleet endpoints in front of the manager's own API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet/claim", c.handleClaim)
	mux.HandleFunc("POST /v1/fleet/jobs/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/fleet/jobs/{id}/checkpoint", c.handleCheckpoint)
	mux.HandleFunc("POST /v1/fleet/jobs/{id}/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/fleet/jobs/{id}/release", c.handleRelease)
	mux.Handle("/", c.mgr.Handler())
	return mux
}

// rlog scopes the fleet log to one request: job/run/worker plus the
// propagated X-Request-Id, keeping the cross-machine lifecycle
// greppable by one ID.
func (c *Coordinator) rlog(r *http.Request, job string, run int, worker string) *slog.Logger {
	lg := c.log.With("job", job, "run", run, "worker", worker)
	if req := r.Header.Get("X-Request-Id"); req != "" {
		lg = lg.With("req", req)
	}
	return lg
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("parse request: %v", err)})
		return false
	}
	return true
}

// handleClaim hands out one lease, preferring pending multi-start runs
// over fresh queue pulls so a fanned-out job finishes before new work
// starts spreading.
func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "claim without worker ID"})
		return
	}
	c.noteWorker(req.Worker)

	claimStart := time.Now()
	cr := c.claimPending(req.Worker)
	if cr == nil {
		cr = c.claimFresh(req.Worker)
	}
	if cr == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// Record the claim span outside c.mu: completing a span feeds the
	// span-duration histogram, and the registry's exposition path takes
	// c.mu through the worker-state gauges.
	if j := c.mgr.Get(cr.JobID); j != nil {
		j.Trace().AddTimed("claim", "", claimStart, time.Since(claimStart),
			"worker", req.Worker, "run", strconv.Itoa(cr.Run),
			"epoch", strconv.FormatUint(cr.Epoch, 10))
	}
	c.rlog(r, cr.JobID, cr.Run, req.Worker).Info("lease granted",
		"epoch", cr.Epoch, "seed", cr.Options.Seed, "resume", len(cr.Checkpoint) > 0)
	writeJSON(w, http.StatusOK, cr)
}

// claimPending re-leases a multi-start run whose previous lease died,
// once its backoff deadline passes.
func (c *Coordinator) claimPending(worker string) *ClaimResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, mj := range c.multis {
		for i, p := range mj.pending {
			if now.Before(p.notBefore) {
				continue
			}
			mj.pending = append(mj.pending[:i], mj.pending[i+1:]...)
			mj.active++
			l := c.grantLocked(mj.job, p.run, worker, mj)
			return c.claimResponseLocked(l)
		}
	}
	return nil
}

// claimFresh pulls the next queued job from the manager. A multi-start
// job fans out: this claim takes run 0 and the remaining runs become
// pending leases for other claimants.
func (c *Coordinator) claimFresh(worker string) *ClaimResponse {
	j := c.mgr.ClaimQueued()
	if j == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var mj *multiJob
	if j.Options.Runs > 1 {
		mj = &multiJob{
			job:      j,
			runs:     j.Options.Runs,
			active:   1,
			attempts: make(map[int]int),
			results:  make(map[int]*server.JobResult),
		}
		for i := 1; i < mj.runs; i++ {
			mj.pending = append(mj.pending, pendingRun{run: i})
		}
		c.multis[j.ID] = mj
	}
	l := c.grantLocked(j, 0, worker, mj)
	return c.claimResponseLocked(l)
}

// claimResponseLocked projects a lease into its wire form. Callers hold
// c.mu.
func (c *Coordinator) claimResponseLocked(l *lease) *ClaimResponse {
	j := l.job
	// The job's options as a local worker would launch them (the
	// daemon's progress cadence included); the worker runs exactly one
	// anneal, seeded as oblx.RunBest seeds its run of the same index.
	opt := c.mgr.LaunchOptions(j)
	opt.Seed = oblx.RunSeed(opt.Seed, l.key.run)
	opt.Runs = 1
	cr := &ClaimResponse{
		JobID:          j.ID,
		Run:            l.key.run,
		Epoch:          l.epoch,
		Deck:           j.Deck,
		Options:        opt,
		LeaseTTL:       c.opt.LeaseTTL,
		HeartbeatEvery: c.opt.HeartbeatEvery,
		RequestID:      j.RequestID(),
		Traceparent:    j.TraceContext(),
	}
	if l.multi == nil {
		// Checkpoint/resume is a single-run feature, exactly as in the
		// standalone daemon, at the manager's cadence.
		cr.Resumable = true
		cr.CheckpointEvery = c.mgr.CheckpointEvery()
		cr.Checkpoint = c.mgr.ResumePayload(j)
	}
	return cr
}

// handleHeartbeat renews a lease and feeds the progress tick through to
// the manager's progress sink (SSE, metrics, the root span's move events).
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var hb HeartbeatRequest
	if !readJSON(w, r, &hb) {
		return
	}
	c.noteWorker(hb.Worker)

	now := time.Now()
	c.mu.Lock()
	l, outcome := c.lookupLocked(leaseKey{job: id, run: hb.Run}, hb.Worker, hb.Epoch)
	if l == nil {
		c.mu.Unlock()
		c.mHB[outcome].Inc()
		c.rlog(r, id, hb.Run, hb.Worker).Warn("heartbeat rejected",
			"outcome", outcome, "epoch", hb.Epoch)
		writeJSON(w, http.StatusConflict, apiError{Error: outcome + ": lease not held"})
		return
	}
	l.expires = now.Add(c.opt.LeaseTTL)
	if hb.Progress != nil && hb.Progress.Evals > l.lastEvals {
		l.lastEvals = hb.Progress.Evals
		l.lastProgress = now
	}
	resp := HeartbeatResponse{Cancel: l.cancelled}
	job := l.job
	c.mu.Unlock()

	c.mHB["ok"].Inc()
	if len(hb.Spans) > 0 {
		// The fencing check above passed, so these spans come from the
		// live leaseholder, not a zombie.
		c.mgr.AddTraceSpans(job, hb.Spans)
	}
	if hb.Progress != nil {
		ev := *hb.Progress
		ev.Run = hb.Run
		c.mgr.RecordProgress(job, ev)
	}
	if !resp.Cancel && job.UserCancelled() {
		resp.Cancel = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCheckpoint stores a shipped checkpoint as the job's durable
// resume point. Fenced writers are rejected: a stale worker must never
// overwrite the successor's progress.
func (c *Coordinator) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req CheckpointRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.noteWorker(req.Worker)

	c.mu.Lock()
	l, outcome := c.lookupLocked(leaseKey{job: id, run: req.Run}, req.Worker, req.Epoch)
	var job *server.Job
	if l != nil {
		job = l.job
	}
	c.mu.Unlock()
	if l == nil {
		c.mFenced.Inc()
		c.rlog(r, id, req.Run, req.Worker).Warn("checkpoint rejected",
			"outcome", outcome, "epoch", req.Epoch)
		writeJSON(w, http.StatusConflict, apiError{Error: outcome + ": lease not held"})
		return
	}
	if err := c.mgr.PutCheckpointPayload(job, req.Payload); err != nil {
		c.rlog(r, id, req.Run, req.Worker).Error("store shipped checkpoint failed", "err", err)
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleComplete commits a run's terminal outcome exactly once. The
// lease must still be held: a worker that lost it (partition healed
// after the TTL, coordinator restarted) is fenced, its result dropped,
// and the rejection logged and counted. Duplicate deliveries of an
// already-committed (run, epoch) acknowledge idempotently.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req CompleteRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.noteWorker(req.Worker)
	if req.Result == nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "complete without result"})
		return
	}
	key := leaseKey{job: id, run: req.Run}
	lg := c.rlog(r, id, req.Run, req.Worker)

	c.mu.Lock()
	l, outcome := c.lookupLocked(key, req.Worker, req.Epoch)
	if l == nil {
		if c.committed[key] == req.Epoch && req.Epoch != 0 {
			c.mu.Unlock()
			w.WriteHeader(http.StatusOK) // duplicated delivery of a commit that won
			return
		}
		c.mu.Unlock()
		c.mFenced.Inc()
		lg.Warn("late commit rejected", "outcome", outcome, "epoch", req.Epoch,
			"state", req.Result.State)
		writeJSON(w, http.StatusConflict, apiError{Error: outcome + ": lease not held"})
		return
	}
	delete(c.leases, key)
	c.committed[key] = req.Epoch
	job := l.job

	if mj := l.multi; mj != nil {
		mj.active--
		mj.results[req.Run] = req.Result
		final := c.finalizeMultiLocked(mj)
		c.mu.Unlock()
		if len(req.Spans) > 0 {
			c.mgr.AddTraceSpans(job, req.Spans)
		}
		if final != nil {
			if err := c.mgr.CompleteExternal(job, final); err != nil {
				lg.Warn("multi-start completion rejected by manager", "err", err)
			} else {
				lg.Info("multi-start job finished", "state", final.State, "runs", mj.runs)
			}
		}
		writeJSON(w, http.StatusOK, struct{}{})
		return
	}
	c.mu.Unlock()

	// Ingest the run's final spans before the terminal commit seals the
	// trace snapshot.
	if len(req.Spans) > 0 {
		c.mgr.AddTraceSpans(job, req.Spans)
	}
	if err := c.mgr.CompleteExternal(job, req.Result); err != nil {
		c.mFenced.Inc()
		lg.Warn("late commit rejected by manager", "err", err)
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
		return
	}
	lg.Info("run committed", "state", req.Result.State, "epoch", req.Epoch)
	writeJSON(w, http.StatusOK, struct{}{})
}

// finalizeMultiLocked checks whether every run of a multi-start job is
// terminal and, if so, removes the fan-out record and returns the best
// result: a done run beats a failed one, then oblx.Beats decides, as in
// oblx.RunBest, and a tie keeps the lower run index. Callers hold c.mu.
func (c *Coordinator) finalizeMultiLocked(mj *multiJob) *server.JobResult {
	if len(mj.results) < mj.runs {
		return nil
	}
	delete(c.multis, mj.job.ID)
	better := func(a, b *server.JobResult) bool {
		if (a.State == server.StateDone) != (b.State == server.StateDone) {
			return a.State == server.StateDone
		}
		av, bv := a.Result, b.Result
		switch {
		case av == nil:
			return false
		case bv == nil:
			return true
		default:
			return oblx.Beats(av.DCSolved, av.Cost.Total, bv.DCSolved, bv.Cost.Total)
		}
	}
	var best *server.JobResult
	for run := 0; run < mj.runs; run++ {
		if r := mj.results[run]; best == nil || better(r, best) {
			best = r
		}
	}
	return best
}

// handleRelease takes a lease back from a gracefully draining worker:
// the job returns to the queue head with no attempt burned, resuming
// from whatever checkpoint the worker shipped last.
func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req ReleaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	c.noteWorker(req.Worker)
	key := leaseKey{job: id, run: req.Run}

	c.mu.Lock()
	l, outcome := c.lookupLocked(key, req.Worker, req.Epoch)
	if l == nil {
		c.mu.Unlock()
		c.rlog(r, id, req.Run, req.Worker).Warn("release rejected", "outcome", outcome)
		writeJSON(w, http.StatusConflict, apiError{Error: outcome + ": lease not held"})
		return
	}
	delete(c.leases, key)
	job := l.job
	mj := l.multi
	if mj != nil {
		mj.active--
		mj.pending = append(mj.pending, pendingRun{run: req.Run})
	}
	c.mu.Unlock()

	if len(req.Spans) > 0 {
		c.mgr.AddTraceSpans(job, req.Spans)
	}
	if mj == nil {
		c.mgr.ReleaseExternal(job)
	}
	c.rlog(r, id, req.Run, req.Worker).Info("lease released")
	w.WriteHeader(http.StatusNoContent)
}

// reaper is the fleet generalization of the standalone stall watchdog:
// it expires leases whose worker went silent ("worker died") and
// revokes leases whose heartbeats carry no eval progress ("job
// stalled"), feeding both back into the manager's retry/poison
// supervision.
func (c *Coordinator) reaper() {
	defer c.wg.Done()
	interval := c.opt.LeaseTTL / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	for {
		if retry.Sleep(c.ctx, interval) != nil {
			return
		}
		c.reapOnce(time.Now())
	}
}

// reapOnce runs one supervision sweep.
func (c *Coordinator) reapOnce(now time.Time) {
	type revocation struct {
		l     *lease
		cause string
	}
	var revoked []revocation
	var finals []struct {
		job *server.Job
		res *server.JobResult
	}

	c.mu.Lock()
	for key, l := range c.leases {
		switch {
		case now.After(l.expires):
			delete(c.leases, key)
			c.mLeaseExp.Inc()
			revoked = append(revoked, revocation{l, fmt.Sprintf(
				"lease expired: worker %s missed heartbeats for %s", l.worker, c.opt.LeaseTTL)})
		case c.opt.StallTimeout > 0 && now.Sub(l.lastProgress) > c.opt.StallTimeout:
			delete(c.leases, key)
			c.mStalls.Inc()
			revoked = append(revoked, revocation{l, fmt.Sprintf(
				"stalled: heartbeats without eval progress for %s on worker %s", c.opt.StallTimeout, l.worker)})
		case !l.cancelled && l.job.UserCancelled():
			l.cancelled = true
		}
	}
	for _, rv := range revoked {
		mj := rv.l.multi
		if mj == nil {
			continue
		}
		// Per-run supervision of a fanned-out job: backoff re-lease while
		// attempts remain, else record the run as abandoned.
		run := rv.l.key.run
		mj.active--
		mj.attempts[run]++
		if c.rpol.Exhausted(mj.attempts[run]) {
			mj.results[run] = &server.JobResult{
				State: server.StateFailed,
				Error: fmt.Sprintf("server: run %d abandoned after %d attempts; last: %s",
					run, mj.attempts[run], rv.cause),
			}
			if final := c.finalizeMultiLocked(mj); final != nil {
				finals = append(finals, struct {
					job *server.Job
					res *server.JobResult
				}{mj.job, final})
			}
		} else {
			mj.pending = append(mj.pending, pendingRun{
				run:       run,
				notBefore: now.Add(c.rpol.Backoff(mj.attempts[run])),
			})
		}
	}
	c.mu.Unlock()

	for _, rv := range revoked {
		lg := c.log.With("job", rv.l.key.job, "run", rv.l.key.run, "worker", rv.l.worker)
		if req := rv.l.job.RequestID(); req != "" {
			lg = lg.With("req", req)
		}
		lg.Warn("lease revoked", "cause", rv.cause, "epoch", rv.l.epoch)
		if rv.l.multi == nil {
			// Whole-job supervision: requeue with backoff or poison.
			c.mgr.RequeueExternal(rv.l.job, rv.cause)
		}
	}
	for _, f := range finals {
		if err := c.mgr.CompleteExternal(f.job, f.res); err != nil {
			c.log.Warn("multi-start finalization rejected", "job", f.job.ID, "err", err)
		}
	}
}
