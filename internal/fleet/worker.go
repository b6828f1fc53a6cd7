package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"astrx/internal/durable"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/retry"
	"astrx/internal/server"
	"astrx/internal/telemetry"
	"astrx/internal/trace"

	"log/slog"
)

// workerSynth is the worker's seam over the engine entry point, so
// chaos tests can substitute a run that stalls, blocks, or ticks
// progress deterministically.
var workerSynth = oblx.Run

// WorkerOptions configures a fleet worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:7077".
	Coordinator string
	// ID names this worker in leases, logs, and the registry. Required.
	ID string
	// Dir holds the worker's local checkpoints (empty → no local
	// checkpointing; the run still ships nothing and restarts from the
	// coordinator's last stored checkpoint after a crash).
	Dir string
	// Client issues the fleet HTTP calls (nil → http.DefaultClient).
	// Chaos tests install a fault-injecting transport here.
	Client *http.Client
	// Poll is the idle wait between claim attempts (0 → 500ms).
	Poll time.Duration
	// Logger receives structured worker logs (nil → discarded).
	Logger *slog.Logger
}

// Worker claims runs from a coordinator and executes them: anneal,
// heartbeat, ship checkpoints, commit the result. One Worker runs one
// lease at a time; run several Workers (or several processes) to scale
// out.
type Worker struct {
	opt    WorkerOptions
	client *http.Client
	log    *slog.Logger

	// killed simulates kill -9 for chaos tests: the worker stops
	// messaging the coordinator mid-run, exactly as a dead process
	// would, and lets lease expiry discover the death.
	killed atomic.Bool

	mu     sync.Mutex
	cancel context.CancelFunc
}

// NewWorker builds a worker; call Run to start its claim loop.
func NewWorker(opt WorkerOptions) *Worker {
	if opt.Poll <= 0 {
		opt.Poll = 500 * time.Millisecond
	}
	cl := opt.Client
	if cl == nil {
		cl = http.DefaultClient
	}
	lg := opt.Logger
	if lg == nil {
		lg = telemetry.DiscardLogger()
	}
	return &Worker{opt: opt, client: cl, log: lg.With("worker", opt.ID)}
}

// Kill simulates the worker process dying (kill -9): all in-flight work
// stops and no further message — heartbeat, checkpoint, complete —
// reaches the coordinator. Supervision must discover the death through
// lease expiry alone.
func (w *Worker) Kill() {
	w.killed.Store(true)
	w.mu.Lock()
	if w.cancel != nil {
		w.cancel()
	}
	w.mu.Unlock()
}

// Run claims and executes leases until ctx is cancelled (graceful
// drain: the current lease is released back to the coordinator with a
// final checkpoint) or Kill is called (abrupt death: silence).
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.mu.Lock()
	w.cancel = cancel
	w.mu.Unlock()

	for {
		if ctx.Err() != nil || w.killed.Load() {
			return nil
		}
		var cr ClaimResponse
		status, err := w.postJSON(ctx, "/v1/fleet/claim", ClaimRequest{Worker: w.opt.ID}, &cr, "")
		switch {
		case err != nil || status == http.StatusNoContent:
			// Idle or coordinator unreachable: poll again. Claim carries no
			// lease yet, so retrying is always safe.
			if retry.Sleep(ctx, w.opt.Poll) != nil {
				return nil
			}
		case status != http.StatusOK:
			if retry.Sleep(ctx, w.opt.Poll) != nil {
				return nil
			}
		default:
			w.runLease(ctx, &cr)
		}
	}
}

// runLease executes one leased run end to end.
func (w *Worker) runLease(ctx context.Context, cr *ClaimResponse) {
	lg := w.log.With("job", cr.JobID, "run", cr.Run, "epoch", cr.Epoch)
	if cr.RequestID != "" {
		lg = lg.With("req", cr.RequestID)
	}
	// Join the job's distributed trace: the claim's traceparent carries
	// the trace ID and the coordinator-side root span ID, so spans
	// recorded here parent under the same root as every other
	// incarnation of this job. Shipping mode buffers completed spans for
	// the heartbeat/complete drain; a malformed or absent traceparent
	// leaves rec nil and every trace call a no-op.
	var rec *trace.Recorder
	if tc, terr := trace.Parse(cr.Traceparent); terr == nil {
		rec = trace.NewRecorder(tc, 0)
		rec.EnableShipping()
		lg = lg.With("trace", tc.TraceID)
	}
	lg.Info("lease claimed", "seed", cr.Options.Seed)

	deck, err := netlist.Parse(cr.Deck)
	if err != nil {
		w.complete(ctx, cr, rec, server.BuildJobResult(cr.JobID, nil, fmt.Errorf("fleet: reparse deck: %w", err)), lg)
		return
	}

	// Latest progress sample, exchanged with the coordinator on each
	// heartbeat. The annealing goroutine writes it; the heartbeat loop
	// reads it.
	var progMu sync.Mutex
	var latest *oblx.ProgressEvent

	// The claim carries the job's options as the coordinator's manager
	// launches them; the mapping onto oblx is the local worker's. Stage
	// timing runs at the daemon's cadence: the anneal span carries the
	// stage.<name>_us means, and oblx.Run records each sample as an eval
	// span shipped with the lease's other spans, as for a local job.
	opt := cr.Options.RunOptions()
	opt.StageTimer = telemetry.NewEvalTimer(telemetry.DefaultSampleEvery)
	opt.Trace = rec
	opt.Progress = func(ev oblx.ProgressEvent) {
		ev.Run = cr.Run
		progMu.Lock()
		latest = &ev
		progMu.Unlock()
	}
	if cr.Resumable && w.opt.Dir != "" {
		opt.CheckpointPath = filepath.Join(w.opt.Dir, "job-"+cr.JobID+".ckpt")
		opt.CheckpointEvery = cr.CheckpointEvery
	}
	if cr.Resumable && len(cr.Checkpoint) > 0 {
		if ck, err := oblx.DecodeCheckpoint(cr.Checkpoint); err == nil {
			opt.Resume = ck
			lg.Info("resuming from shipped checkpoint", "move", ck.Anneal.Move, "evals", ck.Evals)
		} else {
			lg.Warn("shipped checkpoint unusable, starting fresh", "err", err)
		}
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	type outcome struct {
		res *oblx.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := workerSynth(runCtx, deck, opt)
		done <- outcome{res, err}
	}()

	hbEvery := cr.HeartbeatEvery
	if hbEvery <= 0 {
		hbEvery = 5 * time.Second
	}
	var out outcome
	var fenced, cancelled bool
	var lastShipped []byte

beat:
	for {
		select {
		case out = <-done:
			break beat
		case <-time.After(hbEvery):
			if w.killed.Load() {
				cancelRun()
				<-done
				return // kill -9: no further messages, let the lease expire
			}
			progMu.Lock()
			prog := latest
			progMu.Unlock()
			var resp HeartbeatResponse
			status, err := w.postJSON(ctx, "/v1/fleet/jobs/"+cr.JobID+"/heartbeat",
				HeartbeatRequest{Worker: w.opt.ID, Run: cr.Run, Epoch: cr.Epoch, Progress: prog,
					Spans: rec.DrainNew()},
				&resp, cr.RequestID)
			switch {
			case err != nil:
				// Transient drop: keep annealing. If the partition outlives
				// the lease TTL the coordinator re-leases and we get fenced.
				lg.Warn("heartbeat failed", "err", err)
			case status == http.StatusConflict || status == http.StatusNotFound:
				fenced = true
				cancelRun()
			case resp.Cancel:
				cancelled = true
				cancelRun()
			}
			w.maybeShipCheckpoint(ctx, cr, opt.CheckpointPath, &lastShipped, lg)
		}
	}

	if w.killed.Load() {
		return // died mid-run: silence
	}
	if fenced {
		lg.Warn("lease fenced, abandoning run")
		return
	}
	if ctx.Err() != nil && !cancelled && out.res != nil && out.res.Cancelled {
		// Graceful drain: the worker is shutting down, not the job. Ship
		// the final checkpoint and hand the lease back so another worker
		// resumes mid-anneal with no attempt burned.
		drainCtx, stop := context.WithTimeout(context.Background(), 5*time.Second)
		defer stop()
		w.maybeShipCheckpoint(drainCtx, cr, opt.CheckpointPath, &lastShipped, lg)
		status, err := w.postJSON(drainCtx, "/v1/fleet/jobs/"+cr.JobID+"/release",
			ReleaseRequest{Worker: w.opt.ID, Run: cr.Run, Epoch: cr.Epoch,
				Spans: rec.DrainNew()}, nil, cr.RequestID)
		if err != nil || status >= 300 {
			lg.Warn("release failed", "status", status, "err", err)
		} else {
			lg.Info("lease released on drain")
		}
		return
	}
	w.complete(ctx, cr, rec, server.BuildJobResult(cr.JobID, out.res, out.err), lg)
}

// maybeShipCheckpoint posts the worker's latest local checkpoint to the
// coordinator when it changed since the last ship. The local file is a
// sealed envelope; the wire carries the raw JSON payload.
func (w *Worker) maybeShipCheckpoint(ctx context.Context, cr *ClaimResponse, path string, lastShipped *[]byte, lg *slog.Logger) {
	if path == "" {
		return
	}
	payload, err := durable.ReadSealed(nil, path)
	if err != nil || bytes.Equal(payload, *lastShipped) {
		return
	}
	status, err := w.postJSON(ctx, "/v1/fleet/jobs/"+cr.JobID+"/checkpoint",
		CheckpointRequest{Worker: w.opt.ID, Run: cr.Run, Epoch: cr.Epoch, Payload: payload},
		nil, cr.RequestID)
	if err != nil {
		lg.Warn("checkpoint ship failed", "err", err)
		return
	}
	if status >= 300 {
		lg.Warn("checkpoint ship rejected", "status", status)
		return
	}
	*lastShipped = payload
	lg.Info("checkpoint shipped", "bytes", len(payload))
}

// complete commits the run's terminal result, retrying transient
// failures. A 409 is final: the lease was fenced while we annealed and
// the result must be dropped, never committed over the successor's.
func (w *Worker) complete(ctx context.Context, cr *ClaimResponse, rec *trace.Recorder, result *server.JobResult, lg *slog.Logger) {
	if w.killed.Load() {
		return
	}
	// Completion must survive the drain cancellation of ctx.
	cctx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	// Drain once, outside the retry loop, so a retried POST carries the
	// same final spans instead of an empty second drain.
	spans := rec.DrainNew()
	pol := retry.Policy{Base: 50 * time.Millisecond, Multiplier: 2, Max: time.Second, MaxAttempts: 5}
	err := retry.Do(cctx, pol, func(ctx context.Context) error {
		status, err := w.postJSON(ctx, "/v1/fleet/jobs/"+cr.JobID+"/complete",
			CompleteRequest{Worker: w.opt.ID, Run: cr.Run, Epoch: cr.Epoch, Result: result,
				Spans: spans},
			nil, cr.RequestID)
		if err != nil {
			return err
		}
		if status == http.StatusConflict {
			lg.Warn("late commit rejected, result dropped", "state", result.State)
			return nil // fenced: final, do not retry
		}
		if status >= 300 {
			return fmt.Errorf("fleet: complete: HTTP %d", status)
		}
		lg.Info("run committed", "state", result.State)
		return nil
	})
	if err != nil {
		lg.Error("commit failed, lease will expire", "err", err)
	}
}

// postJSON issues one fleet POST, decoding the response into out when
// non-nil and the status is 2xx. The job's request ID is propagated on
// X-Request-Id so coordinator and worker logs correlate.
func (w *Worker) postJSON(ctx context.Context, path string, body, out any, reqID string) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opt.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}
