// Package server is the synthesis service behind the oblxd daemon: a
// job manager that accepts ASTRX decks, runs them through OBLX on a
// bounded worker pool, streams annealing progress to subscribers, and
// survives restarts by checkpointing in-flight jobs to a state
// directory.
//
// The paper's workflow is batch — "5-10 annealing runs performed
// overnight" — but the cancellation + checkpoint machinery underneath
// (context-scoped runs, resumable annealer snapshots) is exactly what a
// long-lived optimization service needs: jobs are queued, run with a
// context each, checkpoint periodically, and a killed daemon resumes
// queued and running jobs from disk on restart without losing a move.
//
// Lifecycle: Submit validates the deck (parse + Deck.Validate) and
// enqueues; workers pull jobs FIFO and run them; DELETE cancels via the
// job's context; Shutdown stops intake (submissions get ErrDraining →
// HTTP 503), cancels running jobs — which write a final checkpoint at
// the exact cancellation move — and leaves everything on disk in a
// state New can recover.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"astrx/internal/astrx"
	"astrx/internal/durable"
	"astrx/internal/metrics"
	"astrx/internal/netlist"
	"astrx/internal/oblx"
	"astrx/internal/rescache"
	"astrx/internal/retry"
	"astrx/internal/telemetry"
	"astrx/internal/tenancy"
	"astrx/internal/trace"
	"astrx/internal/verify"
)

// State is a job lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StatePoisoned marks a job the supervisor gave up on: it stalled (or
	// otherwise failed retryably) on every allowed attempt. Terminal; the
	// failure history rides along in the result.
	StatePoisoned State = "poisoned"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StatePoisoned
}

// allStates lists every lifecycle state, for the jobs-by-state metric.
var allStates = []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StatePoisoned}

// JobFailure is one entry of a supervised job's failure history: what
// went wrong on which attempt. The history is persisted with the job and
// attached to a poisoned job's result.
type JobFailure struct {
	Attempt int       `json:"attempt"`
	Error   string    `json:"error"`
	Time    time.Time `json:"time"`
}

// JobOptions are the per-job synthesis knobs a client may set.
type JobOptions struct {
	Seed     int64 `json:"seed,omitempty"`      // 0 → 1
	MaxMoves int   `json:"max_moves,omitempty"` // 0 → oblx.DefaultMaxMoves
	// Runs is the number of independent seeded anneals (best kept).
	// Checkpoint/resume is a single-run feature (oblx.RunBest): jobs
	// with Runs > 1 restart from scratch after a daemon kill instead of
	// resuming.
	Runs     int  `json:"runs,omitempty"` // 0 → 1; at most maxRuns
	NoFreeze bool `json:"no_freeze,omitempty"`
	// Corners selects the worst-case corner set: nil → every corner the
	// deck declares, empty → nominal-only, else named .corner cards.
	// Deliberately not omitempty — nil and [] are different jobs and
	// must survive a persist/reload round trip.
	Corners []string `json:"corners"`
	// ProgressEvery is the move interval between streamed progress
	// events (0 → the manager default).
	ProgressEvery int `json:"progress_every,omitempty"`
}

// maxRuns bounds JobOptions.Runs. Each run is a concurrent anneal with
// its own compile and workspaces, and a fleet coordinator queues a lease
// per run; the paper's practice is 5–10 runs.
const maxRuns = 64

// defaults resolves the options at admission: the result-cache key and
// the max-moves limit read the resolved move budget.
func (o *JobOptions) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxMoves <= 0 {
		o.MaxMoves = oblx.DefaultMaxMoves
	}
	if o.Runs <= 0 {
		o.Runs = 1
	}
}

// RunOptions maps job options onto oblx's: the one mapping local and
// fleet workers share, applied to Manager.LaunchOptions (a fleet worker:
// to its claim's options). Callers add the telemetry sinks and the
// checkpoint file.
func (o JobOptions) RunOptions() oblx.Options {
	return oblx.Options{
		Seed:          o.Seed,
		MaxMoves:      o.MaxMoves,
		NoFreeze:      o.NoFreeze,
		Corners:       o.Corners,
		ProgressEvery: o.ProgressEvery,
	}
}

// Event is one entry of a job's event stream: either a state transition
// or an annealing progress sample.
type Event struct {
	Type  string              `json:"type"` // "state" | "progress"
	State State               `json:"state,omitempty"`
	Error string              `json:"error,omitempty"`
	Prog  *oblx.ProgressEvent `json:"progress,omitempty"`
}

// terminal reports whether the event turns its job terminal: the last
// event of the job's stream.
func (ev Event) terminal() bool { return ev.Type == "state" && ev.State.terminal() }

// maxBufferedEvents caps the per-job replay buffer; SSE subscribers that
// attach late see at most this many historical events. Progress events
// beyond the cap evict the oldest progress entries (state transitions
// are never evicted).
const maxBufferedEvents = 1024

// VerifySummary is the JSON projection of the reference-simulation
// report attached to a finished job.
type VerifySummary struct {
	Specs          []verify.SpecResult `json:"specs"`
	BiasIterations int                 `json:"bias_iterations"`
	BiasConverged  bool                `json:"bias_converged"`
	MaxKCL         float64             `json:"max_kcl"`
	WorstRelErr    float64             `json:"worst_rel_err"`
	// AllMet reports whether every non-objective spec is met by the
	// simulated (not just predicted) value.
	AllMet bool `json:"all_met"`
}

// JobResult is the wire form of a finished job's outcome.
type JobResult struct {
	ID     string           `json:"id"`
	State  State            `json:"state"`
	Error  string           `json:"error,omitempty"`
	Result *oblx.ResultView `json:"result,omitempty"`
	Verify *VerifySummary   `json:"verify,omitempty"`
	// VerifyError records a reference-simulation failure (e.g. a
	// cancelled job's half-annealed point may not bias-converge); the
	// synthesis result above is still valid best-so-far data.
	VerifyError string `json:"verify_error,omitempty"`
	// History is the supervision failure history (poisoned jobs).
	History []JobFailure `json:"history,omitempty"`
}

// Job is one synthesis job. All mutable fields are guarded by mu.
type Job struct {
	ID      string
	Deck    string
	Options JobOptions
	Created time.Time
	// Tenant names the submitting principal (tenancy.DefaultTenantName
	// in open mode). Immutable after creation.
	Tenant string
	// DeckHash is the canonical content hash of the deck (the same value
	// `astrx -hash` prints) — whitespace- and comment-insensitive, so
	// identical logical decks share it. Immutable after creation.
	DeckHash string

	mu       sync.Mutex
	state    State
	err      string
	started  time.Time
	finished time.Time
	bestCost float64 // NaN until the first progress event
	lastProg *oblx.ProgressEvent
	events   []Event
	subs     map[chan Event]struct{}
	result   *JobResult

	// cancel aborts the running synthesis; nil unless running here.
	cancel context.CancelFunc
	// finishing is set by the one call of finish that makes the job
	// terminal, from its state check until the job is terminal, so no
	// other transition starts in between.
	finishing bool
	// userCancelled distinguishes DELETE (terminal) from a shutdown
	// drain (job stays resumable).
	userCancelled bool
	// stallKilled is set by the watchdog just before it cancels a stalled
	// run, so finishJob routes the outcome to the retry path instead of
	// recording a user cancellation.
	stallKilled bool
	// lastTick is the time of the last ProgressFunc tick (or the run
	// start); the watchdog compares it against the stall timeout.
	lastTick time.Time
	// attempts counts supervised execution attempts; history records what
	// each failed one died of.
	attempts int
	history  []JobFailure
	// requestID is the X-Request-Id (or traceparent trace ID) of the
	// submitting HTTP request, echoed in this job's log lines for
	// correlation. Persisted with the record, so the correlation
	// survives a daemon restart.
	requestID string
	// trace is the job's distributed-trace recorder, created before the
	// job is published (submit or recovery) and immutable afterwards —
	// unlocked reads are safe, like requestID. Nil for terminal jobs
	// recovered from disk, whose trace is the durable snapshot.
	trace *trace.Recorder
	// traceRemote is the client span the root span is remotely parented
	// to (from the submit traceparent header; "" when none). Immutable;
	// persisted so a restart re-opens the root with the same link.
	traceRemote string
	// resume holds the checkpoint to continue from, set during recovery.
	resume *oblx.Checkpoint
	// progEvals/progTime track per-run eval watermarks between progress
	// samples, for the eval counter and rate gauge.
	progEvals map[int]int
	progTime  map[int]time.Time
	// timer is the job's per-stage eval timer, created on the first run
	// attempt; nil for jobs that never ran under this daemon incarnation.
	timer *telemetry.EvalTimer
	// cacheKey is the result-cache key for this job's (deck, options)
	// pair; empty when the deck failed to canonicalize. Immutable.
	cacheKey string
	// cacheHit marks a job completed instantly from the result cache —
	// it never consumed a worker or an evaluation.
	cacheHit bool
	// rootSpan is the open "job" root span of the distributed trace;
	// queueSpan covers the current submit/requeue → claim wait and
	// queuedAt its start. All three are nil/zero outside their window.
	// Span Begin/End calls happen OUTSIDE j.mu (see trace.go lock note);
	// j.mu only guards the pointers.
	rootSpan  *trace.Active
	queueSpan *trace.Active
	queuedAt  time.Time
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status is the wire form of a job's current state (GET /v1/jobs/{id}).
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Tenant is the submitting principal ("default" in open mode).
	Tenant string `json:"tenant,omitempty"`
	// DeckHash is the deck's canonical content hash; two submissions
	// with the same hash ran the same logical netlist.
	DeckHash string `json:"deck_hash,omitempty"`
	// CacheHit marks a job served from the result cache without
	// consuming a worker or an evaluation.
	CacheHit bool       `json:"cache_hit,omitempty"`
	Options  JobOptions `json:"options"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// BestCost is the best-so-far total cost (null until the first
	// progress event arrives).
	BestCost *float64 `json:"best_cost,omitempty"`
	// SpecVals are the most recently measured spec values.
	SpecVals map[string]float64 `json:"spec_vals,omitempty"`
	// Progress is the latest annealing telemetry sample.
	Progress *oblx.ProgressEvent `json:"progress,omitempty"`
}

// Status snapshots the job for the status endpoint.
func (j *Job) Status() *Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := &Status{
		ID: j.ID, State: j.state, Error: j.err,
		Tenant: j.Tenant, DeckHash: j.DeckHash, CacheHit: j.cacheHit,
		Options: j.Options, Created: j.Created,
	}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	if !math.IsNaN(j.bestCost) {
		c := j.bestCost
		s.BestCost = &c
	}
	if j.lastProg != nil {
		p := *j.lastProg
		s.Progress = &p
		s.SpecVals = p.SpecVals
	}
	return s
}

// Result returns the finished job's result, or nil while non-terminal.
func (j *Job) Result() *JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// publish appends an event to the replay buffer and fans it out to
// subscribers. Callers must hold j.mu.
func (j *Job) publishLocked(ev Event) {
	if len(j.events) >= maxBufferedEvents {
		// Evict the oldest progress event; keep state transitions.
		for i, old := range j.events {
			if old.Type == "progress" {
				j.events = append(j.events[:i], j.events[i+1:]...)
				break
			}
		}
	}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop; SSE is a lossy telemetry feed
		}
	}
}

// Subscribe returns a copy of the replayable event history and a channel
// of future events. Call the returned cancel function when done.
func (j *Job) Subscribe() (replay []Event, ch chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.events...)
	ch = make(chan Event, 64)
	if j.subs == nil {
		j.subs = make(map[chan Event]struct{})
	}
	j.subs[ch] = struct{}{}
	return replay, ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// ErrDraining is returned by Submit during graceful shutdown; the HTTP
// layer maps it to 503 Service Unavailable.
var ErrDraining = errors.New("server: draining, not accepting new jobs")

// ErrQueueFull is returned by Submit when the bounded queue is at
// capacity; the HTTP layer maps it to 429 Too Many Requests with a
// Retry-After header.
var ErrQueueFull = errors.New("server: queue full, try again later")

// DeckError wraps a deck validation failure; the HTTP layer maps it to
// 400 Bad Request.
type DeckError struct{ Err error }

func (e *DeckError) Error() string { return e.Err.Error() }
func (e *DeckError) Unwrap() error { return e.Err }

// QuotaError is a per-tenant admission rejection (lane full, or the
// evaluation-rate budget overdrawn); the HTTP layer maps it to 429 with
// a Retry-After estimate, leaving other tenants unaffected.
type QuotaError struct {
	Tenant string
	Reason string
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("server: tenant %q over quota: %s", e.Tenant, e.Reason)
}

// Options configures a Manager.
type Options struct {
	// StateDir persists jobs and checkpoints for restart recovery.
	// Empty → in-memory only (jobs die with the process).
	StateDir string
	// Workers bounds concurrent synthesis jobs (0 → GOMAXPROCS).
	Workers int
	// Registry receives service metrics (nil → a private registry).
	Registry *metrics.Registry
	// CheckpointEvery is the move interval between job checkpoints
	// (0 → oblx.DefaultCheckpointEvery). Only meaningful with a
	// StateDir; a fleet coordinator hands it to its workers.
	CheckpointEvery int
	// ProgressEvery is the default move interval between progress
	// events for jobs that don't set their own (0 →
	// oblx.DefaultProgressEvery), on local and fleet workers alike.
	ProgressEvery int
	// MaxMovesLimit rejects jobs asking for more than this move budget
	// (0 → no limit) — an admission-control guard for shared daemons.
	MaxMovesLimit int
	// EnableProfiling mounts net/http/pprof under /debug/pprof/ on the
	// Handler. Off by default: the profile endpoints expose internal
	// state (goroutine stacks, heap contents) and cost CPU while
	// sampling, so they are opt-in for diagnosis sessions only. See
	// docs/profiling.md.
	EnableProfiling bool
	// Logger receives structured operational logs (nil → discarded).
	// Job-scoped lines carry job/req/attempt/state attributes so one
	// job's lifecycle is greppable by a single ID across restarts.
	Logger *slog.Logger
	// TelemetrySampleEvery is the 1-in-N sampling cadence for per-stage
	// eval timing (0 → 64; negative → stage timing off). See
	// docs/observability.md.
	TelemetrySampleEvery int
	// TraceRecords is the per-job sampled-eval span ring capacity for
	// distributed tracing (0 → trace.DefaultRingCap). Lifecycle spans
	// (root, queue-wait, anneal, corners) are pinned and never evicted.
	TraceRecords int

	// MaxQueue bounds the number of jobs waiting for a worker; Submit
	// returns ErrQueueFull (HTTP 429 + Retry-After) beyond it. 0 → the
	// queue is unbounded.
	MaxQueue int
	// StallTimeout is how long a running job may go without a progress
	// tick before the watchdog kills and requeues it. 0 → supervision
	// off.
	StallTimeout time.Duration
	// Retry shapes the backoff between supervised attempts of a stalled
	// job and caps the attempts before it is poisoned. Zero value →
	// retry.Default() (3 attempts).
	Retry retry.Policy
	// JobDeadline bounds one job's wall-clock run time; a job that
	// exceeds it fails terminally with a deadline error. 0 → no limit.
	JobDeadline time.Duration
	// FS is the filesystem under the persistence layer (nil → the real
	// one). Chaos tests substitute a fault-injecting wrapper.
	FS durable.FS

	// Auth authenticates API keys and supplies per-tenant quotas and
	// fair-share weights (nil → open mode: every request maps to the
	// unlimited default tenant, which is exactly the pre-tenancy
	// behavior).
	Auth *tenancy.Authenticator
	// Cache is the content-addressed result cache (nil → caching off).
	// Identical (deck, options) resubmissions complete instantly from
	// the cached result without consuming a worker or an evaluation.
	Cache *rescache.Cache

	// ExternalExec hands job execution to an external fleet: the manager
	// keeps owning the durable job store, the queue, and the event
	// streams, but spawns no local synthesis workers and no stall
	// watchdog — a fleet coordinator (internal/fleet) drives jobs through
	// ClaimQueued / RecordExternalProgress / CompleteExternal and
	// supervises liveness with leases instead. Standalone daemons leave
	// this false and behave exactly as before.
	ExternalExec bool
}

// Manager owns the job table, the queue, and the worker pool.
type Manager struct {
	opt   Options
	reg   *metrics.Registry
	fsys  durable.FS
	rpol  retry.Policy
	log   *slog.Logger
	start time.Time

	auth  *tenancy.Authenticator
	cache *rescache.Cache

	mu   sync.Mutex
	cond *sync.Cond
	jobs map[string]*Job
	// sched replaced the single FIFO queue: per-tenant FIFO lanes
	// drained by weighted deficit round-robin. With one tenant (open
	// mode) it degenerates to the FIFO it replaced. Guarded by mu.
	sched *tenancy.Scheduler[*Job]
	// tenantQueued counts admitted-but-not-yet-running jobs per tenant,
	// including the window where a submission is persisting before its
	// enqueue, so concurrent submits cannot overshoot MaxQueued.
	tenantQueued map[string]int
	// tenantsSeen guards one-time per-tenant metric registration.
	tenantsSeen map[string]bool
	// batches groups child jobs of POST /v1/batches (in-memory; the
	// children themselves are durable).
	batches  map[string]*Batch
	running  int
	draining bool
	degraded bool
	// stateSeq stamps each state-directory write as it starts;
	// stateFailSeq is the stamp of the latest failed one (see writeState).
	stateSeq     atomic.Uint64
	stateFailSeq uint64
	// fleetHealth, when set (SetFleetHealth), contributes the fleet
	// section of /healthz in coordinator mode.
	fleetHealth func() *FleetHealth

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// metric instruments
	mSubmitted  *metrics.Counter
	mEvals      *metrics.Counter
	mEvalRate   *metrics.Gauge
	mAccept     *metrics.Gauge
	mJobSecs    *metrics.Histogram
	mRetries    *metrics.Counter
	mStalls     *metrics.Counter
	mShed       *metrics.Counter
	mPersistErr *metrics.Counter
	mQuarantine *metrics.Counter
	mUnstable   *metrics.Counter
	// mStage holds the per-stage eval-timing histograms, indexed by
	// telemetry.Stage; the jobs' eval spans feed them (attachJobTrace).
	mStage [telemetry.NumStages]*metrics.Histogram
}

// New creates a manager, recovers persisted jobs from the state
// directory, and starts the worker pool.
func New(opt Options) (*Manager, error) {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	lg := opt.Logger
	if lg == nil {
		lg = telemetry.DiscardLogger()
	}
	reg := opt.Registry
	if reg == nil {
		reg = metrics.New()
	}
	rpol := opt.Retry
	if rpol == (retry.Policy{}) {
		rpol = retry.Default()
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = durable.OS
	}
	auth := opt.Auth
	if auth == nil {
		auth = tenancy.Open()
	}
	m := &Manager{
		opt:          opt,
		reg:          reg,
		fsys:         fsys,
		rpol:         rpol,
		log:          lg,
		start:        time.Now(),
		auth:         auth,
		cache:        opt.Cache,
		jobs:         make(map[string]*Job),
		tenantQueued: make(map[string]int),
		tenantsSeen:  make(map[string]bool),
		batches:      make(map[string]*Batch),
	}
	m.sched = tenancy.NewScheduler[*Job](auth.Limits)
	m.cond = sync.NewCond(&m.mu)
	m.ctx, m.cancel = context.WithCancel(context.Background())

	m.mSubmitted = reg.Counter("oblxd_jobs_submitted_total")
	reg.SetHelp("oblxd_jobs_submitted_total", "jobs accepted for synthesis")
	m.mEvals = reg.Counter("oblxd_evals_total")
	reg.SetHelp("oblxd_evals_total", "circuit evaluations across all jobs")
	m.mEvalRate = reg.Gauge("oblxd_evals_per_sec")
	reg.SetHelp("oblxd_evals_per_sec", "recent evaluation throughput")
	m.mAccept = reg.Gauge("oblxd_accept_ratio")
	reg.SetHelp("oblxd_accept_ratio", "latest annealing acceptance ratio")
	m.mJobSecs = reg.Histogram("oblxd_job_seconds", metrics.DurationBuckets)
	reg.SetHelp("oblxd_job_seconds", "per-job wall time")
	reg.GaugeFunc("oblxd_queue_depth", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.sched.Len())
	})
	reg.SetHelp("oblxd_queue_depth", "jobs waiting for a worker")
	for _, st := range allStates {
		st := st
		reg.GaugeFunc("oblxd_jobs", func() float64 { return float64(m.countState(st)) },
			"state", string(st))
	}
	reg.SetHelp("oblxd_jobs", "jobs by lifecycle state")
	m.mRetries = reg.Counter("oblxd_job_retries_total")
	reg.SetHelp("oblxd_job_retries_total", "supervised job requeues after a stall")
	m.mStalls = reg.Counter("oblxd_stalls_total")
	reg.SetHelp("oblxd_stalls_total", "running jobs killed by the stall watchdog")
	m.mShed = reg.Counter("oblxd_shed_total")
	reg.SetHelp("oblxd_shed_total", "submissions rejected because the queue was full")
	m.mPersistErr = reg.Counter("oblxd_persist_errors_total")
	reg.SetHelp("oblxd_persist_errors_total", "failed state-directory writes")
	m.mQuarantine = reg.Counter("oblxd_quarantined_files_total")
	reg.SetHelp("oblxd_quarantined_files_total", "state files quarantined by the startup fsck")
	m.mUnstable = reg.Counter("oblxd_eval_unstable_total")
	reg.SetHelp("oblxd_eval_unstable_total", "spec reads of transfer-function models that kept an RHP pole, once per evaluation per model read (still measured, but degraded)")
	reg.GaugeFunc("oblxd_degraded", func() float64 {
		if m.Degraded() {
			return 1
		}
		return 0
	})
	reg.SetHelp("oblxd_degraded", "1 while the state dir is unwritable and the daemon runs in-memory")
	for s := 0; s < telemetry.NumStages; s++ {
		m.mStage[s] = reg.Histogram("oblxd_eval_stage_seconds", telemetry.StageBuckets,
			"stage", telemetry.Stage(s).String())
	}
	reg.SetHelp("oblxd_eval_stage_seconds", "sampled wall time per cost-evaluation pipeline stage")
	reg.SetHelp("oblxd_span_duration_seconds", "distributed-trace span durations by span name")
	reg.SetHelp("oblxd_queue_wait_seconds", "submit (or requeue) to claim latency by tenant")
	reg.Gauge("oblxd_build_info", "version", buildVersion(), "goversion", runtime.Version()).Set(1)
	reg.SetHelp("oblxd_build_info", "build metadata; value is always 1")
	reg.GaugeFunc("oblxd_up", func() float64 { return float64(m.start.Unix()) })
	reg.SetHelp("oblxd_up", "daemon start time, unix seconds")

	if opt.StateDir != "" {
		if err := m.recover(); err != nil {
			return nil, err
		}
	}
	if !opt.ExternalExec {
		for i := 0; i < opt.Workers; i++ {
			m.wg.Add(1)
			go m.worker()
		}
		if opt.StallTimeout > 0 {
			m.wg.Add(1)
			go m.watchdog()
		}
	}
	return m, nil
}

// Registry exposes the manager's metrics registry (for /debug/metrics).
func (m *Manager) Registry() *metrics.Registry { return m.reg }

func (m *Manager) countState(st State) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, j := range m.jobs {
		if j.State() == st {
			n++
		}
	}
	return n
}

// newID returns a 12-hex-char random job ID.
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: id entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Origin says where a submission came from. The zero value is an
// anonymous submission in the default tenant.
type Origin struct {
	// RequestID is the submitting request's X-Request-Id, echoed in the
	// job's log lines for correlation.
	RequestID string
	// Tenant names the submitting principal; empty → the default tenant
	// (open mode).
	Tenant string
	// Traceparent, a W3C traceparent header, hangs the job's whole
	// lifecycle (queue wait, fleet hops, anneal, per-corner evals) off
	// the caller's trace. Absent or malformed, the trace ID derives from
	// RequestID instead.
	Traceparent string
}

// cacheKeyFor computes a deck's canonical content hash and the
// result-cache key of the (deck, options) pair. The key covers exactly
// what determines the synthesis outcome: the canonical deck (circuit,
// specs, variables) and the solver options — not ProgressEvery, which
// only shapes telemetry.
func cacheKeyFor(deckSrc string, opt JobOptions) (deckHash, key string, err error) {
	canon, err := netlist.Canonical(deckSrc)
	if err != nil {
		return "", "", err
	}
	deckHash, err = netlist.CanonicalHash(deckSrc)
	if err != nil {
		return "", "", err
	}
	key = rescache.Key(canon, rescache.KeyOptions{
		Seed: opt.Seed, MaxMoves: opt.MaxMoves, Runs: opt.Runs, NoFreeze: opt.NoFreeze,
		Corners: opt.Corners,
	})
	return deckHash, key, nil
}

// ensureTenantMetrics registers the per-tenant gauges once per tenant.
// Must be called without m.mu held: the registered func takes m.mu, so
// registering under it would invert the registry→manager lock order
// the exposition path establishes.
func (m *Manager) ensureTenantMetrics(tenant string) {
	m.mu.Lock()
	seen := m.tenantsSeen[tenant]
	m.tenantsSeen[tenant] = true
	m.mu.Unlock()
	if seen {
		return
	}
	t := tenant
	m.reg.GaugeFunc("oblxd_tenant_queue_depth", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.sched.Depth(t))
	}, "tenant", t)
	m.reg.SetHelp("oblxd_tenant_queue_depth", "jobs waiting in each tenant's lane")
}

// Submit validates a deck and enqueues a synthesis job in the tenant's
// fair-share lane. A deck that fails to parse or validate, or options
// beyond the daemon's limits, are rejected with a *DeckError; during
// shutdown Submit returns ErrDraining; when the bounded queue is at
// capacity it returns ErrQueueFull, and over the tenant's quota (queued
// bound, evaluation-rate budget) a *QuotaError (HTTP 429), leaving other
// tenants unaffected. When a result cache is configured, an identical
// (deck, options) resubmission completes instantly from the cached
// result without consuming a worker or a single evaluation.
func (m *Manager) Submit(deckSrc string, opt JobOptions, from Origin) (*Job, error) {
	submitStart := time.Now()
	a, err := m.admit(deckSrc, opt)
	if err != nil {
		return nil, err
	}
	return m.submitAdmitted(a, from, submitStart)
}

// admission is a submission that passed the checks every submit runs
// before any job exists (admit), with its options defaulted and its
// result-cache key built.
type admission struct {
	deck               string
	opt                JobOptions
	deckHash, cacheKey string
}

// admit runs the checks every single or batch submit runs before any
// job exists: the deck parses and validates, its corner selection names
// declared corners, and the options are within the daemon's limits. It
// defaults the options and builds the result-cache key. Every error it
// returns is the submitter's: a *DeckError (HTTP 400).
func (m *Manager) admit(deckSrc string, opt JobOptions) (admission, error) {
	reject := func(err error) (admission, error) { return admission{}, &DeckError{Err: err} }
	d, err := netlist.Parse(deckSrc)
	if err != nil {
		return reject(err)
	}
	if err := d.Validate(); err != nil {
		return reject(err)
	}
	// Corner selection is part of the cost function: reject unknown
	// names at the door instead of queueing a job doomed to fail.
	if _, err := astrx.SelectCorners(d, opt.Corners); err != nil {
		return reject(err)
	}
	opt.defaults()
	if m.opt.MaxMovesLimit > 0 && opt.MaxMoves > m.opt.MaxMovesLimit {
		return reject(fmt.Errorf("server: max_moves %d exceeds the daemon limit %d",
			opt.MaxMoves, m.opt.MaxMovesLimit))
	}
	if opt.Runs > maxRuns {
		return reject(fmt.Errorf("server: runs %d exceeds the limit %d", opt.Runs, maxRuns))
	}
	// A deck that parses always canonicalizes; treat failure as a deck
	// error rather than guessing at a key.
	deckHash, cacheKey, err := cacheKeyFor(deckSrc, opt)
	if err != nil {
		return reject(err)
	}
	return admission{deck: deckSrc, opt: opt, deckHash: deckHash, cacheKey: cacheKey}, nil
}

// submitAdmitted creates the job of an admitted submission: served from
// the result cache, or queued in the tenant's lane once the daemon is
// not draining, the queue has room and the tenant's quota admits it.
// submitStart is when the submission arrived, for its submit span.
func (m *Manager) submitAdmitted(a admission, from Origin, submitStart time.Time) (*Job, error) {
	tenant := from.Tenant
	if tenant == "" {
		tenant = tenancy.DefaultTenantName
	}
	opt := a.opt
	m.ensureTenantMetrics(tenant)

	j := &Job{
		ID:        newID(),
		Deck:      a.deck,
		Options:   opt,
		Created:   time.Now(),
		Tenant:    tenant,
		DeckHash:  a.deckHash,
		state:     StateQueued,
		bestCost:  math.NaN(),
		requestID: from.RequestID,
		cacheKey:  a.cacheKey,
	}
	m.initJobTrace(j, from.Traceparent)

	// Cache lookup precedes quota admission: a hit consumes no queue
	// slot, no worker, and no evaluation budget.
	if m.Draining() {
		return nil, ErrDraining
	}
	if payload, ok := m.cache.Get(a.cacheKey); ok {
		jj, cerr := m.completeFromCache(j, payload)
		if cerr == nil {
			j.trace.AddTimed("submit", "", submitStart, time.Since(submitStart),
				"cache_hit", "true")
			j.rootSpan.SetAttr("cache_hit", "true")
			m.endJobTrace(j, "ok", "cache-hit")
		}
		return jj, cerr
	}

	j.events = append(j.events, Event{Type: "state", State: StateQueued})

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if m.opt.MaxQueue > 0 && m.sched.Len() >= m.opt.MaxQueue {
		m.mu.Unlock()
		m.mShed.Inc()
		return nil, ErrQueueFull
	}
	// tenantQueued (not sched.Depth) is the admission count: it already
	// includes concurrent submissions still persisting below, so racing
	// submits cannot overshoot the tenant's bound.
	if t := m.auth.Tenant(tenant); t != nil {
		if q := t.Quota.MaxQueued; q > 0 && m.tenantQueued[tenant] >= q {
			m.mu.Unlock()
			m.mShed.Inc()
			return nil, &QuotaError{Tenant: tenant,
				Reason: fmt.Sprintf("max_queued %d reached", q)}
		}
	}
	m.tenantQueued[tenant]++
	m.jobs[j.ID] = j
	m.mu.Unlock()

	// The rate budget charges the job's worst-case evaluation count.
	if !m.auth.AllowEvals(tenant, float64(opt.MaxMoves)*float64(opt.Runs)) {
		m.mu.Lock()
		m.tenantQueued[tenant]--
		delete(m.jobs, j.ID)
		m.mu.Unlock()
		m.mShed.Inc()
		return nil, &QuotaError{Tenant: tenant, Reason: "evaluation budget exhausted"}
	}

	// Persist the queued record before the job becomes runnable, so a
	// worker can never transition a job that has no record on disk.
	m.persist(j)

	m.markQueued(j)
	m.mu.Lock()
	m.sched.Push(tenant, j)
	m.cond.Signal()
	m.mu.Unlock()

	j.trace.AddTimed("submit", "", submitStart, time.Since(submitStart))
	m.mSubmitted.Inc()
	m.reg.Counter("oblxd_jobs_total", "tenant", tenant).Inc()
	m.reg.SetHelp("oblxd_jobs_total", "jobs accepted, by tenant")
	m.jlog(j).Info("job queued", "state", StateQueued,
		"moves", opt.MaxMoves, "runs", opt.Runs, "seed", opt.Seed)
	return j, nil
}

// completeFromCache finishes a submission as an instant cache hit: the
// job record is terminal from birth (state done, cache_hit), its event
// stream is a single terminal event, and no worker, queue slot, or
// evaluation is consumed.
func (m *Manager) completeFromCache(j *Job, payload []byte) (*Job, error) {
	var result JobResult
	if err := json.Unmarshal(payload, &result); err != nil {
		// A quarantine-worthy payload should have been caught by the
		// cache's own verification; treat it as an internal error rather
		// than silently re-running.
		return nil, fmt.Errorf("server: corrupt cache payload for key %s: %w", j.cacheKey, err)
	}
	result.ID = j.ID
	now := time.Now()
	j.state = result.State
	j.err = result.Error
	j.finished = now
	j.result = &result
	j.cacheHit = true
	j.events = []Event{{Type: "state", State: result.State, Error: result.Error}}

	m.mu.Lock()
	m.jobs[j.ID] = j
	m.mu.Unlock()

	m.persist(j)
	m.mSubmitted.Inc()
	m.reg.Counter("oblxd_jobs_total", "tenant", j.Tenant).Inc()
	m.reg.Counter("oblxd_jobs_finished_total", "state", string(result.State)).Inc()
	m.jlog(j).Info("job completed from cache", "state", result.State, "deck_hash", j.DeckHash)
	return j, nil
}

// jlog returns the manager logger scoped to one job, carrying the
// job/req correlation attributes every lifecycle line shares. requestID
// is immutable after the job is published, so reading it unlocked is
// safe.
func (m *Manager) jlog(j *Job) *slog.Logger {
	lg := m.log.With("job", j.ID)
	if j.Tenant != "" {
		lg = lg.With("tenant", j.Tenant)
	}
	if j.requestID != "" {
		lg = lg.With("req", j.requestID)
	}
	if tid := j.trace.TraceID(); tid != "" {
		lg = lg.With("trace", tid)
	}
	return lg
}

// Get returns a job by ID, or nil.
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// Jobs returns all jobs, newest first. Terminal jobs stay in the table
// for the daemon's life, so the sort runs after m.mu is released.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	m.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Created.After(out[b].Created) })
	return out
}

// Cancel cancels a queued or running job. Cancelling a queued job is
// immediate; a running job's context is cancelled and the annealer
// returns its best-so-far design, which is kept as the (partial) result.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return fmt.Errorf("server: no job %s", id)
	}
	// Remove from the lane if still waiting. The tenant's MaxQueued
	// quota frees right here, not when a worker would have reached the
	// job — cancelling queued work must immediately make room for new
	// submissions.
	if m.sched.Remove(j.Tenant, j) {
		m.tenantQueued[j.Tenant]--
	}
	m.mu.Unlock()

	j.mu.Lock()
	state := j.state
	if !state.terminal() {
		j.userCancelled = true
	}
	j.mu.Unlock()
	if state.terminal() {
		return fmt.Errorf("server: job %s already %s", id, state)
	}
	// A queued job is cancelled here. One that a worker started since is
	// running: cancel its context (a fleet leaseholder learns of the
	// cancel on its next heartbeat), and the run keeps its best-so-far.
	if state != StateQueued || !m.finish(j, StateQueued, &JobResult{ID: j.ID, State: StateCancelled}) {
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	m.jlog(j).Info("cancel requested")
	return nil
}

// Draining reports whether the manager has begun shutting down.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Shutdown gracefully stops the manager: intake closes (Submit returns
// ErrDraining), queued jobs stay persisted for the next incarnation,
// running jobs are cancelled — each writes a final checkpoint at its
// exact cancellation move and is re-marked queued on disk — and the
// worker pool is drained. ctx bounds the wait.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.cond.Broadcast()
	m.mu.Unlock()

	m.cancel() // running jobs observe this and checkpoint out

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown timed out: %w", ctx.Err())
	}
}

// worker pulls jobs off the fair-share scheduler until shutdown. Pop
// can decline with jobs still queued (every backlogged lane at its
// tenant's running cap), so the wait condition is "Pop succeeded", not
// "queue non-empty" — DoneRunning signals the cond when a slot frees.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		var (
			j      *Job
			tenant string
			ok     bool
		)
		m.mu.Lock()
		for !m.draining {
			if j, tenant, ok = m.popLocked(); ok {
				break
			}
			m.cond.Wait()
		}
		m.mu.Unlock()
		if !ok {
			return
		}
		m.runJob(j)
		m.freeSlot(tenant)
	}
}

// popLocked takes the next fair-share job off the scheduler and counts
// it running. Callers hold m.mu.
func (m *Manager) popLocked() (*Job, string, bool) {
	j, tenant, ok := m.sched.Pop()
	if ok {
		m.tenantQueued[tenant]--
		m.running++
	}
	return j, tenant, ok
}

// freeSlot returns a popped job's running slot. The freed slot may
// unblock a lane capped at MaxRunning, so a waiting worker re-checks.
func (m *Manager) freeSlot(tenant string) {
	m.mu.Lock()
	m.running--
	m.sched.DoneRunning(tenant)
	m.cond.Signal()
	m.mu.Unlock()
}

// synthesize is the seam over the engine's one launcher, so
// supervision tests can substitute a run that stalls or blocks.
var synthesize = oblx.RunBest

// LaunchOptions returns the options a run of j starts from, for the
// local worker and the fleet coordinator alike: the job's own, with the
// daemon's progress cadence (Options.ProgressEvery) if it sets none.
func (m *Manager) LaunchOptions(j *Job) JobOptions {
	o := j.Options
	if o.ProgressEvery <= 0 {
		o.ProgressEvery = m.opt.ProgressEvery
	}
	return o
}

// runJob executes one synthesis job end to end.
func (m *Manager) runJob(j *Job) {
	ctx, cancel := context.WithCancel(m.ctx)
	if m.opt.JobDeadline > 0 {
		ctx, cancel = context.WithTimeout(m.ctx, m.opt.JobDeadline)
	}
	defer cancel()

	if !m.startRun(j, cancel) {
		return
	}
	j.mu.Lock()
	resume := j.resume
	j.mu.Unlock()

	deck, err := netlist.Parse(j.Deck)
	if err != nil { // validated at submit; only possible via disk corruption
		m.finishJob(j, nil, fmt.Errorf("server: reparse deck: %w", err), false)
		return
	}

	opt := m.LaunchOptions(j).RunOptions()
	opt.StageTimer = m.jobTimer(j)
	opt.Trace = j.trace
	opt.Progress = func(ev oblx.ProgressEvent) { m.RecordProgress(j, ev) }
	if m.opt.StateDir != "" {
		// RunBest honours these for a single-run job only; a multi-run
		// job restarts from scratch after a daemon kill.
		opt.CheckpointPath = m.checkpointPath(j.ID)
		opt.CheckpointEvery = m.opt.CheckpointEvery
		opt.Resume = resume
	}
	res, errs := synthesize(ctx, deck, j.Options.Runs, opt)
	if res == nil {
		err = errors.Join(errs...)
	}
	deadlineHit := m.opt.JobDeadline > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded)
	m.finishJob(j, res, err, deadlineHit)
}

// RecordProgress is a job's one progress sink: local runs call it from
// the annealer's Progress hook, the fleet coordinator with each
// heartbeat's sample. It feeds the eval counter and rate gauge, the
// accept gauge, the watchdog's liveness tick, best cost and the SSE
// stream, and records the sample as a move event on the job's root
// span. Late samples from a fenced or finished run are dropped.
func (m *Manager) RecordProgress(j *Job, ev oblx.ProgressEvent) {
	now := time.Now()
	j.mu.Lock()
	if j.state != StateRunning {
		j.mu.Unlock()
		return
	}
	if j.progEvals == nil {
		j.progEvals = make(map[int]int)
		j.progTime = make(map[int]time.Time)
	}
	if prev, ok := j.progEvals[ev.Run]; ok && ev.Evals > prev {
		m.mEvals.Add(int64(ev.Evals - prev))
		if dt := now.Sub(j.progTime[ev.Run]).Seconds(); dt > 0 {
			m.mEvalRate.Set(float64(ev.Evals-prev) / dt)
		}
	}
	j.progEvals[ev.Run] = ev.Evals
	j.progTime[ev.Run] = now
	m.mAccept.Set(ev.AcceptRatio)

	p := ev
	j.lastProg = &p
	j.lastTick = now
	if math.IsNaN(j.bestCost) || ev.BestCost < j.bestCost {
		j.bestCost = ev.BestCost
	}
	j.publishLocked(Event{Type: "progress", Prog: &p})
	root := j.rootSpan
	j.mu.Unlock()
	// Span calls stay outside j.mu (see the lock note in trace.go).
	root.Event("move", ev.MoveAttrs()...)
}

// watchdog periodically scans running jobs for missing progress ticks
// and kills stalled ones; finishJob then requeues them with backoff or
// poisons repeat offenders.
func (m *Manager) watchdog() {
	defer m.wg.Done()
	interval := m.opt.StallTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	for {
		if retry.Sleep(m.ctx, interval) != nil {
			return // shutting down
		}
		m.mu.Lock()
		jobs := make([]*Job, 0, len(m.jobs))
		for _, j := range m.jobs {
			jobs = append(jobs, j)
		}
		m.mu.Unlock()
		now := time.Now()
		for _, j := range jobs {
			j.mu.Lock()
			stalled := j.state == StateRunning && j.cancel != nil && !j.stallKilled &&
				now.Sub(j.lastTick) > m.opt.StallTimeout
			var cancel context.CancelFunc
			if stalled {
				j.stallKilled = true
				cancel = j.cancel
			}
			j.mu.Unlock()
			if stalled {
				m.mStalls.Inc()
				m.jlog(j).Warn("job stalled, killing", "stall_timeout", m.opt.StallTimeout)
				cancel()
			}
		}
	}
}

// finishJob maps a local run's outcome onto the job lifecycle: a
// watchdog kill goes to retryOrPoison, a run interrupted by shutdown is
// released for the next daemon incarnation, and every other outcome
// (done, failed, a user's cancel with its partial result kept, a
// terminal deadline failure) is finished.
func (m *Manager) finishJob(j *Job, res *oblx.Result, err error, deadlineHit bool) {
	j.mu.Lock()
	j.cancel = nil
	userCancelled := j.userCancelled
	stalled := j.stallKilled
	j.stallKilled = false
	j.mu.Unlock()

	switch {
	case stalled && !userCancelled:
		// The annealer checkpointed at the cancellation move, so the retry
		// resumes from there (single-run jobs) rather than replaying the
		// whole anneal.
		m.retryOrPoison(j, fmt.Sprintf("stalled: no progress within %s", m.opt.StallTimeout))
	case res != nil && res.Cancelled && !userCancelled && m.Draining():
		// The annealer wrote its final checkpoint at the cancellation move.
		m.release(j, "checkpointed for restart")
	default:
		result := BuildJobResult(j.ID, res, err)
		if deadlineHit && !userCancelled {
			// The per-job wall-clock deadline fired; the partial best-so-far
			// design is kept, but the job is a terminal failure, not a
			// cancellation the user asked for.
			result.State = StateFailed
			result.Error = fmt.Sprintf("server: job deadline %s exceeded", m.opt.JobDeadline)
		}
		if res != nil && res.CheckpointErr != nil {
			m.jlog(j).Warn("checkpoint writes failed", "err", res.CheckpointErr)
		}
		m.finish(j, StateRunning, result)
	}
}

// startRun marks a dequeued job running, for a local worker (which
// passes the run's cancel func) or a fleet claim (nil). It reports
// false, with no side effect, when the job left the queue after the pop:
// a Cancel finished it, or is finishing it.
func (m *Manager) startRun(j *Job, cancel context.CancelFunc) bool {
	j.mu.Lock()
	if j.state != StateQueued || j.finishing {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.lastTick = j.started
	j.cancel = cancel
	attempt := j.attempts + 1
	j.publishLocked(Event{Type: "state", State: StateRunning})
	j.mu.Unlock()

	m.persist(j)
	m.noteClaimed(j)
	m.jlog(j).Info("job running", "state", StateRunning, "attempt", attempt)
	return true
}

// finish is the one terminal transition: a local run's outcome, a fleet
// commit, a poisoning and the cancel of a queued job all end here. It
// reports false, with no side effect, unless the job is in state from
// (running, or queued for a cancel) and no other call is finishing it.
//
// Before the terminal state is published, the checkpoint is removed, a
// done result is cached and the job is counted, so a watcher that sees
// the state finds no checkpoint, hits the cache when it resubmits and
// finds the job counted when it scrapes. If the daemon dies before the
// terminal record persists, recovery finds a record with no checkpoint
// and re-runs the job from scratch: at-least-once, never lost. No file
// is written under j.mu, so status and SSE readers never wait on one.
func (m *Manager) finish(j *Job, from State, result *JobResult) bool {
	j.mu.Lock()
	if j.state != from || j.finishing {
		j.mu.Unlock()
		return false
	}
	j.finishing = true
	started, attempts := j.started, j.attempts
	j.mu.Unlock()

	state := result.State
	now := time.Now()
	m.removeCheckpoint(j)
	m.cacheStore(j, result)
	m.reg.Counter("oblxd_jobs_finished_total", "state", string(state)).Inc()
	if !started.IsZero() {
		m.mJobSecs.Observe(now.Sub(started).Seconds())
	}
	m.recordFailures(j, result.Result)

	j.mu.Lock()
	j.state = state
	j.err = result.Error
	j.finished = now
	j.result = result
	j.publishLocked(Event{Type: "state", State: state, Error: result.Error})
	j.mu.Unlock()

	m.persist(j)
	// A poisoned job's trace keeps the failure that exhausted it.
	cause := string(state)
	if n := len(result.History); state == StatePoisoned && n > 0 {
		cause = result.History[n-1].Error
	}
	m.endJobTrace(j, traceStatus(state), cause)
	switch lg := m.jlog(j); {
	case state == StatePoisoned:
		lg.Error("job poisoned", "state", state, "attempt", attempts, "cause", cause)
	case result.Error != "":
		lg.Warn("job finished", "state", state, "err", result.Error)
	default:
		lg.Info("job finished", "state", state)
	}
	return true
}

// recordFailures counts the failures a finished run absorbed, from its
// result view, so runs on fleet workers count like local ones: unstable
// fits, per-corner failures and quarantines, and a degraded result.
func (m *Manager) recordFailures(j *Job, v *oblx.ResultView) {
	if v == nil {
		return
	}
	if n := v.Failures.Unstable; n > 0 {
		m.mUnstable.Add(int64(n))
	}
	for name, cf := range v.Failures.Corners {
		if cf.Fails > 0 {
			m.reg.Counter("oblxd_corner_eval_failures_total", "corner", name).Add(int64(cf.Fails))
			m.reg.SetHelp("oblxd_corner_eval_failures_total", "per-corner evaluation failures in worst-case runs (post-retry)")
		}
		if cf.Quarantined {
			m.jlog(j).Warn("corner quarantined for the rest of the run",
				"corner", name, "fails", cf.Fails, "retries", cf.Retries)
		}
	}
	if v.Degraded {
		m.reg.Counter("oblxd_jobs_degraded_total").Inc()
		m.reg.SetHelp("oblxd_jobs_degraded_total", "worst-case jobs that finished with at least one corner quarantined")
	}
}

// release hands a running job back to the queue without burning an
// attempt: a local run interrupted by shutdown, or a fleet worker's
// graceful drain. A single-run job resumes from the checkpoint its run
// left at its last move: on disk after a shutdown, in j.resume when a
// fleet worker shipped it. The root span stays open, and the spans so
// far are snapshotted so they outlive the process. A draining manager
// leaves the job queued on disk for the next incarnation; otherwise it
// goes to the head of its lane, since it was claimed first.
func (m *Manager) release(j *Job, cause string) {
	j.mu.Lock()
	if j.state != StateRunning || j.finishing {
		j.mu.Unlock()
		return
	}
	j.state = StateQueued
	j.started = time.Time{}
	j.publishLocked(Event{Type: "state", State: StateQueued})
	j.mu.Unlock()

	m.persist(j)
	m.snapshotTrace(j, cause)
	m.markQueued(j)
	m.mu.Lock()
	if !m.draining {
		m.sched.PushFront(j.Tenant, j)
		m.tenantQueued[j.Tenant]++
		m.cond.Signal()
	}
	m.mu.Unlock()
	m.jlog(j).Info("job released", "state", StateQueued, "cause", cause)
}

// traceStatus maps a terminal job state onto a span status.
func traceStatus(s State) string {
	switch s {
	case StateDone:
		return "ok"
	case StateCancelled:
		return "cancelled"
	default:
		return "error"
	}
}

// cacheStore records a successfully finished job's result in the
// result cache (rw mode only; no-op otherwise). Only clean StateDone
// outcomes are cacheable — a cancelled or failed run's partial result
// must never be served as the answer to a fresh submission.
func (m *Manager) cacheStore(j *Job, result *JobResult) {
	if result.State != StateDone || j.cacheKey == "" {
		return
	}
	data, err := json.Marshal(result)
	if err != nil {
		return
	}
	m.cache.Put(j.cacheKey, data)
}

// BuildJobResult projects a synthesis outcome into the wire-form job
// result: terminal-state classification, the result view, and the
// reference-simulation verdict. It is exported because fleet workers
// build the result next to the anneal — where the compiled problem
// lives — and ship the finished JobResult to the coordinator.
func BuildJobResult(id string, res *oblx.Result, runErr error) *JobResult {
	result := &JobResult{ID: id}
	var state State
	switch {
	case runErr != nil:
		state = StateFailed
		result.Error = runErr.Error()
	case res == nil:
		state = StateFailed
		result.Error = "server: synthesis returned no result"
	case res.Cancelled:
		state = StateCancelled
	default:
		state = StateDone
	}
	if res != nil {
		result.Result = res.View()
		// Reference-simulate the final design. A cancelled job's
		// half-annealed point may fail to verify; that is a caveat on
		// the partial result, not a job failure.
		rep, verr := verify.Design(res.Compiled, res.X, res.State.SpecVals)
		if verr != nil {
			result.VerifyError = verr.Error()
		} else {
			vs := &VerifySummary{
				Specs:          rep.Specs,
				BiasIterations: rep.BiasIterations,
				BiasConverged:  rep.BiasConverged,
				MaxKCL:         rep.MaxKCL,
				WorstRelErr:    rep.WorstRelErr,
				AllMet:         true,
			}
			for _, row := range rep.Specs {
				if !row.Objective && !row.Met {
					vs.AllMet = false
				}
			}
			result.Verify = vs
		}
	}
	result.State = state
	return result
}

// retryOrPoison is the one requeue that burns an attempt, for a
// watchdog-killed run or a revoked fleet lease: record the failure,
// requeue with exponential backoff while attempts remain, and poison the
// job — terminally, with its history attached — once they run out.
func (m *Manager) retryOrPoison(j *Job, cause string) {
	j.mu.Lock()
	j.attempts++
	attempt := j.attempts
	j.history = append(j.history, JobFailure{Attempt: attempt, Error: cause, Time: time.Now()})
	if m.rpol.Exhausted(attempt) {
		result := &JobResult{ID: j.ID, State: StatePoisoned, History: j.history,
			Error: fmt.Sprintf("server: poisoned after %d attempts; last: %s", attempt, cause)}
		j.mu.Unlock()
		m.finish(j, StateRunning, result)
		return
	}

	j.state = StateQueued
	j.started = time.Time{}
	// Resume the retry from the checkpoint the killed run left behind
	// (only a single-run job writes one).
	if m.opt.StateDir != "" {
		if ck, err := oblx.LoadCheckpointFS(m.fsys, m.checkpointPath(j.ID)); err == nil {
			j.resume = ck
		}
	}
	j.publishLocked(Event{Type: "state", State: StateQueued, Error: cause})
	j.mu.Unlock()

	// The root span's last move events are the evidence a post-mortem
	// needs; the next attempt keeps appending to the same root span.
	m.snapshotTrace(j, cause)
	m.mRetries.Inc()
	// The backoff is queue time: the next queue-wait span opens now, so
	// submit→claim latency counts the supervisor's delay too.
	m.markQueued(j)
	m.persist(j)
	delay := m.rpol.Backoff(attempt)
	m.jlog(j).Warn("job requeued", "state", StateQueued, "backoff", delay.Round(time.Millisecond),
		"attempt", attempt, "max_attempts", m.rpol.MaxAttempts, "cause", cause)
	go func() {
		if retry.Sleep(m.ctx, delay) != nil {
			return // draining: the job stays parked queued on disk
		}
		m.enqueue(j)
	}()
}

// enqueue puts a backoff-delayed job back on the run queue, unless the
// manager began draining (the job stays queued on disk for the next
// incarnation) or the job was cancelled while waiting.
func (m *Manager) enqueue(j *Job) {
	if j.State() != StateQueued {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return
	}
	m.sched.Push(j.Tenant, j)
	m.tenantQueued[j.Tenant]++
	m.cond.Signal()
}

// Health is the JSON body of GET /healthz. docs/operations.md documents
// the full schema.
type Health struct {
	// Status is "ok", "degraded" (state dir unwritable, running
	// in-memory), or "draining" (shutting down; served with 503).
	Status           string  `json:"status"`
	QueueDepth       int     `json:"queue_depth"`
	WorkersBusy      int     `json:"workers_busy"`
	Workers          int     `json:"workers"`
	StateDirWritable bool    `json:"state_dir_writable"`
	UptimeSeconds    float64 `json:"uptime_seconds"`
	// Fleet carries the coordinator-mode extension: registered fleet
	// workers with a liveness breakdown, and the claimable queue depth.
	// Absent in standalone mode.
	Fleet *FleetHealth `json:"fleet,omitempty"`
}

// FleetHealth is the fleet section of /healthz in coordinator mode.
type FleetHealth struct {
	// Workers counts every fleet worker the coordinator has heard from.
	Workers int `json:"workers"`
	// WorkersByState breaks Workers down by liveness: "alive" (recent
	// heartbeat), "suspect" (missed a few), "dead" (past the lease TTL).
	WorkersByState map[string]int `json:"workers_by_state"`
	// QueueDepth is the number of jobs waiting for a worker to claim.
	QueueDepth int `json:"queue_depth"`
}

// SetFleetHealth installs the hook that contributes the fleet section
// of /healthz; the fleet coordinator calls it once at construction.
func (m *Manager) SetFleetHealth(fn func() *FleetHealth) {
	m.mu.Lock()
	m.fleetHealth = fn
	m.mu.Unlock()
}

// Health snapshots the manager for the health endpoint.
func (m *Manager) Health() Health {
	m.mu.Lock()
	h := Health{
		Status:           "ok",
		QueueDepth:       m.sched.Len(),
		WorkersBusy:      m.running,
		Workers:          m.opt.Workers,
		StateDirWritable: m.opt.StateDir != "" && !m.degraded,
		UptimeSeconds:    time.Since(m.start).Seconds(),
	}
	switch {
	case m.draining:
		h.Status = "draining"
	case m.degraded:
		h.Status = "degraded"
	}
	fh := m.fleetHealth
	m.mu.Unlock()
	if fh != nil {
		h.Fleet = fh()
	}
	return h
}

// retryAfterEstimate predicts when a shed submission is worth retrying:
// the expected queue-drain time from measured job durations (5s per job
// until any job has finished here), clamped to [1s, 5m]. The HTTP layer
// rounds it up into the 429 Retry-After header.
func (m *Manager) retryAfterEstimate() time.Duration {
	avg := 5.0
	if n := m.mJobSecs.Count(); n > 0 {
		avg = m.mJobSecs.Sum() / float64(n)
	}
	m.mu.Lock()
	depth := m.sched.Len()
	m.mu.Unlock()
	workers := m.opt.Workers
	if workers < 1 {
		workers = 1
	}
	est := time.Duration(avg * float64(depth) / float64(workers) * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > 5*time.Minute {
		est = 5 * time.Minute
	}
	return est
}
