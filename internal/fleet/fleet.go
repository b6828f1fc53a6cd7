// Package fleet splits the oblxd daemon into a coordinator/worker
// fleet, pushing the robustness story past the process boundary: the
// paper's throughput claim ("circuit-level designs in minutes" by
// spending huge numbers of cheap evaluations) scales horizontally only
// if many machines can anneal concurrently without losing or
// duplicating work.
//
// The coordinator owns the durable job store (a server.Manager with
// Options.ExternalExec set) and hands out leases over HTTP. A worker
// claims one run of one job, renews the lease with heartbeats that
// carry progress ticks, ships checkpoints back through durable
// envelopes, and commits the finished result. Supervision generalizes
// the standalone stall watchdog into two distinguishable failures:
//
//   - missed heartbeats → the worker died (or is partitioned); the
//     lease expires and the job is re-leased to any other worker, which
//     resumes from the last shipped checkpoint;
//   - heartbeats without eval progress → the job stalled; the
//     coordinator revokes the lease and requeues with backoff, burning
//     a supervised attempt, until the job is poisoned.
//
// Every lease carries a fencing epoch from a monotonic, durably
// persisted counter. A partitioned worker that comes back after its
// job was re-leased holds a stale epoch, so its late heartbeats,
// checkpoints, and commits are rejected ("fenced") instead of
// overwriting the successor's work — the exactly-once half the lease
// TTL alone cannot give. Multi-start jobs (Runs > 1) fan out as
// independent per-run leases, seeded as oblx.RunBest seeds its runs, so
// a fleet finishes a RunBest job the way one process would, just wider.
package fleet

import (
	"encoding/json"
	"time"

	"astrx/internal/oblx"
	"astrx/internal/server"
	"astrx/internal/trace"
)

// Fleet protocol endpoints, all POST, mounted by Coordinator.Handler:
//
//	/v1/fleet/claim               claim one run of one job (204 when idle)
//	/v1/fleet/jobs/{id}/heartbeat renew the lease; carries a progress tick
//	/v1/fleet/jobs/{id}/checkpoint ship the run's latest checkpoint
//	/v1/fleet/jobs/{id}/complete  commit the finished result (idempotent)
//	/v1/fleet/jobs/{id}/release   hand the lease back (graceful drain)
//
// Requests identified by a (worker, epoch) pair that does not match the
// active lease answer 409 with a "fenced" error body. Workers propagate
// the job's X-Request-Id on every call, so one grep follows a job
// across machines.

// ClaimRequest is the body of POST /v1/fleet/claim.
type ClaimRequest struct {
	Worker string `json:"worker"`
}

// ClaimResponse grants a lease over one run of one job.
type ClaimResponse struct {
	JobID string `json:"job_id"`
	// Run is the run index within a multi-start job (0 for single-run).
	Run int `json:"run"`
	// Epoch is the lease's fencing token; the worker echoes it on every
	// subsequent message about this run.
	Epoch uint64 `json:"epoch"`
	Deck  string `json:"deck"`
	// Options are the job's synthesis knobs as the coordinator's manager
	// launches them (Manager.LaunchOptions: the daemon's progress cadence
	// when the job sets none), with Runs forced to 1 and Seed already
	// offset for this run index.
	Options server.JobOptions `json:"options"`
	// Resumable marks a single-run job: the worker checkpoints locally,
	// ships snapshots, and resumes from Checkpoint when present.
	Resumable bool `json:"resumable,omitempty"`
	// CheckpointEvery is the move interval between local checkpoints.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Checkpoint is the resume point (raw checkpoint JSON), if any.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// LeaseTTL is how long the lease lives without a heartbeat;
	// HeartbeatEvery is the cadence the worker must beat at.
	LeaseTTL       time.Duration `json:"lease_ttl_ns"`
	HeartbeatEvery time.Duration `json:"heartbeat_every_ns"`
	// RequestID is the job's correlation ID, threaded through worker log
	// lines and echoed back on fleet calls.
	RequestID string `json:"request_id,omitempty"`
	// Traceparent is the job's W3C trace context (trace ID + the job
	// root span ID). The worker's anneal and eval spans join this trace
	// and parent under the root, so one trace spans the fleet hop — and
	// a re-lease after a worker death keeps extending the same tree.
	Traceparent string `json:"traceparent,omitempty"`
}

// HeartbeatRequest renews a lease. Progress carries the latest
// annealing telemetry sample; the coordinator uses Evals advancement to
// distinguish "alive and working" from "alive but stalled".
type HeartbeatRequest struct {
	Worker   string              `json:"worker"`
	Run      int                 `json:"run"`
	Epoch    uint64              `json:"epoch"`
	Progress *oblx.ProgressEvent `json:"progress,omitempty"`
	// Spans are trace spans completed on the worker since the last
	// heartbeat, shipped home so the coordinator's trace tree stays the
	// single source of truth. Ingested only when the fencing check
	// passes.
	Spans []trace.Span `json:"spans,omitempty"`
}

// HeartbeatResponse acknowledges a lease renewal.
type HeartbeatResponse struct {
	// Cancel instructs the worker to stop the run and commit its
	// best-so-far as cancelled (client DELETE propagated to the fleet).
	Cancel bool `json:"cancel,omitempty"`
}

// CheckpointRequest ships a run's latest checkpoint to the coordinator,
// which seals it into the durable job store so any worker can resume.
type CheckpointRequest struct {
	Worker  string          `json:"worker"`
	Run     int             `json:"run"`
	Epoch   uint64          `json:"epoch"`
	Payload json.RawMessage `json:"payload"`
}

// CompleteRequest commits a run's terminal outcome. Completion is
// idempotent per (run, epoch): a duplicated delivery acknowledges
// instead of double-committing.
type CompleteRequest struct {
	Worker string            `json:"worker"`
	Run    int               `json:"run"`
	Epoch  uint64            `json:"epoch"`
	Result *server.JobResult `json:"result"`
	// Spans are the final trace spans of the run (the anneal span and
	// any evals since the last heartbeat).
	Spans []trace.Span `json:"spans,omitempty"`
}

// ReleaseRequest hands a lease back without a result — the graceful
// drain of a worker shutting down. The job re-enters the queue head
// with no supervised attempt burned.
type ReleaseRequest struct {
	Worker string `json:"worker"`
	Run    int    `json:"run"`
	Epoch  uint64 `json:"epoch"`
	// Spans are trace spans completed since the last heartbeat, so a
	// graceful drain loses no tracing either.
	Spans []trace.Span `json:"spans,omitempty"`
}

// apiError is the JSON error body of fleet endpoints.
type apiError struct {
	Error string `json:"error"`
}
