package server

import (
	"encoding/json"
	"fmt"

	"astrx/internal/oblx"
	"astrx/internal/retry"
)

// This file is the manager's external-execution seam: the surface a
// fleet coordinator (internal/fleet) drives when Options.ExternalExec
// is set. The manager keeps sole ownership of the durable job store,
// the queue, the SSE streams, and the retry/poison supervision policy;
// the coordinator decides *when* each transition happens (lease grant,
// expiry, completion) and calls in here to make it so. Lock order
// matters: these methods never hold j.mu while acquiring m.mu, matching
// the rest of the package.

// ClaimQueued pops the next fair-share-scheduled job and marks it
// running on behalf of an external executor, skipping jobs that turned
// terminal while queued. It returns nil when nothing is drainable
// (every lane empty or at its tenant's running cap) or the manager is
// draining. The fleet coordinator claims through here, so per-tenant
// fairness governs distributed mode exactly as it governs the local
// worker pool.
func (m *Manager) ClaimQueued() *Job {
	for {
		var (
			j      *Job
			tenant string
			ok     bool
		)
		m.mu.Lock()
		if !m.draining {
			j, tenant, ok = m.popLocked()
		}
		m.mu.Unlock()
		if !ok {
			return nil
		}
		if m.startRun(j, nil) {
			return j
		}
		m.freeSlot(tenant) // cancelled while queued, raced with the pop
	}
}

// CompleteExternal commits a result shipped by the job's leaseholder,
// making the job terminal exactly once. A job that is no longer running
// here (already completed, requeued after a lease expiry, cancelled)
// rejects the commit with an error and no side effect — the
// manager-level backstop under the fleet's epoch fencing.
func (m *Manager) CompleteExternal(j *Job, result *JobResult) error {
	if !result.State.terminal() {
		if result.Error == "" {
			result.Error = fmt.Sprintf("server: external completion with non-terminal state %q", result.State)
		}
		result.State = StateFailed
	}
	result.ID = j.ID
	if !m.finish(j, StateRunning, result) {
		return fmt.Errorf("server: job %s is %s, not running; completion rejected", j.ID, j.State())
	}
	m.freeSlot(j.Tenant)
	return nil
}

// RequeueExternal hands a leased job back to supervision after its
// executor died or stalled: the failure burns a supervised attempt, so
// the job is requeued with backoff while attempts remain and poisoned —
// terminal, with its failure history persisted — once they run out,
// exactly like a local watchdog kill.
func (m *Manager) RequeueExternal(j *Job, cause string) {
	if j.State() != StateRunning {
		return
	}
	m.freeSlot(j.Tenant)
	m.retryOrPoison(j, cause)
}

// ReleaseExternal returns a leased job to the head of the queue without
// burning a supervised attempt — the graceful hand-off of a draining
// worker. A checkpoint the worker shipped first (PutCheckpointPayload)
// is the resume point for the next claimant.
func (m *Manager) ReleaseExternal(j *Job) {
	if j.State() != StateRunning {
		return
	}
	m.freeSlot(j.Tenant)
	m.release(j, "released by worker")
}

// PutCheckpointPayload validates and stores a checkpoint a fleet worker
// shipped for this job: it becomes the in-memory resume point
// immediately and is sealed to the state directory when one exists, so
// any other worker — under this coordinator incarnation or the next —
// resumes the anneal from this exact move.
func (m *Manager) PutCheckpointPayload(j *Job, payload []byte) error {
	ck, err := oblx.DecodeCheckpoint(payload)
	if err != nil {
		return fmt.Errorf("server: shipped checkpoint for job %s: %w", j.ID, err)
	}
	j.mu.Lock()
	j.resume = ck
	j.mu.Unlock()
	if m.opt.StateDir == "" {
		return nil
	}
	if err := m.writeState(m.checkpointPath(j.ID), payload); err != nil {
		return fmt.Errorf("server: persist shipped checkpoint for job %s: %w", j.ID, err)
	}
	return nil
}

// ResumePayload returns the job's resume checkpoint as raw JSON, or nil
// when the next run starts from scratch. Claim responses carry it to
// the worker.
func (m *Manager) ResumePayload(j *Job) []byte {
	j.mu.Lock()
	ck := j.resume
	j.mu.Unlock()
	if ck == nil {
		return nil
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return nil
	}
	return data
}

// QueueDepth reports the number of jobs waiting to be claimed.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sched.Len()
}

// RetryPolicy exposes the manager's supervised-retry policy, so the
// fleet coordinator paces per-run re-leases with the same schedule the
// manager applies to whole jobs.
func (m *Manager) RetryPolicy() retry.Policy { return m.rpol }

// CheckpointEvery is the manager's checkpoint cadence
// (Options.CheckpointEvery; 0 → oblx's default), which the fleet
// coordinator hands to the workers of resumable runs.
func (m *Manager) CheckpointEvery() int { return m.opt.CheckpointEvery }

// RequestID returns the submit-time correlation ID (X-Request-Id or
// traceparent trace ID). It is immutable once the job is published, so
// reading it unlocked is safe; claim responses propagate it to workers.
func (j *Job) RequestID() string { return j.requestID }

// UserCancelled reports whether a client asked to cancel this job. The
// coordinator polls it to turn DELETE into a cancel instruction on the
// next heartbeat of the job's leaseholder.
func (j *Job) UserCancelled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancelled
}
