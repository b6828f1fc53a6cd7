package server

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

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
		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			return nil
		}
		j, tenant, ok := m.sched.Pop()
		if !ok {
			m.mu.Unlock()
			return nil
		}
		m.tenantQueued[tenant]--
		m.running++
		m.mu.Unlock()

		j.mu.Lock()
		if j.state != StateQueued { // cancelled while queued, raced with the pop
			j.mu.Unlock()
			m.mu.Lock()
			m.running--
			m.sched.DoneRunning(tenant)
			m.mu.Unlock()
			continue
		}
		j.state = StateRunning
		j.started = time.Now()
		j.lastTick = j.started
		attempt := j.attempts + 1
		j.publishLocked(Event{Type: "state", State: StateRunning})
		j.mu.Unlock()

		if err := m.persist(j); err != nil {
			m.jlog(j).Error("persist failed", "err", err)
		}
		m.noteClaimed(j)
		m.jlog(j).Info("job running", "state", StateRunning, "attempt", attempt)
		return j
	}
}

// RecordExternalProgress feeds one progress event from an external
// worker into the job: SSE fan-out, best-cost tracking, throughput
// metrics, the flight recorder, and the liveness tick — the same
// accounting a local run's Progress callback performs.
func (m *Manager) RecordExternalProgress(j *Job, ev oblx.ProgressEvent) {
	now := time.Now()
	m.jobTelem(j).flight.Record(ev.FlightRecord())
	m.mAccept.Set(ev.AcceptRatio)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return // late event from a fenced or finished run
	}
	if j.extEvals == nil {
		j.extEvals = make(map[int]int)
		j.extTime = make(map[int]time.Time)
	}
	if prev, ok := j.extEvals[ev.Run]; ok && ev.Evals > prev {
		m.mEvals.Add(int64(ev.Evals - prev))
		if dt := now.Sub(j.extTime[ev.Run]).Seconds(); dt > 0 {
			m.mEvalRate.Set(float64(ev.Evals-prev) / dt)
		}
	}
	j.extEvals[ev.Run] = ev.Evals
	j.extTime[ev.Run] = now

	p := ev
	j.lastProg = &p
	j.lastTick = now
	if math.IsNaN(j.bestCost) || ev.BestCost < j.bestCost {
		j.bestCost = ev.BestCost
	}
	j.publishLocked(Event{Type: "progress", Prog: &p})
}

// CompleteExternal commits a result shipped by the job's leaseholder,
// making the job terminal exactly once. A job that is no longer running
// here (already completed, requeued after a lease expiry, cancelled)
// rejects the commit with an error — the manager-level backstop under
// the fleet's epoch fencing.
func (m *Manager) CompleteExternal(j *Job, result *JobResult) error {
	state := result.State
	if !state.terminal() {
		state = StateFailed
		if result.Error == "" {
			result.Error = fmt.Sprintf("server: external completion with non-terminal state %q", result.State)
		}
	}
	result.ID = j.ID
	result.State = state

	// Remove the crash-recovery checkpoint before the terminal state
	// becomes observable, same ordering as finishJob.
	m.removeCheckpoint(j, state)

	now := time.Now()
	j.mu.Lock()
	if j.state != StateRunning {
		st := j.state
		j.mu.Unlock()
		return fmt.Errorf("server: job %s is %s, not running; completion rejected", j.ID, st)
	}
	// The cache entry lands before the terminal state is published, as
	// in finishJob; holding j.mu keeps a rejected duplicate out of it.
	m.cacheStore(j, state, result)
	j.state = state
	j.err = result.Error
	j.finished = now
	j.result = result
	j.publishLocked(Event{Type: "state", State: state, Error: result.Error})
	started := j.started
	j.mu.Unlock()

	m.reg.Counter("oblxd_jobs_finished_total", "state", string(state)).Inc()
	if !started.IsZero() {
		m.mJobSecs.Observe(now.Sub(started).Seconds())
	}
	if err := m.persist(j); err != nil {
		m.jlog(j).Error("persist failed", "err", err)
	}
	m.endJobTrace(j, traceStatus(state), string(state))
	if result.Error != "" {
		m.jlog(j).Warn("job finished", "state", state, "err", result.Error)
	} else {
		m.jlog(j).Info("job finished", "state", state)
	}

	m.mu.Lock()
	m.running--
	m.sched.DoneRunning(j.Tenant)
	m.cond.Signal()
	m.mu.Unlock()
	return nil
}

// RequeueExternal hands a leased job back to supervision after its
// executor died or stalled: the failure burns a supervised attempt, so
// the job is requeued with backoff while attempts remain and poisoned —
// terminal, with its failure history persisted — once they run out,
// exactly like a local watchdog kill.
func (m *Manager) RequeueExternal(j *Job, cause string) {
	j.mu.Lock()
	if j.state != StateRunning {
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()

	m.mu.Lock()
	m.running--
	m.sched.DoneRunning(j.Tenant)
	m.cond.Signal()
	m.mu.Unlock()
	m.retryOrPoison(j, cause)
}

// ReleaseExternal returns a leased job to the head of the queue without
// burning a supervised attempt — the graceful hand-off of a draining
// worker. A checkpoint the worker shipped first (PutCheckpointPayload)
// becomes the resume point for the next claimant.
func (m *Manager) ReleaseExternal(j *Job) {
	j.mu.Lock()
	if j.state != StateRunning {
		j.mu.Unlock()
		return
	}
	j.state = StateQueued
	j.started = time.Time{}
	if j.Options.Runs <= 1 && m.opt.StateDir != "" {
		if ck, err := oblx.LoadCheckpointFS(m.fsys, m.checkpointPath(j.ID)); err == nil {
			j.resume = ck
		}
	}
	j.publishLocked(Event{Type: "state", State: StateQueued})
	j.mu.Unlock()

	if err := m.persist(j); err != nil {
		m.jlog(j).Error("persist failed", "err", err)
	}
	m.markQueued(j)
	m.mu.Lock()
	m.running--
	m.sched.DoneRunning(j.Tenant)
	if !m.draining {
		// Head of the tenant's lane: the job was claimed first, so
		// per-lane FIFO order is preserved across the hand-off.
		m.sched.PushFront(j.Tenant, j)
		m.tenantQueued[j.Tenant]++
		m.cond.Signal()
	}
	m.mu.Unlock()
	m.jlog(j).Info("job released by worker", "state", StateQueued)
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
	if j.Options.Runs <= 1 {
		j.resume = ck
	}
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

// SnapshotExternalFlight persists the job's flight-recorder ring, so a
// fleet-supervised failure leaves the same post-mortem artifact a local
// watchdog kill does.
func (m *Manager) SnapshotExternalFlight(j *Job, cause string) {
	m.snapshotFlight(j, cause)
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

// Terminal reports whether the state is final (done, failed, or
// cancelled) — exported for fleet code and tests that watch jobs from
// outside the package.
func (s State) Terminal() bool { return s.terminal() }

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
