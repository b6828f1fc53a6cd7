package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"astrx/internal/durable"
	"astrx/internal/oblx"
	"astrx/internal/tenancy"
	"astrx/internal/trace"
)

// jobRecord is the on-disk form of a job (job-<id>.json in the state
// directory). Terminal jobs keep their full result so a restarted daemon
// can still serve GET /result; queued jobs keep enough to re-run; a job
// that was running when the daemon died is recorded as running and
// requeued with its checkpoint (job-<id>.ckpt) on recovery.
//
// Records are sealed in a checksummed durable envelope and written
// atomically; the startup fsck in recover verifies every file before
// trusting it.
type jobRecord struct {
	Version int        `json:"version"`
	ID      string     `json:"id"`
	Deck    string     `json:"deck"`
	Options JobOptions `json:"options"`
	Created time.Time  `json:"created"`
	State   State      `json:"state"`
	Error   string     `json:"error,omitempty"`
	Result  *JobResult `json:"result,omitempty"`
	// Attempts and History carry the supervision state across restarts,
	// so a job that stalled twice under the previous daemon has only its
	// remaining attempts left under this one.
	Attempts int          `json:"attempts,omitempty"`
	History  []JobFailure `json:"history,omitempty"`
	// RequestID keeps the submit-time correlation ID across restarts, so
	// the whole lifecycle stays greppable by one ID. Optional, so
	// version-2 records from before the field are still valid.
	RequestID string `json:"request_id,omitempty"`
	// Tenant names the submitting principal; empty (pre-v3 records)
	// recovers as the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// DeckHash is the deck's canonical content hash.
	DeckHash string `json:"deck_hash,omitempty"`
	// CacheHit marks a job that completed instantly from the result
	// cache, so the distinction survives a restart.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Traceparent is the job's distributed-trace propagation context
	// (trace ID + deterministic root span ID), so a restarted daemon
	// keeps extending the same trace. Optional, like RequestID, so
	// records from before the field are still valid.
	Traceparent string `json:"traceparent,omitempty"`
	// TraceRemoteParent is the client span ID the trace root is
	// remotely parented to, so the link survives a restart.
	TraceRemoteParent string `json:"trace_remote_parent,omitempty"`
}

// jobRecordVersion 3 added the tenancy and result-cache fields; 2 added
// the envelope seal and the supervision fields. Version-1 records (raw
// JSON) and version-2 records are still readable.
const jobRecordVersion = 3

// quarantineDir is where the startup fsck moves files it refuses to
// trust, relative to the state directory.
const quarantineDir = "quarantine"

func (m *Manager) jobPath(id string) string {
	return filepath.Join(m.opt.StateDir, "job-"+id+".json")
}

func (m *Manager) checkpointPath(id string) string {
	return filepath.Join(m.opt.StateDir, "job-"+id+".ckpt")
}

// persist writes the job's current state to the state directory as a
// sealed envelope, atomically (tmp + fsync + rename + dir fsync). A
// manager without a state directory persists nothing. Success and
// failure feed the degraded-mode flag: an unwritable state directory
// turns the daemon read-only in-memory instead of crashing it, and the
// next successful write turns it back.
func (m *Manager) persist(j *Job) error {
	if m.opt.StateDir == "" {
		return nil
	}
	j.mu.Lock()
	rec := jobRecord{
		Version:   jobRecordVersion,
		ID:        j.ID,
		Deck:      j.Deck,
		Options:   j.Options,
		Created:   j.Created,
		State:     j.state,
		Error:     j.err,
		Result:    j.result,
		Attempts:  j.attempts,
		History:   j.history,
		RequestID: j.requestID,
		Tenant:    j.Tenant,
		DeckHash:  j.DeckHash,
		CacheHit:  j.cacheHit,
	}
	j.mu.Unlock()
	rec.Traceparent = j.TraceContext()
	rec.TraceRemoteParent = j.traceRemote

	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return fmt.Errorf("server: marshal job %s: %w", j.ID, err)
	}
	if err := m.writeState(m.jobPath(j.ID), data); err != nil {
		return fmt.Errorf("server: persist job %s: %w", j.ID, err)
	}
	return nil
}

// writeState writes one state-directory file as a sealed envelope and
// feeds the outcome to the degraded-mode flag: a failure flips the
// manager into degraded (in-memory) mode, a success clears it. Each
// write takes a sequence number when it starts, and a success older
// than the last failure is ignored — a slow write that began before the
// directory broke proves nothing about it now.
func (m *Manager) writeState(path string, data []byte) error {
	seq := m.stateSeq.Add(1)
	err := durable.WriteSealedAtomic(m.fsys, path, data)
	if err != nil {
		m.mPersistErr.Inc()
	}
	m.mu.Lock()
	was := m.degraded
	switch {
	case err != nil:
		m.degraded = true
		m.stateFailSeq = max(m.stateFailSeq, seq)
	case seq > m.stateFailSeq:
		m.degraded = false
	}
	now := m.degraded
	m.mu.Unlock()
	switch {
	case !was && now:
		m.log.Error("state dir unwritable, degrading to in-memory mode", "err", err)
	case was && !now:
		m.log.Info("state dir writable again, leaving degraded mode")
	}
	return err
}

// Degraded reports whether the manager is running in-memory because the
// state directory stopped accepting writes.
func (m *Manager) Degraded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degraded
}

// removeCheckpoint deletes a job's checkpoint once it reaches a terminal
// state — the snapshot only exists to survive a crash mid-run.
func (m *Manager) removeCheckpoint(j *Job, st State) {
	if m.opt.StateDir == "" || !st.terminal() {
		return
	}
	if err := m.fsys.Remove(m.checkpointPath(j.ID)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		m.jlog(j).Warn("remove checkpoint failed", "err", err)
	}
}

// quarantine moves a state-directory file the fsck refuses to trust into
// quarantine/ (with a .reason sidecar) instead of deleting it, so an
// operator can inspect what was lost and why. See docs/operations.md.
func (m *Manager) quarantine(name, reason string) {
	qdir := filepath.Join(m.opt.StateDir, quarantineDir)
	if err := m.fsys.MkdirAll(qdir, 0o755); err != nil {
		m.log.Error("fsck: cannot create quarantine dir, leaving file in place",
			"dir", qdir, "file", name, "err", err)
		return
	}
	src := filepath.Join(m.opt.StateDir, name)
	dst := filepath.Join(qdir, name)
	if err := m.fsys.Rename(src, dst); err != nil {
		m.log.Error("fsck: cannot quarantine file", "file", name, "err", err)
		return
	}
	if err := m.fsys.WriteFile(dst+".reason", []byte(reason+"\n"), 0o644); err != nil {
		m.log.Error("fsck: cannot record quarantine reason", "file", name, "err", err)
	}
	m.mQuarantine.Inc()
	m.log.Warn("fsck: quarantined file", "file", name, "reason", reason)
}

// recover is the startup fsck plus job recovery. Every job-*.json is
// verified (envelope checksum, parseable JSON, supported version, ID
// matching the filename, no duplicates) before it is trusted; anything
// that fails moves to quarantine/ with a recorded reason rather than
// aborting startup or silently resuming from garbage. Orphan checkpoints
// (no record) are quarantined too, and stale temp files from interrupted
// atomic writes are deleted.
//
// Surviving records recover as before: terminal jobs become servable
// history; queued jobs re-enter the queue; jobs recorded as running died
// with the previous daemon and are requeued — with their checkpoint
// attached when one exists and verifies, so single-run jobs resume from
// the exact move the last snapshot captured. A corrupt checkpoint is
// quarantined and its job restarts from scratch: a lost prefix of moves,
// never a lost job.
func (m *Manager) recover() error {
	if err := m.fsys.MkdirAll(m.opt.StateDir, 0o755); err != nil {
		return fmt.Errorf("server: state dir: %w", err)
	}
	entries, err := m.fsys.ReadDir(m.opt.StateDir)
	if err != nil {
		return fmt.Errorf("server: read state dir: %w", err)
	}

	var requeue []*Job
	var ckpts []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
			continue
		case strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-"):
			// Leftover from an atomic write the previous daemon never
			// committed; the rename never happened, so nothing references it.
			m.fsys.Remove(filepath.Join(m.opt.StateDir, name))
			m.log.Info("fsck: removed stale temp file", "file", name)
			continue
		case strings.HasPrefix(name, "job-") && strings.HasSuffix(name, ".ckpt"):
			ckpts = append(ckpts, name)
			continue
		case !strings.HasPrefix(name, "job-") || !strings.HasSuffix(name, ".json"):
			continue
		}

		rec, why := m.loadRecord(name)
		if rec == nil {
			m.quarantine(name, why)
			continue
		}
		if _, dup := m.jobs[rec.ID]; dup {
			m.quarantine(name, fmt.Sprintf("duplicate job ID %s", rec.ID))
			continue
		}
		tenant := rec.Tenant
		if tenant == "" {
			tenant = tenancy.DefaultTenantName
		}
		j := &Job{
			ID:        rec.ID,
			Deck:      rec.Deck,
			Options:   rec.Options,
			Created:   rec.Created,
			Tenant:    tenant,
			DeckHash:  rec.DeckHash,
			state:     rec.State,
			err:       rec.Error,
			result:    rec.Result,
			attempts:  rec.Attempts,
			history:   rec.History,
			requestID: rec.RequestID,
			cacheHit:  rec.CacheHit,
			bestCost:  math.NaN(),
		}
		// Recompute the cache key (and a missing hash) so a recovered
		// job's eventual result still lands in the cache.
		if dh, ck, err := cacheKeyFor(rec.Deck, rec.Options); err == nil {
			j.cacheKey = ck
			if j.DeckHash == "" {
				j.DeckHash = dh
			}
		}
		switch rec.State {
		case StateDone, StateFailed, StateCancelled, StatePoisoned:
			// No live recorder: GET /trace serves the durable snapshot the
			// terminal transition sealed (409 for pre-tracing records).
			j.events = append(j.events, Event{Type: "state", State: rec.State, Error: rec.Error})
		case StateQueued, StateRunning:
			// Re-attach the persisted trace context (or derive one for
			// pre-tracing records) and replay the previous incarnation's
			// completed spans, so the resumed job stays one trace tree.
			if tc, terr := trace.Parse(rec.Traceparent); terr == nil {
				m.attachJobTrace(j, tc, rec.TraceRemoteParent)
			} else {
				m.initJobTrace(j, "")
			}
			m.seedTraceFromSnapshot(j)
			j.state = StateQueued
			j.events = append(j.events, Event{Type: "state", State: StateQueued})
			ckName := "job-" + rec.ID + ".ckpt"
			if ck, err := oblx.LoadCheckpointFS(m.fsys, m.checkpointPath(rec.ID)); err == nil {
				if rec.Options.Runs <= 1 {
					j.resume = ck
					// restart tests grep for "will resume from move" —
					// keep the phrase in the message.
					m.jlog(j).Info("job will resume from move", "move", ck.Anneal.Move)
				}
			} else if !errors.Is(err, fs.ErrNotExist) {
				m.quarantine(ckName, fmt.Sprintf("unreadable checkpoint for job %s: %v", rec.ID, err))
				m.jlog(j).Warn("checkpoint quarantined, restarting run from scratch")
			}
			requeue = append(requeue, j)
		default:
			m.quarantine(name, fmt.Sprintf("unknown state %q", rec.State))
			continue
		}
		m.jobs[j.ID] = j
	}

	// Checkpoints must belong to a live record; anything else is either
	// garbage from a lost record (quarantine: the operator may want the
	// moves) or a leftover of a terminal job (delete: its result is safe).
	for _, name := range ckpts {
		id := strings.TrimSuffix(strings.TrimPrefix(name, "job-"), ".ckpt")
		j := m.jobs[id]
		switch {
		case j == nil:
			m.quarantine(name, "orphan checkpoint: no job record for "+id)
		case j.State().terminal():
			m.fsys.Remove(filepath.Join(m.opt.StateDir, name))
			m.log.Info("fsck: removed checkpoint of terminal job", "job", id)
		}
	}

	// Requeue in original submission order; pushing in global Created
	// order rebuilds every tenant's lane in its own Created order, so
	// per-lane FIFO survives the restart.
	sort.Slice(requeue, func(a, b int) bool {
		return requeue[a].Created.Before(requeue[b].Created)
	})
	for _, j := range requeue {
		m.ensureTenantMetrics(j.Tenant)
		m.markQueued(j)
		m.sched.Push(j.Tenant, j)
		m.tenantQueued[j.Tenant]++
	}
	if n := len(requeue); n > 0 {
		m.log.Info("recovered pending jobs", "count", n, "dir", m.opt.StateDir)
	}
	return nil
}

// loadRecord reads and verifies one job-<id>.json. On failure it returns
// a nil record and the quarantine reason.
func (m *Manager) loadRecord(name string) (*jobRecord, string) {
	data, err := m.fsys.ReadFile(filepath.Join(m.opt.StateDir, name))
	if err != nil {
		return nil, fmt.Sprintf("unreadable: %v", err)
	}
	if len(data) == 0 {
		return nil, "zero-byte record"
	}
	payload := data
	if durable.IsSealed(data) {
		payload, err = durable.Open(data)
		if err != nil {
			return nil, fmt.Sprintf("envelope verification failed: %v", err)
		}
	}
	var rec jobRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Sprintf("corrupt JSON: %v", err)
	}
	if rec.Version < 1 || rec.Version > jobRecordVersion {
		return nil, fmt.Sprintf("unsupported record version %d", rec.Version)
	}
	if rec.ID == "" {
		return nil, "record has no job ID"
	}
	if want := "job-" + rec.ID + ".json"; name != want {
		return nil, fmt.Sprintf("filename does not match embedded job ID %s", rec.ID)
	}
	return &rec, ""
}
