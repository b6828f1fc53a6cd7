package server

import (
	"net/http"
	"path/filepath"
	"time"

	"astrx/internal/durable"
	"astrx/internal/metrics"
	"astrx/internal/trace"
)

// This file is the manager's distributed-tracing seam: every job carries
// a trace.Recorder from submit to terminal state, the lifecycle spans
// (job root, submit, queue-wait, anneal, per-corner lanes) land in it
// from both local workers and fleet workers, and the tree is served at
// GET /v1/jobs/{id}/trace — live while the recorder exists, from the
// durable snapshot (job-<id>.trace) afterwards.
//
// Lock order: recorder methods that complete spans fire the OnEnd
// histogram hook, which takes the metrics-registry lock; the exposition
// path holds that lock while gauge funcs take m.mu and j.mu. So span
// Begin/End/AddTimed/Add calls here always happen OUTSIDE j.mu and m.mu.

// initJobTrace builds the job's recorder from the submit-time W3C
// traceparent header (the client's trace continues into the job) or,
// absent/malformed, from the request ID. Must run before the job is
// published: j.trace and j.rootSpan are immutable afterwards, like
// j.requestID.
func (m *Manager) initJobTrace(j *Job, traceparent string) {
	var tid, remoteParent string
	if tc, err := trace.Parse(traceparent); err == nil {
		tid, remoteParent = tc.TraceID, tc.SpanID
	} else {
		tid = trace.TraceIDFromRequest(j.requestID)
	}
	m.attachJobTrace(j, trace.Context{TraceID: tid, SpanID: trace.RootSpanID(tid)}, remoteParent)
}

// attachJobTrace wires a recorder for the given trace context onto the
// job and opens the deterministic root span. Recovery reattaches with
// the persisted context, so a restarted daemon keeps extending the same
// trace tree.
func (m *Manager) attachJobTrace(j *Job, tc trace.Context, remoteParent string) {
	rec := trace.NewRecorder(tc, m.opt.TraceRecords)
	rec.OnEnd(func(name string, d time.Duration) {
		m.reg.Histogram("oblxd_span_duration_seconds", metrics.DurationBuckets,
			"span", name).Observe(d.Seconds())
	})
	root := rec.BeginRoot("job", remoteParent)
	root.SetAttr("job", j.ID)
	root.SetAttr("tenant", j.Tenant)
	j.trace = rec
	j.traceRemote = remoteParent
	j.rootSpan = root
}

// Trace exposes the job's span recorder (nil for recovered terminal
// jobs). Immutable once the job is published, so the unlocked read is
// safe; the fleet coordinator records claim spans and ingests shipped
// worker spans through it.
func (j *Job) Trace() *trace.Recorder { return j.trace }

// TraceContext renders the job's propagation context ("" when the job
// has no recorder): trace ID plus the deterministic root span ID, which
// is what claim responses carry to workers and what the job record
// persists.
func (j *Job) TraceContext() string { return j.trace.Traceparent() }

// AddTraceSpans ingests spans shipped by the job's fleet leaseholder.
// The coordinator calls it only after epoch fencing succeeds, so a
// zombie worker's spans never pollute the trace.
func (m *Manager) AddTraceSpans(j *Job, spans []trace.Span) {
	for _, sp := range spans {
		j.trace.Add(sp)
	}
}

// markQueued notes that the job entered (or re-entered) the queue: it
// stamps the queue-wait start time and opens the queue-wait span. Both
// are idempotent, so racing callers cannot double-start a wait.
func (m *Manager) markQueued(j *Job) {
	j.mu.Lock()
	need := j.queueSpan == nil
	if j.queuedAt.IsZero() {
		j.queuedAt = time.Now()
	}
	j.mu.Unlock()
	if !need {
		return
	}
	sp := j.trace.Begin("queue-wait", "")
	sp.SetAttr("tenant", j.Tenant)
	j.mu.Lock()
	if j.queueSpan == nil && !j.state.terminal() {
		j.queueSpan = sp
		sp = nil
	}
	j.mu.Unlock()
	sp.End("") // lost the race; close the orphan
}

// noteClaimed closes the queue-wait span and observes the submit→claim
// latency histogram. Called when a local worker picks the job up and
// when the fleet coordinator grants a claim.
func (m *Manager) noteClaimed(j *Job) {
	j.mu.Lock()
	sp := j.queueSpan
	j.queueSpan = nil
	waited := time.Duration(0)
	if !j.queuedAt.IsZero() {
		waited = time.Since(j.queuedAt)
		j.queuedAt = time.Time{}
	}
	j.mu.Unlock()
	sp.End("")
	if waited > 0 {
		m.reg.Histogram("oblxd_queue_wait_seconds", metrics.DurationBuckets,
			"tenant", j.Tenant).Observe(waited.Seconds())
	}
}

// endJobTrace closes the job's trace at a terminal state: any open
// queue-wait span and the root span end with the given status, and the
// snapshot goes to the state dir so the tree outlives the process.
func (m *Manager) endJobTrace(j *Job, status, cause string) {
	j.mu.Lock()
	qs, root := j.queueSpan, j.rootSpan
	j.queueSpan, j.rootSpan = nil, nil
	j.mu.Unlock()
	qs.End(status)
	root.SetAttr("state", cause)
	root.End(status)
	m.snapshotTrace(j, cause)
}

// tracePath is where a job's durable trace snapshot lives. Like the
// .flight artifact, the suffix keeps it invisible to the job-record
// fsck and the file deliberately survives the job turning terminal.
func (m *Manager) tracePath(id string) string {
	return filepath.Join(m.opt.StateDir, "job-"+id+".trace")
}

// snapshotTrace seals the recorder's current span set (open spans
// included, flagged) into the state dir. Called at terminal states and
// wherever the flight recorder snapshots (stall, poison, deadline,
// shutdown), so the spans of a killed run survive the daemon.
func (m *Manager) snapshotTrace(j *Job, cause string) {
	if m.opt.StateDir == "" || j.trace == nil {
		return
	}
	spans := j.trace.Snapshot()
	data, err := trace.EncodeSnapshot(trace.SnapshotHeader{
		TraceID: j.trace.TraceID(),
		Label:   j.ID,
		Cause:   cause,
		Time:    time.Now(),
		Dropped: j.trace.Dropped(),
	}, spans)
	if err != nil {
		m.jlog(j).Error("encode trace snapshot failed", "err", err)
		return
	}
	if err := m.writeState(m.tracePath(j.ID), data); err != nil {
		m.jlog(j).Error("persist trace snapshot failed", "err", err)
		return
	}
	m.jlog(j).Info("trace snapshot written", "cause", cause, "spans", len(spans))
}

// loadTraceSnapshot reads a job's durable trace snapshot back, verifying
// the envelope and the payload version.
func (m *Manager) loadTraceSnapshot(id string) (trace.SnapshotHeader, []trace.Span, error) {
	data, err := durable.ReadSealed(m.fsys, m.tracePath(id))
	if err != nil {
		return trace.SnapshotHeader{}, nil, err
	}
	return trace.DecodeSnapshot(data)
}

// seedTraceFromSnapshot re-ingests a prior incarnation's completed spans
// into a freshly attached recorder, so a daemon restart keeps the job's
// trace one tree. Open spans are skipped: the root reopens with the same
// deterministic ID, and a killed attempt's half-open spans are gone with
// the process that owned them.
func (m *Manager) seedTraceFromSnapshot(j *Job) {
	if m.opt.StateDir == "" {
		return
	}
	_, spans, err := m.loadTraceSnapshot(j.ID)
	if err != nil {
		return
	}
	for _, sp := range spans {
		j.trace.Add(sp) // Add drops open spans and foreign trace IDs
	}
}

// TraceSummary is the JSON body of GET /v1/jobs/{id}/trace: the job's
// span tree plus where it came from. Source is "live" while the
// recorder exists in this incarnation, "snapshot" when served from the
// durable artifact of a previous one.
type TraceSummary struct {
	ID      string        `json:"id"`
	State   State         `json:"state"`
	TraceID string        `json:"trace_id"`
	Source  string        `json:"source"` // "live" | "snapshot"
	Cause   string        `json:"cause,omitempty"`
	Time    *time.Time    `json:"time,omitempty"`
	Spans   int           `json:"spans"`
	Dropped int           `json:"dropped,omitempty"`
	Tree    []*trace.Node `json:"tree"`
}

// traceFor resolves a job's trace, preferring the live recorder over
// the durable snapshot. A nil summary means the job predates tracing.
func (m *Manager) traceFor(j *Job) *TraceSummary {
	state := j.State()
	if rec := j.trace; rec != nil {
		spans := rec.Snapshot()
		return &TraceSummary{
			ID:      j.ID,
			State:   state,
			TraceID: rec.TraceID(),
			Source:  "live",
			Spans:   len(spans),
			Dropped: rec.Dropped(),
			Tree:    trace.Tree(spans),
		}
	}
	hdr, spans, err := m.loadTraceSnapshot(j.ID)
	if err != nil {
		return nil
	}
	sum := &TraceSummary{
		ID:      j.ID,
		State:   state,
		TraceID: hdr.TraceID,
		Source:  "snapshot",
		Cause:   hdr.Cause,
		Spans:   len(spans),
		Dropped: hdr.Dropped,
		Tree:    trace.Tree(spans),
	}
	if !hdr.Time.IsZero() {
		t := hdr.Time
		sum.Time = &t
	}
	return sum
}

// handleTrace serves GET /v1/jobs/{id}/trace. Jobs recovered from
// records written before the daemon gained tracing (no recorder, no
// snapshot on disk) answer 409, matching the telemetry endpoint.
func (m *Manager) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := m.jobOr404(w, r)
	if j == nil {
		return
	}
	sum := m.traceFor(j)
	if sum == nil {
		writeErr(w, http.StatusConflict,
			"job %s has no trace: it predates this daemon's tracer", j.ID)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}
