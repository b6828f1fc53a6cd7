// Package trace is a stdlib-only, W3C-traceparent-compatible span layer
// for the synthesis pipeline. A job's trace/span IDs derive from its
// existing request ID, so the same identifier correlates logs, metrics
// exemplars, and the span tree.
//
// The Recorder is nil-receiver safe throughout, like telemetry.Clock:
// every method on a nil *Recorder or nil *Active is a no-op, so code can
// be instrumented unconditionally and pay nothing (no branches beyond a
// nil check, no allocations) when tracing is off. High-volume sampled
// eval spans go into a bounded ring; low-volume lifecycle spans
// (submit, queue-wait, claim, anneal, corner lanes) go into a separate
// pinned ring that eval traffic can never evict. Both rings grow on
// demand up to their caps, so a short job pays only for what it records.
package trace

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Context is a W3C trace context: the 32-hex-digit trace ID and a
// 16-hex-digit span ID. Depending on direction the span ID is either
// the remote parent (when parsed from an incoming traceparent) or the
// local span new children should attach to (when propagated outward).
type Context struct {
	TraceID string
	SpanID  string
}

// Traceparent renders the context as a version-00 W3C traceparent
// header value with the sampled flag set.
func (c Context) Traceparent() string {
	return "00-" + c.TraceID + "-" + c.SpanID + "-01"
}

// Parse validates a W3C traceparent header value strictly:
//
//   - version is 2 lowercase hex digits and not the forbidden "ff"
//   - version 00 has exactly four fields (future versions may append
//     fields, which we accept and ignore)
//   - trace-id is 32 lowercase hex digits, not all zero
//   - parent-id is 16 lowercase hex digits, not all zero
//   - trace-flags is 2 lowercase hex digits
//
// It returns the embedded trace ID and parent span ID.
func Parse(tp string) (Context, error) {
	parts := strings.Split(tp, "-")
	if len(parts) < 4 {
		return Context{}, fmt.Errorf("trace: traceparent has %d fields, want at least 4", len(parts))
	}
	ver := parts[0]
	if !isHexLower(ver, 2) {
		return Context{}, fmt.Errorf("trace: bad traceparent version %q", ver)
	}
	if ver == "ff" {
		return Context{}, fmt.Errorf("trace: traceparent version ff is forbidden")
	}
	if ver == "00" && len(parts) != 4 {
		return Context{}, fmt.Errorf("trace: version-00 traceparent has %d fields, want 4", len(parts))
	}
	tid, pid, flags := parts[1], parts[2], parts[3]
	if !isHexLower(tid, 32) || allZero(tid) {
		return Context{}, fmt.Errorf("trace: bad trace ID %q", tid)
	}
	if !isHexLower(pid, 16) || allZero(pid) {
		return Context{}, fmt.Errorf("trace: bad parent span ID %q", pid)
	}
	if !isHexLower(flags, 2) {
		return Context{}, fmt.Errorf("trace: bad trace flags %q", flags)
	}
	return Context{TraceID: tid, SpanID: pid}, nil
}

func isHexLower(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// TraceIDFromRequest derives a trace ID from a job's request ID. A
// request ID that already is a well-formed trace ID (the HTTP layer
// promotes incoming traceparent trace IDs into request IDs) is used
// verbatim, so the client's trace and the job's trace are the same
// trace. Anything else is hashed, and an empty request ID gets a
// random ID.
func TraceIDFromRequest(requestID string) string {
	if isHexLower(requestID, 32) && !allZero(requestID) {
		return requestID
	}
	if requestID == "" {
		var b [16]byte
		if _, err := rand.Read(b[:]); err == nil && !allZeroBytes(b[:]) {
			return hex.EncodeToString(b[:])
		}
		requestID = "oblx-random-fallback"
	}
	sum := sha256.Sum256([]byte(requestID))
	return hex.EncodeToString(sum[:16])
}

// RootSpanID is the deterministic root span ID for a trace. Deriving
// it from the trace ID alone means the coordinator and every worker
// incarnation of a job agree on the root without coordination — a
// resumed attempt on a different machine parents to the same root and
// the trace stays one tree across worker death.
func RootSpanID(traceID string) string {
	sum := sha256.Sum256([]byte("oblx-root:" + traceID))
	id := hex.EncodeToString(sum[:8])
	if allZero(id) { // astronomically unlikely, but keep W3C-valid
		id = id[:15] + "1"
	}
	return id
}

// NewSpanID mints a random 16-hex-digit span ID. Span IDs are only
// minted off the eval hot path (span starts and sampled marks), so
// crypto/rand's cost is irrelevant.
func NewSpanID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil || allZeroBytes(b[:]) {
		b[7] = 1
	}
	return hex.EncodeToString(b[:])
}

func allZeroBytes(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Span kinds. Lifecycle spans are pinned (eval traffic cannot evict
// them); eval spans live in the sampled ring.
const (
	KindLifecycle = "lifecycle"
	KindEval      = "eval"
)

// Event is a timestamped annotation on a span (a corner quarantine, a
// checkpoint resume, ...).
type Event struct {
	Name  string            `json:"name"`
	Time  time.Time         `json:"time"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Span is one completed (or, in snapshots, still-open) operation.
type Span struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	Parent     string            `json:"parent_span_id,omitempty"`
	Name       string            `json:"name"`
	Kind       string            `json:"kind,omitempty"`
	Start      time.Time         `json:"start"`
	DurationNS int64             `json:"duration_ns"`
	Open       bool              `json:"open,omitempty"`
	Status     string            `json:"status,omitempty"` // "", "ok", "error", "cancelled"
	Attrs      map[string]string `json:"attrs,omitempty"`
	Events     []Event           `json:"events,omitempty"`
}

// ring is a bounded overwrite-oldest span buffer. It grows by append
// until it holds max spans, then overwrites the oldest; start indexes
// the oldest span once the buffer is full.
type ring struct {
	buf   []Span
	max   int
	start int
}

// push files sp and reports whether a span was lost to make room (or
// sp itself, on a zero-capacity ring).
func (r *ring) push(sp Span) (dropped bool) {
	switch {
	case r.max <= 0:
		return true
	case len(r.buf) < r.max:
		r.buf = append(r.buf, sp)
		return false
	}
	r.buf[r.start] = sp
	r.start = (r.start + 1) % len(r.buf)
	return true
}

func (r *ring) appendTo(dst []Span) []Span {
	dst = append(dst, r.buf[r.start:]...)
	return append(dst, r.buf[:r.start]...)
}

// DefaultRingCap is the per-job sampled-span ring capacity when the
// caller passes 0.
const DefaultRingCap = 256

// lifecycleCap bounds the pinned lifecycle ring. Lifecycle spans are a
// handful per attempt, so in practice nothing is ever evicted; the cap
// only guards against a pathological retry storm.
const lifecycleCap = 256

// pendingCap bounds the ship buffer of lifecycle spans on workers
// between drains. Sampled eval spans wait in a ring of their own, as
// large as the eval ring, so a burst of them cannot crowd out a
// lifecycle span.
const pendingCap = 512

// MaxSpanEvents bounds the events one span keeps. A job's root span
// carries a move event per progress sample, so a long run reaches the
// cap; the oldest event is then evicted and counted in Dropped.
const MaxSpanEvents = 2048

// Recorder collects one job's spans: a pinned lifecycle ring, a
// bounded sampled-eval ring, the set of still-open spans, and (on fleet
// workers) a pending buffer drained into heartbeat/complete RPCs. All
// methods are safe on a nil receiver and safe for concurrent use.
type Recorder struct {
	mu        sync.Mutex
	tc        Context // trace ID + the span new top-level spans parent to
	life      ring
	evals     ring
	dropped   int // spans and span events evicted or discarded
	open      []*Active
	shipping  bool
	pending   []Span // lifecycle spans to ship
	shipEvals ring   // eval spans to ship once their parent has ended
	onEnd     func(name string, d time.Duration)
}

// NewRecorder builds a recorder for trace tc.TraceID whose top-level
// spans parent to tc.SpanID (typically the deterministic root span
// ID). ringCap caps the sampled-eval ring; 0 means DefaultRingCap.
// Neither ring allocates until spans arrive.
func NewRecorder(tc Context, ringCap int) *Recorder {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Recorder{
		tc:    tc,
		life:  ring{max: lifecycleCap},
		evals: ring{max: ringCap},
	}
}

// EnableShipping turns on the pending buffer: completed spans are also
// queued for DrainNew, for shipping across the fleet hop.
func (r *Recorder) EnableShipping() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.shipping = true
	r.shipEvals = ring{max: r.evals.max}
	r.mu.Unlock()
}

// OnEnd registers a hook called (under the recorder lock) with every
// completed span's name and duration — the span-duration histogram
// feed. Shipped spans ingested via Add fire it too.
func (r *Recorder) OnEnd(fn func(name string, d time.Duration)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.onEnd = fn
	r.mu.Unlock()
}

// TraceID returns the trace ID ("" on a nil recorder).
func (r *Recorder) TraceID() string {
	if r == nil {
		return ""
	}
	return r.tc.TraceID
}

// ParentID returns the span ID top-level spans parent to.
func (r *Recorder) ParentID() string {
	if r == nil {
		return ""
	}
	return r.tc.SpanID
}

// Traceparent renders the recorder's outbound propagation context:
// children created by the receiving side parent to ParentID.
func (r *Recorder) Traceparent() string {
	if r == nil {
		return ""
	}
	return r.tc.Traceparent()
}

// Active is a started, not-yet-ended span. Nil-safe like the recorder.
type Active struct {
	r  *Recorder
	sp Span // guarded by r.mu once published in r.open
}

// Begin starts a lifecycle span. An empty parent means the recorder's
// ParentID; pass ParentNone for a genuine root.
func (r *Recorder) Begin(name, parent string) *Active {
	if r == nil { // nil check before NewSpanID: tracing-off must not pay for randomness
		return nil
	}
	return r.begin(name, parent, NewSpanID())
}

// BeginRoot starts the trace's root span using the deterministic
// per-trace root span ID, parented (remotely) to the caller-supplied
// span, e.g. the span ID from a client's traceparent header.
func (r *Recorder) BeginRoot(name, remoteParent string) *Active {
	if r == nil {
		return nil
	}
	return r.begin(name, orNone(remoteParent), r.tc.SpanID)
}

// ParentNone marks a span as a root: no parent even when the recorder
// has a default parent span.
const ParentNone = "-"

func orNone(parent string) string {
	if parent == "" {
		return ParentNone
	}
	return parent
}

func (r *Recorder) begin(name, parent, id string) *Active {
	if r == nil {
		return nil
	}
	switch parent {
	case "":
		parent = r.tc.SpanID
	case ParentNone:
		parent = ""
	}
	a := &Active{r: r, sp: Span{
		TraceID: r.tc.TraceID,
		SpanID:  id,
		Parent:  parent,
		Name:    name,
		Kind:    KindLifecycle,
		Start:   time.Now(),
	}}
	r.mu.Lock()
	r.open = append(r.open, a)
	r.mu.Unlock()
	return a
}

// ID returns the span ID ("" on nil).
func (a *Active) ID() string {
	if a == nil {
		return ""
	}
	return a.sp.SpanID
}

// SetAttr sets a string attribute on the span.
func (a *Active) SetAttr(k, v string) {
	if a == nil {
		return
	}
	a.r.mu.Lock()
	if a.sp.Attrs == nil {
		a.sp.Attrs = make(map[string]string, 4)
	}
	a.sp.Attrs[k] = v
	a.r.mu.Unlock()
}

// Event appends a timestamped event; kv is alternating key/value
// attribute pairs.
func (a *Active) Event(name string, kv ...string) {
	if a == nil {
		return
	}
	ev := Event{Name: name, Time: time.Now()}
	if len(kv) >= 2 {
		ev.Attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			ev.Attrs[kv[i]] = kv[i+1]
		}
	}
	a.AppendEvents(ev)
}

// AppendEvents appends already-built events, oldest first — how a
// restarted daemon carries a reopened root span's events over from the
// previous incarnation's snapshot. Past MaxSpanEvents the oldest event
// is evicted and counted in Dropped.
func (a *Active) AppendEvents(evs ...Event) {
	if a == nil {
		return
	}
	r := a.r
	r.mu.Lock()
	for _, ev := range evs {
		if len(a.sp.Events) >= MaxSpanEvents {
			a.sp.Events = append(a.sp.Events[:0], a.sp.Events[1:]...)
			r.dropped++
		}
		a.sp.Events = append(a.sp.Events, ev)
	}
	r.mu.Unlock()
}

// End completes the span with the given status ("" means ok) and
// commits it to the recorder. Ending twice is a no-op.
func (a *Active) End(status string) {
	if a == nil {
		return
	}
	r := a.r
	r.mu.Lock()
	idx := -1
	for i, o := range r.open {
		if o == a {
			idx = i
			break
		}
	}
	if idx < 0 { // already ended
		r.mu.Unlock()
		return
	}
	r.open = append(r.open[:idx], r.open[idx+1:]...)
	sp := a.sp
	sp.DurationNS = time.Since(sp.Start).Nanoseconds()
	if status == "" {
		status = "ok"
	}
	sp.Status = status
	r.commitLocked(sp)
	r.mu.Unlock()
}

// EndErr ends with status "error" and an error attribute, or "ok" when
// err is nil.
func (a *Active) EndErr(err error) {
	if a == nil {
		return
	}
	if err == nil {
		a.End("ok")
		return
	}
	a.SetAttr("error", err.Error())
	a.End("error")
}

// commitLocked files a completed span. Caller holds r.mu.
func (r *Recorder) commitLocked(sp Span) {
	dst := &r.life
	if sp.Kind == KindEval {
		dst = &r.evals
	}
	if dst.push(sp) {
		r.dropped++
	}
	if r.shipping {
		switch {
		case sp.Kind == KindEval:
			if r.shipEvals.push(sp) {
				r.dropped++
			}
		case len(r.pending) < pendingCap:
			r.pending = append(r.pending, sp)
		default:
			r.dropped++
		}
	}
	if r.onEnd != nil {
		r.onEnd(sp.Name, time.Duration(sp.DurationNS))
	}
}

// AddTimed records an already-measured lifecycle span (start and
// duration known after the fact). kv is alternating attribute pairs.
func (r *Recorder) AddTimed(name, parent string, start time.Time, d time.Duration, kv ...string) string {
	if r == nil {
		return ""
	}
	sp := Span{
		TraceID:    r.tc.TraceID,
		SpanID:     NewSpanID(),
		Parent:     parent,
		Name:       name,
		Kind:       KindLifecycle,
		Start:      start,
		DurationNS: d.Nanoseconds(),
		Status:     "ok",
	}
	if sp.Parent == "" {
		sp.Parent = r.tc.SpanID
	} else if sp.Parent == ParentNone {
		sp.Parent = ""
	}
	if len(kv) >= 2 {
		sp.Attrs = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			sp.Attrs[kv[i]] = kv[i+1]
		}
	}
	r.mu.Lock()
	r.commitLocked(sp)
	r.mu.Unlock()
	return sp.SpanID
}

// RecordEval records one sampled per-stage eval span, eval:<stage>,
// into the ring under span parent (normally the run's anneal span; ""
// means the recorder's top-level parent). Only the sampled 1-in-N clock
// marks reach here, so the map-free span construction is cheap; with
// tracing off (nil recorder) this is a single nil check and zero
// allocations.
func (r *Recorder) RecordEval(parent, stage string, d time.Duration) {
	if r == nil {
		return
	}
	if parent == "" {
		parent = r.tc.SpanID
	}
	now := time.Now()
	r.mu.Lock()
	r.commitLocked(Span{
		TraceID:    r.tc.TraceID,
		SpanID:     NewSpanID(),
		Parent:     parent,
		Name:       "eval:" + stage,
		Kind:       KindEval,
		Start:      now.Add(-d),
		DurationNS: d.Nanoseconds(),
		Status:     "ok",
	})
	r.mu.Unlock()
}

// Add ingests a completed span produced elsewhere (a worker's shipped
// spans, or a snapshot being re-seeded after recovery) and reports
// whether it did. Open spans and spans from a different trace are
// dropped.
func (r *Recorder) Add(sp Span) bool {
	if r == nil || sp.TraceID != r.tc.TraceID || sp.Open {
		return false
	}
	r.mu.Lock()
	r.commitLocked(sp)
	r.mu.Unlock()
	return true
}

// DrainNew returns spans completed since the previous drain and clears
// the pending buffer; a sampled eval span whose parent is still open
// waits for a later drain. Spans lost to a failed ship are gone, like a
// dropped SSE frame — tracing is lossy telemetry, not an audit log.
func (r *Recorder) DrainNew() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.pending
	r.pending = nil
	// An eval span waits until its parent, the anneal span, has ended,
	// so it ships with the parent or after it and the receiving side
	// never holds an eval span whose parent it has not seen.
	evals := r.shipEvals.appendTo(nil)
	r.shipEvals = ring{max: r.evals.max}
	for _, sp := range evals {
		if r.openLocked(sp.Parent) {
			r.shipEvals.push(sp)
		} else {
			out = append(out, sp)
		}
	}
	return out
}

// openLocked reports whether span id is still open.
func (r *Recorder) openLocked(id string) bool {
	for _, a := range r.open {
		if a.sp.SpanID == id {
			return true
		}
	}
	return false
}

// Dropped reports how many spans and span events were evicted or
// discarded.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Snapshot materializes every recorded span plus the still-open ones
// (flagged Open with their duration so far), sorted by start time.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	now := time.Now()
	r.mu.Lock()
	out := make([]Span, 0, len(r.life.buf)+len(r.evals.buf)+len(r.open))
	out = r.life.appendTo(out)
	out = r.evals.appendTo(out)
	for _, a := range r.open {
		sp := a.sp
		sp.Open = true
		sp.DurationNS = now.Sub(sp.Start).Nanoseconds()
		if sp.Attrs != nil { // copy: the live map may still mutate
			attrs := make(map[string]string, len(sp.Attrs))
			for k, v := range sp.Attrs {
				attrs[k] = v
			}
			sp.Attrs = attrs
		}
		sp.Events = append([]Event(nil), sp.Events...)
		out = append(out, sp)
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Node is one vertex of the assembled span tree.
type Node struct {
	Span
	Children []*Node `json:"children,omitempty"`
}

// Tree assembles spans into a forest: roots are spans with no parent
// or whose parent is not in the set (e.g. a remote client span).
// Children are sorted by start time.
func Tree(spans []Span) []*Node {
	byID := make(map[string]*Node, len(spans))
	nodes := make([]*Node, 0, len(spans))
	for _, sp := range spans {
		n := &Node{Span: sp}
		nodes = append(nodes, n)
		if _, dup := byID[sp.SpanID]; !dup {
			byID[sp.SpanID] = n
		}
	}
	var roots []*Node
	for _, n := range nodes {
		if p, ok := byID[n.Parent]; ok && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortChildren func(*Node)
	sortChildren = func(n *Node) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return n.Children[i].Start.Before(n.Children[j].Start)
		})
		for _, c := range n.Children {
			sortChildren(c)
		}
	}
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })
	for _, n := range roots {
		sortChildren(n)
	}
	return roots
}

// SnapshotVersion versions the durable JSONL snapshot payload.
const SnapshotVersion = 1

// SnapshotHeader is the first JSONL line of an exported snapshot.
type SnapshotHeader struct {
	Version int       `json:"version"`
	TraceID string    `json:"trace_id"`
	Label   string    `json:"label,omitempty"` // e.g. the job ID
	Cause   string    `json:"cause,omitempty"` // why the snapshot was cut
	Time    time.Time `json:"time"`
	Dropped int       `json:"dropped,omitempty"`
}

// EncodeSnapshot renders a header plus spans as JSONL — the payload
// sealed into a durable envelope by the server, and the format of
// `oblx -trace-spans`.
func EncodeSnapshot(hdr SnapshotHeader, spans []Span) ([]byte, error) {
	hdr.Version = SnapshotVersion
	var b strings.Builder
	enc := json.NewEncoder(&b)
	if err := enc.Encode(hdr); err != nil {
		return nil, err
	}
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			return nil, err
		}
	}
	return []byte(b.String()), nil
}

// DecodeSnapshot parses an EncodeSnapshot payload.
func DecodeSnapshot(data []byte) (SnapshotHeader, []Span, error) {
	var hdr SnapshotHeader
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) == "" {
		return hdr, nil, fmt.Errorf("trace: empty snapshot")
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		return hdr, nil, fmt.Errorf("trace: bad snapshot header: %w", err)
	}
	if hdr.Version != SnapshotVersion {
		return hdr, nil, fmt.Errorf("trace: snapshot version %d, want %d", hdr.Version, SnapshotVersion)
	}
	var spans []Span
	for _, ln := range lines[1:] {
		if strings.TrimSpace(ln) == "" {
			continue
		}
		var sp Span
		if err := json.Unmarshal([]byte(ln), &sp); err != nil {
			return hdr, nil, fmt.Errorf("trace: bad snapshot span: %w", err)
		}
		spans = append(spans, sp)
	}
	return hdr, spans, nil
}
