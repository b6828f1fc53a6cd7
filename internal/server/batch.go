package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// This file is the batch API: POST /v1/batches accepts N decks in one
// request and fans them into ordinary child jobs — same validation,
// same tenant quota and fair-share lane, same durability; the batch
// itself is a serving-layer grouping (roll-up status + one aggregate
// SSE stream) and lives in memory. After a daemon restart the children
// recover like any other job; only the grouping is forgotten.

// Batch groups the child jobs of one POST /v1/batches.
type Batch struct {
	ID      string
	Tenant  string
	Created time.Time
	jobs    []*Job
}

// batchItem is one deck in a batch submission.
type batchItem struct {
	Deck    string     `json:"deck"`
	Options JobOptions `json:"options"`
}

// batchRequest is the JSON body of POST /v1/batches.
type batchRequest struct {
	Jobs []batchItem `json:"jobs"`
}

// BatchStatus is the wire form of a batch roll-up.
type BatchStatus struct {
	ID      string    `json:"id"`
	Tenant  string    `json:"tenant,omitempty"`
	Created time.Time `json:"created"`
	// Counts breaks the children down by lifecycle state.
	Counts map[State]int `json:"counts"`
	// Done is true once every child is terminal.
	Done bool `json:"done"`
	// CacheHits counts children served instantly from the result cache.
	CacheHits int       `json:"cache_hits"`
	Jobs      []*Status `json:"jobs"`
}

// maxBatchJobs bounds one batch; bigger sweeps should be split.
const maxBatchJobs = 256

// maxBatchBytes bounds a batch request body.
const maxBatchBytes = 32 << 20

// readJSONBody decodes a bounded JSON request body into v, writing the
// 4xx itself on failure.
func readJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return err
	}
	if len(body) > maxBatchBytes {
		err := fmt.Errorf("body larger than %d bytes", maxBatchBytes)
		writeErr(w, http.StatusRequestEntityTooLarge, "%v", err)
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeErr(w, http.StatusBadRequest, "parse request: %v", err)
		return err
	}
	return nil
}

// SubmitBatch admits every child upfront and submits them as child
// jobs, all-or-nothing: a child that fails the checks a single submit
// runs rejects the whole batch before any child exists (admitBatch),
// and a mid-batch admission failure (quota, queue full, draining) rolls
// already-created children back by cancelling them. On success every
// child is queued (or already done via the result cache) under the
// tenant's lane, each with from as its origin.
func (m *Manager) SubmitBatch(items []batchItem, from Origin) (*Batch, error) {
	admitted, err := m.admitBatch(items)
	if err != nil {
		return nil, err
	}
	b := &Batch{ID: newID(), Tenant: from.Tenant, Created: time.Now()}
	for i, a := range admitted {
		j, err := m.submitAdmitted(a, from, time.Now())
		if err != nil {
			// Roll back: cancel the children created so far (still
			// queued or instant cache hits; cancelling a terminal child
			// is a no-op error we ignore).
			for _, prev := range b.jobs {
				m.Cancel(prev.ID)
			}
			return nil, fmt.Errorf("server: batch job %d: %w", i, err)
		}
		b.jobs = append(b.jobs, j)
	}

	m.mu.Lock()
	m.batches[b.ID] = b
	m.mu.Unlock()
	m.log.Info("batch queued", "batch", b.ID, "tenant", from.Tenant, "jobs", len(b.jobs))
	return b, nil
}

// admitBatch runs a single submit's checks (admit) on every child of a
// batch, so a bad child names its index and rejects the batch before any
// child job exists. Every error it returns is a *DeckError (HTTP 400).
func (m *Manager) admitBatch(items []batchItem) ([]admission, error) {
	if len(items) == 0 {
		return nil, &DeckError{Err: fmt.Errorf("server: batch has no jobs")}
	}
	if len(items) > maxBatchJobs {
		return nil, &DeckError{Err: fmt.Errorf("server: batch of %d jobs exceeds the limit %d",
			len(items), maxBatchJobs)}
	}
	admitted := make([]admission, len(items))
	for i, it := range items {
		a, err := m.admit(it.Deck, it.Options)
		if err != nil {
			return nil, &DeckError{Err: fmt.Errorf("server: batch job %d: %w", i, err)}
		}
		admitted[i] = a
	}
	return admitted, nil
}

// GetBatch returns a batch by ID, or nil.
func (m *Manager) GetBatch(id string) *Batch {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batches[id]
}

// Status rolls the batch's children up into one snapshot.
func (b *Batch) Status() *BatchStatus {
	bs := &BatchStatus{
		ID: b.ID, Tenant: b.Tenant, Created: b.Created,
		Counts: make(map[State]int), Done: true,
		Jobs: make([]*Status, 0, len(b.jobs)),
	}
	for _, j := range b.jobs {
		st := j.Status()
		bs.Jobs = append(bs.Jobs, st)
		bs.Counts[st.State]++
		if !st.State.terminal() {
			bs.Done = false
		}
		if st.CacheHit {
			bs.CacheHits++
		}
	}
	return bs
}

func (m *Manager) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := readJSONBody(w, r, &req); err != nil {
		return // readJSONBody wrote the error
	}
	b, err := m.SubmitBatch(req.Jobs, Origin{RequestID: r.Header.Get("X-Request-Id"), Tenant: tenantFrom(r)})
	if err != nil {
		m.writeSubmitErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/batches/"+b.ID)
	writeJSON(w, http.StatusAccepted, b.Status())
}

// batchOr404 resolves the {id} path value, tenant-scoped like jobOr404.
func (m *Manager) batchOr404(w http.ResponseWriter, r *http.Request) *Batch {
	id := r.PathValue("id")
	b := m.GetBatch(id)
	if b != nil && !m.auth.OpenMode() && b.Tenant != tenantFrom(r) {
		b = nil
	}
	if b == nil {
		writeErr(w, http.StatusNotFound, "no batch %q", id)
	}
	return b
}

func (m *Manager) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	if b := m.batchOr404(w, r); b != nil {
		writeJSON(w, http.StatusOK, b.Status())
	}
}

// batchEvent is one aggregate-stream entry: a child job's event tagged
// with the child's ID.
type batchEvent struct {
	Job string `json:"job"`
	Event
}

// handleBatchEvents streams every child job's events on one SSE
// connection, each tagged with its job ID, and closes with a final
// "batch" roll-up event once all children are terminal.
func (m *Manager) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	b := m.batchOr404(w, r)
	if b == nil {
		return
	}
	send := startEvents(w)
	if send == nil {
		return
	}

	ctx := r.Context()
	agg := make(chan batchEvent, 256)
	// One follower per child, forwarding its events until the child
	// turns terminal or the client goes away.
	for _, j := range b.jobs {
		go followEvents(ctx, j, func(ev Event) bool {
			select {
			case agg <- batchEvent{Job: j.ID, Event: ev}:
				return true
			case <-ctx.Done():
				return false
			}
		})
	}

	remaining := len(b.jobs)
	for remaining > 0 {
		select {
		case <-ctx.Done():
			return
		case ev := <-agg:
			send(ev.Type, ev)
			if ev.terminal() {
				remaining--
			}
		}
	}
	// Final roll-up: every child terminal.
	send("batch", b.Status())
}
