package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"astrx/internal/astrx"
	"astrx/internal/trace"
)

// tenantCtxKey carries the authenticated tenant name through a
// request's context.
type tenantCtxKey struct{}

// tenantFrom returns the tenant name the auth middleware resolved for
// this request.
func tenantFrom(r *http.Request) string {
	t, _ := r.Context().Value(tenantCtxKey{}).(string)
	return t
}

// apiKeyFrom extracts the client's API key: "Authorization: Bearer
// <key>" preferred, "X-Api-Key: <key>" accepted.
func apiKeyFrom(r *http.Request) string {
	if ah := r.Header.Get("Authorization"); strings.HasPrefix(ah, "Bearer ") {
		return strings.TrimSpace(strings.TrimPrefix(ah, "Bearer "))
	}
	return r.Header.Get("X-Api-Key")
}

// withAuth authenticates every /v1 request and stamps the tenant into
// the request context. In open mode (no key file) everything resolves
// to the default tenant — existing unauthenticated clients keep
// working unchanged. With a key file, a missing or unknown key is 401.
func (m *Manager) withAuth(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t, err := m.auth.Authenticate(apiKeyFrom(r))
		if err != nil {
			w.Header().Set("WWW-Authenticate", `Bearer realm="oblxd"`)
			writeErr(w, http.StatusUnauthorized, "%v", err)
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, t.Name))
		h.ServeHTTP(w, r)
	})
}

// maxDeckBytes bounds a submitted deck; real ASTRX decks are a few KB.
const maxDeckBytes = 1 << 20

// submitRequest is the JSON body of POST /v1/jobs. Clients may instead
// POST the raw deck as text/plain and pass options as query parameters.
type submitRequest struct {
	Deck    string     `json:"deck"`
	Options JobOptions `json:"options"`
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr emits a JSON error body. Every error response carries a
// Retry-After hint: handlers with a real backoff estimate set the
// header before calling (writeErr keeps it), the load-shedding codes
// default to 5s, everything else to a nominal 1s (the X-Request-Id
// header is added for all responses by the Handler middleware).
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	if w.Header().Get("Retry-After") == "" {
		switch code {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			w.Header().Set("Retry-After", "5")
		default:
			w.Header().Set("Retry-After", "1")
		}
	}
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// withRequestID tags every request and response with an X-Request-Id —
// the client's when present, else the trace ID of a W3C traceparent
// header, else a minted one — so an API error can be correlated with
// the daemon's job log lines (and with an upstream tracing system).
func withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = traceparentID(r.Header.Get("Traceparent"))
		}
		if id == "" {
			id = newID()
		}
		r.Header.Set("X-Request-Id", id)
		w.Header().Set("X-Request-Id", id)
		h.ServeHTTP(w, r)
	})
}

// traceparentID extracts the 32-hex-digit trace ID from a W3C
// traceparent header, returning "" for anything malformed. Validation
// is trace.Parse — the earlier hand-rolled check here accepted headers
// with the forbidden version "ff", a non-hex version or parent ID, an
// all-zero parent ID, and non-hex flags, which then leaked into request
// IDs and job logs as if they were real upstream traces.
func traceparentID(tp string) string {
	tc, err := trace.Parse(tp)
	if err != nil {
		return ""
	}
	return tc.TraceID
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a deck (JSON {deck, options} or text/plain + query params)
//	GET    /v1/jobs             list jobs, newest first
//	GET    /v1/jobs/{id}        job status (state, best cost, latest spec values)
//	GET    /v1/jobs/{id}/events SSE stream of state transitions + annealing progress
//	GET    /v1/jobs/{id}/result final design + verification numbers (409 until terminal)
//	GET    /v1/jobs/{id}/trace  span tree with move events and stage timings (live, or the durable snapshot)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	POST   /v1/batches          submit N decks as one batch of child jobs
//	GET    /v1/batches/{id}     batch roll-up (per-state counts + child statuses)
//	GET    /v1/batches/{id}/events aggregate SSE stream across all children
//	GET    /debug/metrics       Prometheus text exposition
//	GET    /debug/pprof/        runtime profiles (only with Options.EnableProfiling)
//	GET    /healthz             JSON health detail; 200 ok/degraded, 503 draining
//
// A submit (a batch child too) whose max_moves exceeds the daemon's
// -max-moves-limit, or whose runs exceed 64 (maxRuns), is a 400.
//
// Every response carries an X-Request-Id header (the client's, or a
// minted one); error responses also carry a Retry-After hint.
func (m *Manager) Handler() http.Handler {
	// The /v1 API runs behind tenant authentication; operational
	// endpoints (/healthz, /debug/*) stay open for probes and scrapers.
	api := http.NewServeMux()
	api.HandleFunc("POST /v1/jobs", m.handleSubmit)
	api.HandleFunc("GET /v1/jobs", m.handleList)
	api.HandleFunc("GET /v1/jobs/{id}", m.handleStatus)
	api.HandleFunc("GET /v1/jobs/{id}/events", m.handleEvents)
	api.HandleFunc("GET /v1/jobs/{id}/result", m.handleResult)
	api.HandleFunc("GET /v1/jobs/{id}/trace", m.handleTrace)
	api.HandleFunc("DELETE /v1/jobs/{id}", m.handleCancel)
	api.HandleFunc("POST /v1/batches", m.handleBatchSubmit)
	api.HandleFunc("GET /v1/batches/{id}", m.handleBatchStatus)
	api.HandleFunc("GET /v1/batches/{id}/events", m.handleBatchEvents)

	mux := http.NewServeMux()
	mux.Handle("/v1/", m.withAuth(api))
	mux.Handle("GET /debug/metrics", m.reg.Handler())
	if m.opt.EnableProfiling {
		// The pprof handlers register themselves on http.DefaultServeMux
		// at import; mount them on this mux explicitly instead so the
		// endpoints exist only when profiling was asked for.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := m.Health()
		code := http.StatusOK
		if h.Status == "draining" {
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "5")
		}
		writeJSON(w, code, h)
	})
	return withRequestID(mux)
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxDeckBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxDeckBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, "deck larger than %d bytes", maxDeckBytes)
		return
	}

	var req submitRequest
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		if err := json.Unmarshal(body, &req); err != nil {
			writeErr(w, http.StatusBadRequest, "parse request: %v", err)
			return
		}
	} else {
		// Raw deck in the body; options from query parameters, so
		// `curl --data-binary @deck.ckt '...?max_moves=20000'` works.
		req.Deck = string(body)
		q := r.URL.Query()
		intQ := func(key string, dst *int) bool {
			if s := q.Get(key); s != "" {
				n, err := strconv.Atoi(s)
				if err != nil {
					writeErr(w, http.StatusBadRequest, "query %s: %v", key, err)
					return false
				}
				*dst = n
			}
			return true
		}
		if !intQ("max_moves", &req.Options.MaxMoves) ||
			!intQ("runs", &req.Options.Runs) ||
			!intQ("progress_every", &req.Options.ProgressEvery) {
			return
		}
		if s := q.Get("seed"); s != "" {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "query seed: %v", err)
				return
			}
			req.Options.Seed = n
		}
		if s := q.Get("no_freeze"); s != "" {
			req.Options.NoFreeze = s == "1" || s == "true"
		}
		// Same convention as the oblx -corners flag: absent/"all" →
		// every declared corner (cornered decks are robust by default),
		// "none" → nominal-only, otherwise a comma-separated name list
		// validated at submit; a list of blank names is a 400.
		if s := q.Get("corners"); s != "" {
			corners, err := astrx.ParseCorners(s)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "query corners: %v", err)
				return
			}
			req.Options.Corners = corners
		}
	}
	if strings.TrimSpace(req.Deck) == "" {
		writeErr(w, http.StatusBadRequest, "empty deck")
		return
	}

	j, err := m.Submit(req.Deck, req.Options, Origin{
		RequestID:   r.Header.Get("X-Request-Id"),
		Tenant:      tenantFrom(r),
		Traceparent: r.Header.Get("Traceparent"),
	})
	if err != nil {
		m.writeSubmitErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	code := http.StatusAccepted
	if j.State().terminal() { // instant cache hit
		code = http.StatusOK
	}
	writeJSON(w, code, j.Status())
}

// writeSubmitErr maps a Submit error onto its HTTP status: 503 while
// draining, 429 (+ Retry-After from the backlog estimator) for a full
// queue or an exhausted tenant quota, 400 for bad decks.
func (m *Manager) writeSubmitErr(w http.ResponseWriter, err error) {
	var de *DeckError
	var qe *QuotaError
	switch {
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrQueueFull), errors.As(err, &qe):
		// Hint when the queue is actually expected to drain, not a
		// fixed constant.
		secs := int(math.Ceil(m.retryAfterEstimate().Seconds()))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeErr(w, http.StatusTooManyRequests, "%v", err)
	case errors.As(err, &de):
		writeErr(w, http.StatusBadRequest, "%v", de.Err)
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := m.Jobs()
	tenant := tenantFrom(r)
	out := make([]*Status, 0, len(jobs))
	for _, j := range jobs {
		if m.visibleTo(j, tenant) {
			out = append(out, j.Status())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// visibleTo scopes job visibility: with authentication on, a tenant
// sees only its own jobs; open mode sees everything (including jobs
// recovered from records written under authenticated incarnations).
func (m *Manager) visibleTo(j *Job, tenant string) bool {
	return m.auth.OpenMode() || j.Tenant == tenant
}

// jobOr404 resolves the {id} path value, scoped to the requesting
// tenant — another tenant's job is indistinguishable from a missing
// one.
func (m *Manager) jobOr404(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	j := m.Get(id)
	if j != nil && !m.visibleTo(j, tenantFrom(r)) {
		j = nil
	}
	if j == nil {
		writeErr(w, http.StatusNotFound, "no job %q", id)
	}
	return j
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := m.jobOr404(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (m *Manager) handleResult(w http.ResponseWriter, r *http.Request) {
	j := m.jobOr404(w, r)
	if j == nil {
		return
	}
	res := j.Result()
	if res == nil {
		writeErr(w, http.StatusConflict, "job %s is %s; result available once terminal", j.ID, j.State())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := m.jobOr404(w, r)
	if j == nil {
		return
	}
	if err := m.Cancel(j.ID); err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleEvents streams the job's event history and live updates as
// Server-Sent Events. Each event is one JSON object; the SSE event name
// is the Event.Type ("state" or "progress"). The stream closes when the
// job reaches a terminal state or the client disconnects.
func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := m.jobOr404(w, r)
	if j == nil {
		return
	}
	if send := startEvents(w); send != nil {
		followEvents(r.Context(), j, func(ev Event) bool { return send(ev.Type, ev) })
	}
}

// startEvents answers a request with a Server-Sent Events stream: it
// writes the stream's headers and returns the function that sends one
// event, named name, with v's JSON as its data (false when v does not
// encode). It answers 500 and returns nil when the connection cannot
// stream.
func startEvents(w http.ResponseWriter) func(name string, v any) bool {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return nil
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	return func(name string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
		fl.Flush()
		return true
	}
}

// followEvents replays j's event history, then follows its live events,
// handing each to send, until send returns false, an event turns the job
// terminal, or ctx ends.
func followEvents(ctx context.Context, j *Job, send func(Event) bool) {
	replay, ch, cancel := j.Subscribe()
	defer cancel()
	for _, ev := range replay {
		if !send(ev) || ev.terminal() {
			return
		}
	}
	for {
		select {
		case <-ctx.Done():
			return
		case ev := <-ch:
			if !send(ev) || ev.terminal() {
				return
			}
		}
	}
}
