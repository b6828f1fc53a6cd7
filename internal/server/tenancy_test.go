package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"astrx/internal/metrics"
	"astrx/internal/rescache"
	"astrx/internal/tenancy"
)

// testAuth builds an Authenticator from inline key-file JSON.
func testAuth(t *testing.T, content string) *tenancy.Authenticator {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	a, err := tenancy.NewAuthenticator(path)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// testCache builds a result cache over dir on the given registry.
func testCache(t *testing.T, dir string, mode rescache.Mode, reg *metrics.Registry) *rescache.Cache {
	t.Helper()
	c, err := rescache.New(rescache.Options{Mode: mode, Dir: dir, Registry: reg, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheHitSkipsEval is the acceptance drill for the result cache:
// an identical (deck, options) resubmission with -cache-mode rw must
// complete via cache hit — terminal at submit time, marked cache_hit,
// a single terminal SSE event — without consuming one evaluation,
// proven by the evals counter.
func TestCacheHitSkipsEval(t *testing.T) {
	cdir := t.TempDir()
	reg := metrics.New()
	cache := testCache(t, cdir, rescache.RW, reg)
	m := newTestManager(t, Options{StateDir: t.TempDir(), Workers: 2, Registry: reg, Cache: cache})

	opt := JobOptions{Seed: 1, MaxMoves: 4000, ProgressEvery: 200}
	j1, err := m.Submit(testDeck, opt, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	// The cache entry lands before the state flips, so done implies a
	// hit from here on.
	waitState(t, j1, StateDone, 60*time.Second)

	evalsBefore := m.Registry().Counter("oblxd_evals_total").Value()
	hitsBefore := m.Registry().Counter("oblxd_cache_hits_total").Value()

	// Identical resubmission — different surface formatting, same
	// canonical deck — must hit.
	j2, err := m.Submit(testDeck+"\n* trailing comment\n", opt, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	if j2.State() != StateDone {
		t.Fatalf("cache-hit job not terminal at submit: %s", j2.State())
	}
	st := j2.Status()
	if !st.CacheHit {
		t.Error("cache-hit job not marked cache_hit")
	}
	if st.DeckHash == "" || st.DeckHash != j1.Status().DeckHash {
		t.Errorf("deck hash mismatch: %q vs %q", st.DeckHash, j1.Status().DeckHash)
	}
	if res := j2.Result(); res == nil || res.State != StateDone || res.Result == nil {
		t.Fatalf("cache-hit job has no servable result: %+v", res)
	}
	if got := m.Registry().Counter("oblxd_evals_total").Value(); got != evalsBefore {
		t.Errorf("cache hit consumed evaluations: %d -> %d", evalsBefore, got)
	}
	if got := m.Registry().Counter("oblxd_cache_hits_total").Value(); got != hitsBefore+1 {
		t.Errorf("cache hits counter %d, want %d", got, hitsBefore+1)
	}

	// The event stream is a single terminal event — no queued, no
	// running, no progress.
	replay, _, cancel := j2.Subscribe()
	cancel()
	if len(replay) != 1 || replay[0].Type != "state" || replay[0].State != StateDone {
		t.Fatalf("cache-hit replay = %+v, want one terminal state event", replay)
	}

	// A different seed is a different key: must miss and queue normally.
	j3, err := m.Submit(testDeck, JobOptions{Seed: 99, MaxMoves: 4000, ProgressEvery: 200}, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	if j3.Status().CacheHit {
		t.Error("different-seed submission served from cache")
	}
	waitState(t, j3, StateDone, 60*time.Second)
}

// TestCacheHitSurvivesRestart: the cache is durable — a new daemon
// incarnation over the same cache dir serves the hit.
func TestCacheHitSurvivesRestart(t *testing.T) {
	cdir := t.TempDir()
	opt := JobOptions{Seed: 1, MaxMoves: 4000, ProgressEvery: 200}

	c1 := testCache(t, cdir, rescache.RW, nil)
	m1 := newTestManager(t, Options{Workers: 2, Cache: c1})
	j1, err := m1.Submit(testDeck, opt, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone, 60*time.Second)

	c2 := testCache(t, cdir, rescache.RO, nil)
	m2 := newTestManager(t, Options{Workers: 2, Cache: c2})
	j2, err := m2.Submit(testDeck, opt, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Status().CacheHit {
		t.Fatal("restarted cache did not serve the hit")
	}
}

// TestCacheCorruptionChaos is the tenancy-chaos cache drill: a
// corrupted cache entry must quarantine and re-run — never serve a
// wrong answer, never crash the daemon.
func TestCacheCorruptionChaos(t *testing.T) {
	cdir := t.TempDir()
	opt := JobOptions{Seed: 1, MaxMoves: 4000, ProgressEvery: 200}

	c1 := testCache(t, cdir, rescache.RW, nil)
	m1 := newTestManager(t, Options{Workers: 2, Cache: c1})
	j1, err := m1.Submit(testDeck, opt, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone, 60*time.Second)

	// Corrupt every cache entry on disk.
	entries, err := os.ReadDir(cdir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "res-") {
			continue
		}
		p := filepath.Join(cdir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no cache entries found to corrupt")
	}

	// Restart: the scan quarantines the corrupt entry; the resubmission
	// re-runs and produces a real result.
	c2 := testCache(t, cdir, rescache.RW, nil)
	m2 := newTestManager(t, Options{Workers: 2, Cache: c2})
	j2, err := m2.Submit(testDeck, opt, Origin{})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Status().CacheHit {
		t.Fatal("corrupt cache entry served as a hit")
	}
	waitState(t, j2, StateDone, 60*time.Second)
	if res := j2.Result(); res == nil || res.Result == nil {
		t.Fatal("re-run produced no result")
	}
	if q, err := os.ReadDir(filepath.Join(cdir, "quarantine")); err != nil || len(q) == 0 {
		t.Fatalf("corrupt entries not quarantined: %v", err)
	}
}

const twoTenantKeys = `{
  "tenants": [
    {"name": "heavy", "keys": ["k-heavy"], "weight": 3, "quota": {"max_queued": 100}},
    {"name": "light", "keys": ["k-light"], "weight": 1, "quota": {"max_queued": 100}}
  ]
}`

// TestCancelQueuedReleasesQuota is the regression test for the
// cancel-while-queued quota leak: DELETE on a still-queued job must
// free the tenant's MaxQueued slot immediately, not when a worker
// would have reached it.
func TestCancelQueuedReleasesQuota(t *testing.T) {
	auth := testAuth(t, `{"tenants":[{"name":"acme","keys":["k"],"quota":{"max_queued":1}}]}`)
	// ExternalExec: no local workers, so queued jobs stay queued.
	m := newTestManager(t, Options{ExternalExec: true, Auth: auth})

	j1, err := m.Submit(testDeck, JobOptions{Seed: 1}, Origin{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	var qe *QuotaError
	if _, err := m.Submit(testDeck, JobOptions{Seed: 2}, Origin{Tenant: "acme"}); err == nil {
		t.Fatal("second submit admitted past max_queued 1")
	} else if !errors.As(err, &qe) {
		t.Fatalf("second submit error %T %v, want *QuotaError", err, err)
	}

	if err := m.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	// The slot must be free right now — no drain, no worker involved.
	j3, err := m.Submit(testDeck, JobOptions{Seed: 3}, Origin{Tenant: "acme"})
	if err != nil {
		t.Fatalf("submit after cancel still over quota: %v", err)
	}
	if j3.State() != StateQueued {
		t.Fatalf("third job state %s", j3.State())
	}
}

// TestQuotaExhaustionConcurrentSubmits is the tenancy-chaos admission
// drill: N racing submissions against a MaxQueued bound admit exactly
// the bound, never more — the admission counter covers the
// persist-before-enqueue window.
func TestQuotaExhaustionConcurrentSubmits(t *testing.T) {
	const bound = 5
	auth := testAuth(t, fmt.Sprintf(`{"tenants":[{"name":"acme","keys":["k"],"quota":{"max_queued":%d}}]}`, bound))
	m := newTestManager(t, Options{ExternalExec: true, Auth: auth})

	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted, rejected := 0, 0
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			_, err := m.Submit(testDeck, JobOptions{Seed: seed}, Origin{Tenant: "acme"})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				admitted++
			default:
				var qe *QuotaError
				if !errors.As(err, &qe) {
					t.Errorf("unexpected submit error: %v", err)
				}
				rejected++
			}
		}(int64(i + 1))
	}
	wg.Wait()
	if admitted != bound || rejected != 20-bound {
		t.Fatalf("admitted %d rejected %d, want %d/%d", admitted, rejected, bound, 20-bound)
	}
	if d := m.QueueDepth(); d != bound {
		t.Fatalf("queue depth %d, want %d", d, bound)
	}
}

// TestTwoTenantFairShare is the end-to-end fairness drill: two
// backlogged tenants with 3:1 weights drain through ClaimQueued (the
// same path the fleet coordinator uses) at a 3:1 ratio, and neither is
// starved.
func TestTwoTenantFairShare(t *testing.T) {
	auth := testAuth(t, twoTenantKeys)
	m := newTestManager(t, Options{ExternalExec: true, Auth: auth})

	for i := 0; i < 60; i++ {
		if _, err := m.Submit(testDeck, JobOptions{Seed: int64(i + 1)}, Origin{Tenant: "heavy"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := m.Submit(testDeck, JobOptions{Seed: int64(i + 1)}, Origin{Tenant: "light"}); err != nil {
			t.Fatal(err)
		}
	}

	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		j := m.ClaimQueued()
		if j == nil {
			t.Fatalf("claim %d returned nil with %d queued", i, m.QueueDepth())
		}
		counts[j.Tenant]++
	}
	if counts["light"] == 0 || counts["heavy"] == 0 {
		t.Fatalf("a tenant was starved: %v", counts)
	}
	ratio := float64(counts["heavy"]) / float64(counts["light"])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("drain ratio %.2f (%v), want ~3.0", ratio, counts)
	}
}

// TestTenantLanesRecoverInOrder proves restart recovery rebuilds each
// tenant's lane in submission order from the state dir.
func TestTenantLanesRecoverInOrder(t *testing.T) {
	dir := t.TempDir()
	auth := testAuth(t, twoTenantKeys)

	m1, err := New(Options{StateDir: dir, ExternalExec: true, Auth: auth, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	submitOrder := map[string][]string{} // tenant -> job IDs in submit order
	for i, tn := range []string{"heavy", "light", "heavy", "light", "heavy"} {
		j, err := m1.Submit(testDeck, JobOptions{Seed: int64(i + 1)}, Origin{Tenant: tn})
		if err != nil {
			t.Fatal(err)
		}
		submitOrder[tn] = append(submitOrder[tn], j.ID)
		time.Sleep(2 * time.Millisecond) // distinct Created stamps
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Options{StateDir: dir, ExternalExec: true, Auth: auth})
	claimed := map[string][]string{}
	for j := m2.ClaimQueued(); j != nil; j = m2.ClaimQueued() {
		claimed[j.Tenant] = append(claimed[j.Tenant], j.ID)
		if j.DeckHash == "" {
			t.Errorf("recovered job %s lost its deck hash", j.ID)
		}
	}
	for tn, want := range submitOrder {
		got := claimed[tn]
		if len(got) != len(want) {
			t.Fatalf("tenant %s: claimed %d jobs, want %d", tn, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tenant %s lane out of order after restart: got %v want %v", tn, got, want)
			}
		}
	}
}

// TestAuthHTTP covers the HTTP authentication surface: 401 without or
// with a bad key, tenant isolation on reads, hash and tenant in the
// status payload, and open operational endpoints.
func TestAuthHTTP(t *testing.T) {
	auth := testAuth(t, twoTenantKeys)
	m := newTestManager(t, Options{ExternalExec: true, Auth: auth})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	get := func(path, key string) *http.Response {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	for _, key := range []string{"", "wrong"} {
		resp := get("/v1/jobs", key)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q: status %d, want 401", key, resp.StatusCode)
		}
	}

	// Submit as heavy.
	body, _ := json.Marshal(submitRequest{Deck: testDeck, Options: JobOptions{Seed: 1}})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer k-heavy")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if st.Tenant != "heavy" || st.DeckHash == "" {
		t.Fatalf("status missing tenancy fields: %+v", st)
	}

	// The other tenant cannot see it.
	resp = get("/v1/jobs/"+st.ID, "k-light")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant read: status %d, want 404", resp.StatusCode)
	}
	// The owner can.
	resp = get("/v1/jobs/"+st.ID, "k-heavy")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner read: status %d", resp.StatusCode)
	}

	// Operational endpoints stay open.
	for _, path := range []string{"/healthz", "/debug/metrics"} {
		resp := get(path, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200 without a key", path, resp.StatusCode)
		}
	}
}

// TestQuota429RetryAfter: an over-quota submission gets 429 with a
// Retry-After estimate, per-tenant — the other tenant still submits.
func TestQuota429RetryAfter(t *testing.T) {
	auth := testAuth(t, `{"tenants":[
		{"name":"small","keys":["k-small"],"quota":{"max_queued":1}},
		{"name":"big","keys":["k-big"]}]}`)
	m := newTestManager(t, Options{ExternalExec: true, Auth: auth})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	post := func(key string, seed int64) *http.Response {
		body, _ := json.Marshal(submitRequest{Deck: testDeck, Options: JobOptions{Seed: seed}})
		req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Authorization", "Bearer "+key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	r1 := post("k-small", 1)
	r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", r1.StatusCode)
	}
	r2 := post("k-small", 2)
	r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Unaffected tenant.
	r3 := post("k-big", 3)
	r3.Body.Close()
	if r3.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant shed too: %d", r3.StatusCode)
	}
}

// TestBatchAPI: one POST fans into N children, the roll-up tracks
// them, and the aggregate SSE stream closes with a final batch event
// once every child is terminal.
func TestBatchAPI(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	body, _ := json.Marshal(batchRequest{Jobs: []batchItem{
		{Deck: testDeck, Options: JobOptions{Seed: 1, MaxMoves: 4000, ProgressEvery: 200}},
		{Deck: testDeck, Options: JobOptions{Seed: 2, MaxMoves: 4000, ProgressEvery: 200}},
	}})
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var bs BatchStatus
	json.NewDecoder(resp.Body).Decode(&bs)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d", resp.StatusCode)
	}
	if len(bs.Jobs) != 2 || bs.ID == "" {
		t.Fatalf("batch status %+v", bs)
	}

	// Aggregate SSE until the final batch roll-up.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/batches/"+bs.ID+"/events", nil)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sawJobs := map[string]bool{}
	var final BatchStatus
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	deadline := time.After(120 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var eventName string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				eventName = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data := strings.TrimPrefix(line, "data: ")
				if eventName == "batch" {
					json.Unmarshal([]byte(data), &final)
					return
				}
				var bev struct {
					Job string `json:"job"`
				}
				json.Unmarshal([]byte(data), &bev)
				if bev.Job != "" {
					sawJobs[bev.Job] = true
				}
			}
		}
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("batch SSE never delivered the final roll-up")
	}
	if !final.Done || final.Counts[StateDone] != 2 {
		t.Fatalf("final roll-up %+v", final)
	}
	if len(sawJobs) != 2 {
		t.Fatalf("aggregate stream covered %d jobs, want 2", len(sawJobs))
	}

	// GET roll-up agrees.
	resp2, err := http.Get(ts.URL + "/v1/batches/" + bs.ID)
	if err != nil {
		t.Fatal(err)
	}
	var after BatchStatus
	json.NewDecoder(resp2.Body).Decode(&after)
	resp2.Body.Close()
	if !after.Done || after.Counts[StateDone] != 2 {
		t.Fatalf("roll-up %+v", after)
	}

	// A bad deck rejects the whole batch with no children created.
	before := len(m.Jobs())
	bad, _ := json.Marshal(batchRequest{Jobs: []batchItem{
		{Deck: testDeck, Options: JobOptions{Seed: 9}},
		{Deck: ".module broken ("},
	}})
	resp3, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch: %d, want 400", resp3.StatusCode)
	}
	if got := len(m.Jobs()); got != before {
		t.Fatalf("bad batch leaked %d child jobs", got-before)
	}
}

// TestBatchAdmitsEveryChildFirst: a batch whose later child fails the
// checks a single submit runs — runs above the cap, max_moves above the
// daemon limit, an unknown corner — is a 400 that creates no job, so no
// earlier child is left behind as a cancelled job.
func TestBatchAdmitsEveryChildFirst(t *testing.T) {
	m := newTestManager(t, Options{ExternalExec: true, MaxMovesLimit: 50000})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	cancelled := m.reg.Counter("oblxd_jobs_finished_total", "state", string(StateCancelled))
	for _, bad := range []JobOptions{
		{Seed: 2, MaxMoves: 1000, Runs: maxRuns + 1},
		{Seed: 2, MaxMoves: 50001},
		{Seed: 2, MaxMoves: 1000, Corners: []string{"nosuch"}},
	} {
		body, _ := json.Marshal(batchRequest{Jobs: []batchItem{
			{Deck: testDeck, Options: JobOptions{Seed: 1, MaxMoves: 1000}},
			{Deck: testDeck, Options: bad},
		}})
		resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch with second child %+v: %d, want 400", bad, resp.StatusCode)
		}
		if n := len(m.Jobs()); n != 0 {
			t.Errorf("batch with second child %+v created %d jobs, want 0", bad, n)
		}
		if n := cancelled.Value(); n != 0 {
			t.Errorf("batch with second child %+v: oblxd_jobs_finished_total{state=\"cancelled\"} = %d, want 0", bad, n)
		}
	}
}

// TestTenantLogAttr: every job-scoped log line carries the tenant.
func TestTenantLogAttr(t *testing.T) {
	logBuf := &lockedBuffer{}
	logger := slog.New(slog.NewTextHandler(logBuf, nil))

	auth := testAuth(t, twoTenantKeys)
	m, err := New(Options{ExternalExec: true, Auth: auth, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	if _, err := m.Submit(testDeck, JobOptions{Seed: 1}, Origin{Tenant: "heavy"}); err != nil {
		t.Fatal(err)
	}
	if out := logBuf.String(); !strings.Contains(out, "tenant=heavy") {
		t.Fatalf("job log line missing tenant attr:\n%s", out)
	}
}
