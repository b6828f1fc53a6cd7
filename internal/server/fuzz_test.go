package server

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"astrx/internal/bench"
)

// FuzzSubmitBody holds admission to its contract on arbitrary HTTP JSON
// bodies. Each input is decoded as a POST /v1/jobs body (submitRequest)
// and as a POST /v1/batches body (batchRequest), and whatever decodes is
// admitted. Admission must never panic, and every rejection must be a
// *DeckError (HTTP 400). An admitted job has runs in [1, maxRuns],
// max_moves ≥ 1 and within the daemon's limit, and a nonzero seed; and
// admitting the same job again, or its admitted options, gives the same
// result-cache key. The corpus is seeded with the bench decks wrapped
// as JSON bodies.
func FuzzSubmitBody(f *testing.F) {
	const movesLimit = 1_000_000
	m, err := New(Options{ExternalExec: true, MaxMovesLimit: movesLimit})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})

	add := func(v any) {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	var items []batchItem
	for _, c := range bench.Suite {
		add(submitRequest{Deck: bench.DeckSource(c)})
		items = append(items, batchItem{Deck: bench.DeckSource(c),
			Options: JobOptions{Seed: 3, MaxMoves: 4000, Runs: 2, Corners: []string{}}})
	}
	add(batchRequest{Jobs: items})
	cornered := testDeck + "\n.corner slow vdd=2.4\n"
	for _, opt := range []JobOptions{
		{},
		{Seed: -7, MaxMoves: -1, Runs: -3, NoFreeze: true, ProgressEvery: -5},
		{MaxMoves: movesLimit + 1},
		{Runs: maxRuns + 1},
		{Corners: []string{"slow"}},
		{Corners: []string{""}},
		{Corners: []string{"bogus"}},
	} {
		add(submitRequest{Deck: cornered, Options: opt})
	}
	add(batchRequest{})
	f.Add([]byte(`{"deck": 7}`))
	f.Add([]byte(`{"jobs": [{"deck": "", "options": {"runs": 1e9}}]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req submitRequest
		if json.Unmarshal(body, &req) == nil {
			if a, err := m.admit(req.Deck, req.Options); err != nil {
				requireDeckError(t, err)
			} else {
				checkAdmitted(t, m, req.Deck, req.Options, a, movesLimit)
			}
		}
		var batch batchRequest
		if json.Unmarshal(body, &batch) == nil {
			as, err := m.admitBatch(batch.Jobs)
			if err != nil {
				requireDeckError(t, err)
			}
			for i, a := range as {
				checkAdmitted(t, m, batch.Jobs[i].Deck, batch.Jobs[i].Options, a, movesLimit)
			}
		}
	})
}

// requireDeckError fails unless err is the submitter's: a *DeckError,
// which the HTTP layer answers with 400.
func requireDeckError(t *testing.T, err error) {
	t.Helper()
	var de *DeckError
	if !errors.As(err, &de) {
		t.Fatalf("rejection %v (%T) is not a DeckError (HTTP 400)", err, err)
	}
}

// checkAdmitted holds an admission a of deck and opt to FuzzSubmitBody's
// contract: options in range, and the same cache key when the job, or
// its admitted options, are admitted again.
func checkAdmitted(t *testing.T, m *Manager, deck string, opt JobOptions, a admission, movesLimit int) {
	t.Helper()
	o := a.opt
	if o.Runs < 1 || o.Runs > maxRuns || o.MaxMoves < 1 || o.MaxMoves > movesLimit || o.Seed == 0 {
		t.Fatalf("admitted options out of range: %+v", o)
	}
	for _, again := range []JobOptions{opt, o} {
		b, err := m.admit(deck, again)
		if err != nil || b.cacheKey != a.cacheKey {
			t.Fatalf("admitting %+v again: key %q, err %v; first admission's key %q",
				again, b.cacheKey, err, a.cacheKey)
		}
	}
}
