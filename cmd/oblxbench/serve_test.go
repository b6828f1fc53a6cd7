package main

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestScheduleReproducible(t *testing.T) {
	const window = 30 * time.Second
	a, b := schedule(7, 8, window), schedule(7, 8, window)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 8, window)) {
		t.Fatal("different seeds drew the same schedule")
	}
	if len(a) != 240 {
		t.Fatalf("%d arrivals, want 8/s x 30 s = 240", len(a))
	}
	var misses []int
	for i, x := range a {
		if x.at < 0 || x.at >= window {
			t.Errorf("arrival %d at %v, outside the window", i, x.at)
		}
		if i > 0 && x.at < a[i-1].at {
			t.Errorf("arrival %d at %v precedes arrival %d at %v", i, x.at, i-1, a[i-1].at)
		}
		if x.hit {
			if x.pick < 0 || x.pick >= 1 {
				t.Errorf("arrival %d picks %g", i, x.pick)
			}
		} else {
			misses = append(misses, x.miss)
		}
	}
	// Exactly half the arrivals are new jobs, each corpus index once.
	sort.Ints(misses)
	for i, k := range misses {
		if k != i {
			t.Fatalf("new-job indices %v are not 0..%d", misses, len(a)/2-1)
		}
	}
	if len(misses) != len(a)/2 {
		t.Fatalf("%d new jobs of %d arrivals", len(misses), len(a))
	}
}

func TestMissRequestCorpus(t *testing.T) {
	cfg := serveConfig{decks: []deckSpec{{"a", "deck a"}, {"b", "deck b"}}, moves: 1500}
	seen := make(map[string]bool)
	for k := 0; k < 6; k++ {
		r := missRequest(cfg, k, false)
		key := fmt.Sprintf("%s/%d", r.Deck, r.Options.Seed)
		if seen[key] {
			t.Fatalf("new job %d repeats (deck, seed) %s", k, key)
		}
		seen[key] = true
		if r.Options.MaxMoves != 1500 || r.Options.NoFreeze {
			t.Errorf("job %d options %+v", k, r.Options)
		}
	}
	if w := missRequest(cfg, 0, true); seen[fmt.Sprintf("%s/%d", w.Deck, w.Options.Seed)] {
		t.Error("a warm-up job collides with a new job of the window")
	}
}
