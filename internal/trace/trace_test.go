package trace

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// validTraceparent is the W3C specification's example header.
const validTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// parseCases are traceparent values with Parse's verdict on each; they
// also seed FuzzTraceparent.
var parseCases = []struct {
	name string
	tp   string
	ok   bool
}{
	{"valid", validTraceparent, true},
	{"future version extra fields", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", true},
	{"empty", "", false},
	{"garbage", "garbage", false},
	{"three fields", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", false},
	{"version 00 extra fields", validTraceparent + "-extra", false},
	{"version ff forbidden", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
	{"uppercase version", "0A-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
	{"uppercase trace id", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", false},
	{"all-zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},
	{"short trace id", "00-4bf92f3577b34da6a3ce929d0e0e473-00f067aa0ba902b7-01", false},
	{"all-zero parent id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false},
	{"non-hex parent id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902g7-01", false},
	{"non-hex flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", false},
	{"short flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-1", false},
}

func TestParseTable(t *testing.T) {
	for _, tc := range parseCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Parse(tc.tp)
			if tc.ok != (err == nil) {
				t.Fatalf("Parse(%q) err=%v, want ok=%v", tc.tp, err, tc.ok)
			}
			if tc.ok && (got.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || got.SpanID != "00f067aa0ba902b7") {
				t.Fatalf("Parse(%q) = %+v", tc.tp, got)
			}
		})
	}
}

func TestContextRoundTrip(t *testing.T) {
	tc := Context{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}
	back, err := Parse(tc.Traceparent())
	if err != nil {
		t.Fatalf("Parse(Traceparent()) failed: %v", err)
	}
	if back != tc {
		t.Fatalf("round trip: got %+v want %+v", back, tc)
	}
}

// FuzzTraceparent holds the traceparent parser to never panicking and
// an accepted value's Context to a round trip through Traceparent().
func FuzzTraceparent(f *testing.F) {
	for _, tc := range parseCases {
		f.Add(tc.tp)
	}
	f.Fuzz(func(t *testing.T, tp string) {
		c, err := Parse(tp)
		if err != nil {
			return
		}
		back, err := Parse(c.Traceparent())
		if err != nil || back != c {
			t.Fatalf("%q parses to %+v, whose traceparent %q parses to %+v, %v", tp, c, c.Traceparent(), back, err)
		}
	})
}

func TestTraceIDFromRequest(t *testing.T) {
	hexID := strings.Repeat("5a", 16)
	if got := TraceIDFromRequest(hexID); got != hexID {
		t.Fatalf("well-formed request ID not used verbatim: %q", got)
	}
	h1, h2 := TraceIDFromRequest("job-abc"), TraceIDFromRequest("job-abc")
	if h1 != h2 {
		t.Fatalf("hashed trace ID not deterministic: %q vs %q", h1, h2)
	}
	if _, err := Parse(Context{TraceID: h1, SpanID: RootSpanID(h1)}.Traceparent()); err != nil {
		t.Fatalf("derived IDs not W3C-valid: %v", err)
	}
	r1, r2 := TraceIDFromRequest(""), TraceIDFromRequest("")
	if r1 == r2 {
		t.Fatalf("empty request IDs should get random trace IDs, got %q twice", r1)
	}
}

func TestRootSpanIDDeterministic(t *testing.T) {
	tid := TraceIDFromRequest("some-request")
	if RootSpanID(tid) != RootSpanID(tid) {
		t.Fatal("RootSpanID not deterministic")
	}
	if RootSpanID(tid) == RootSpanID(tid+"x") {
		t.Fatal("RootSpanID collision across trace IDs")
	}
}

func TestNilRecorderNoops(t *testing.T) {
	var r *Recorder
	a := r.Begin("x", "")
	a.SetAttr("k", "v")
	a.Event("e", "k", "v")
	a.AppendEvents(Event{Name: "e"})
	a.End("")
	a.EndErr(nil)
	r.BeginRoot("root", "").End("")
	r.RecordEval("x", "bias", time.Microsecond)
	r.AddTimed("t", "", time.Now(), 0)
	r.Add(Span{})
	r.EnableShipping()
	r.OnEnd(nil)
	if r.Snapshot() != nil || r.DrainNew() != nil || r.TraceID() != "" ||
		r.ParentID() != "" || r.Traceparent() != "" || r.Dropped() != 0 || a.ID() != "" {
		t.Fatal("nil recorder leaked state")
	}
}

func TestRecorderLifecycleAndTree(t *testing.T) {
	tid := TraceIDFromRequest("req-1")
	rec := NewRecorder(Context{TraceID: tid, SpanID: RootSpanID(tid)}, 8)
	root := rec.BeginRoot("job", "00f067aa0ba902b7")
	root.SetAttr("job", "j1")
	anneal := rec.Begin("anneal", "")
	anneal.Event("resume", "move", "42")
	for i := 0; i < 20; i++ { // overflow the 8-slot eval ring
		rec.RecordEval(anneal.ID(), "solve", time.Microsecond)
	}
	anneal.End("")
	root.End("")

	spans := rec.Snapshot()
	if rec.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", rec.Dropped())
	}
	var gotRoot, gotAnneal, evals int
	var evalStarts []time.Time
	for _, sp := range spans {
		switch sp.Name {
		case "job":
			gotRoot++
			if sp.SpanID != RootSpanID(tid) || sp.Parent != "00f067aa0ba902b7" || sp.Attrs["job"] != "j1" {
				t.Fatalf("bad root span %+v", sp)
			}
		case "anneal":
			gotAnneal++
			if sp.Parent != RootSpanID(tid) || len(sp.Events) != 1 || sp.Events[0].Attrs["move"] != "42" {
				t.Fatalf("bad anneal span %+v", sp)
			}
		case "eval:solve":
			evals++
			evalStarts = append(evalStarts, sp.Start)
			if sp.Parent != anneal.ID() {
				t.Fatalf("eval span parented to %q, want anneal %q", sp.Parent, anneal.ID())
			}
		}
	}
	if gotRoot != 1 || gotAnneal != 1 || evals != 8 {
		t.Fatalf("spans: root=%d anneal=%d evals=%d", gotRoot, gotAnneal, evals)
	}
	for i := 1; i < len(evalStarts); i++ {
		if evalStarts[i].Before(evalStarts[i-1]) {
			t.Fatalf("eval spans out of order at %d", i)
		}
	}

	tree := Tree(spans)
	if len(tree) != 1 || tree[0].Name != "job" {
		t.Fatalf("want single job root, got %d roots", len(tree))
	}
	if len(tree[0].Children) != 1 || tree[0].Children[0].Name != "anneal" {
		t.Fatalf("want anneal under root, got %+v", tree[0].Children)
	}
	if len(tree[0].Children[0].Children) != 8 {
		t.Fatalf("want 8 eval children, got %d", len(tree[0].Children[0].Children))
	}
}

// TestRingsWrapPastCap overfills both rings: each keeps its newest spans
// oldest-first, evicting in arrival order, and counts every eviction in
// Dropped. Neither ring allocates before its first span.
func TestRingsWrapPastCap(t *testing.T) {
	tid := TraceIDFromRequest("req-wrap")
	rec := NewRecorder(Context{TraceID: tid, SpanID: RootSpanID(tid)}, 4)
	if cap(rec.life.buf) != 0 || cap(rec.evals.buf) != 0 {
		t.Fatalf("rings preallocated: life %d, evals %d", cap(rec.life.buf), cap(rec.evals.buf))
	}
	start := time.Now()
	for i := 0; i < lifecycleCap+10; i++ {
		rec.AddTimed("life", "", start.Add(time.Duration(i)*time.Millisecond), 0, "i", strconv.Itoa(i))
	}
	for i := 0; i < 11; i++ {
		rec.Add(Span{TraceID: tid, SpanID: NewSpanID(), Name: "eval", Kind: KindEval,
			Start: start.Add(time.Duration(i) * time.Millisecond), Attrs: map[string]string{"i": strconv.Itoa(i)}})
	}
	if got, want := rec.Dropped(), 10+7; got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	if len(rec.life.buf) != lifecycleCap || len(rec.evals.buf) != 4 {
		t.Fatalf("ring sizes %d/%d, want %d/4", len(rec.life.buf), len(rec.evals.buf), lifecycleCap)
	}
	for _, r := range []struct {
		ring  *ring
		first int
	}{{&rec.life, 10}, {&rec.evals, 7}} {
		for k, sp := range r.ring.appendTo(nil) {
			if want := strconv.Itoa(r.first + k); sp.Attrs["i"] != want {
				t.Fatalf("%s ring[%d] = span %s, want %s", sp.Name, k, sp.Attrs["i"], want)
			}
		}
	}
}

// TestSpanEventCapKeepsNewest gives one span more events than
// MaxSpanEvents: it keeps the newest, in order, and counts the evicted
// ones in Dropped.
func TestSpanEventCapKeepsNewest(t *testing.T) {
	tid := TraceIDFromRequest("req-events")
	rec := NewRecorder(Context{TraceID: tid, SpanID: RootSpanID(tid)}, 0)
	root := rec.BeginRoot("job", "")
	const extra = 37
	for i := 0; i < MaxSpanEvents+extra; i++ {
		root.Event("move", "move", strconv.Itoa(i))
	}
	if got := rec.Dropped(); got != extra {
		t.Fatalf("Dropped = %d, want %d", got, extra)
	}
	check := func(sp Span) {
		t.Helper()
		if len(sp.Events) != MaxSpanEvents {
			t.Fatalf("span keeps %d events, want %d", len(sp.Events), MaxSpanEvents)
		}
		for k, ev := range sp.Events {
			if want := strconv.Itoa(extra + k); ev.Attrs["move"] != want {
				t.Fatalf("event %d is move %s, want %s", k, ev.Attrs["move"], want)
			}
		}
	}
	check(rec.Snapshot()[0]) // open
	root.End("")
	check(rec.Snapshot()[0]) // committed
}

// TestSpanEventCapBoundary fills a span to exactly MaxSpanEvents in one
// AppendEvents batch, as a restarted daemon's carry-over does: nothing
// is dropped. The next event evicts exactly the oldest one.
func TestSpanEventCapBoundary(t *testing.T) {
	tid := TraceIDFromRequest("req-events-cap")
	rec := NewRecorder(Context{TraceID: tid, SpanID: RootSpanID(tid)}, 0)
	root := rec.BeginRoot("job", "")
	batch := make([]Event, MaxSpanEvents)
	for i := range batch {
		batch[i] = Event{Name: "move", Attrs: map[string]string{"move": strconv.Itoa(i)}}
	}
	root.AppendEvents(batch...)
	evs := rec.Snapshot()[0].Events
	if rec.Dropped() != 0 || len(evs) != MaxSpanEvents || evs[0].Attrs["move"] != "0" {
		t.Fatalf("full span: dropped %d, %d events, first move %s; want 0/%d/0",
			rec.Dropped(), len(evs), evs[0].Attrs["move"], MaxSpanEvents)
	}
	root.Event("move", "move", strconv.Itoa(MaxSpanEvents))
	evs = rec.Snapshot()[0].Events
	last := strconv.Itoa(MaxSpanEvents)
	if rec.Dropped() != 1 || len(evs) != MaxSpanEvents || evs[0].Attrs["move"] != "1" ||
		evs[len(evs)-1].Attrs["move"] != last {
		t.Fatalf("one past the cap: dropped %d, %d events, moves %s..%s; want 1/%d/1..%s",
			rec.Dropped(), len(evs), evs[0].Attrs["move"], evs[len(evs)-1].Attrs["move"], MaxSpanEvents, last)
	}
}

// TestSpanEventsConcurrentSnapshot appends events to an open span while
// readers snapshot it. Run under -race; every snapshot must hold a
// gap-free, in-order run of the appended events.
func TestSpanEventsConcurrentSnapshot(t *testing.T) {
	tid := TraceIDFromRequest("req-events-race")
	rec := NewRecorder(Context{TraceID: tid, SpanID: RootSpanID(tid)}, 0)
	root := rec.BeginRoot("job", "")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				root.Event("move", "move", strconv.Itoa(i))
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				evs := rec.Snapshot()[0].Events
				for k := 1; k < len(evs); k++ {
					prev, _ := strconv.Atoi(evs[k-1].Attrs["move"])
					cur, _ := strconv.Atoi(evs[k].Attrs["move"])
					if cur != prev+1 {
						t.Errorf("snapshot out of order at %d: %d then %d", k, prev, cur)
						return
					}
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestOpenSpansInSnapshot(t *testing.T) {
	tid := TraceIDFromRequest("req-open")
	rec := NewRecorder(Context{TraceID: tid, SpanID: RootSpanID(tid)}, 0)
	root := rec.BeginRoot("job", "")
	spans := rec.Snapshot()
	if len(spans) != 1 || !spans[0].Open || spans[0].Parent != "" {
		t.Fatalf("open root not materialized: %+v", spans)
	}
	root.End("")
	root.End("") // double-end is a no-op
	spans = rec.Snapshot()
	if len(spans) != 1 || spans[0].Open || spans[0].Status != "ok" {
		t.Fatalf("ended root wrong: %+v", spans)
	}
}

func TestShippingDrainAndAdd(t *testing.T) {
	tid := TraceIDFromRequest("req-ship")
	worker := NewRecorder(Context{TraceID: tid, SpanID: RootSpanID(tid)}, 0)
	worker.EnableShipping()
	sp := worker.Begin("anneal", "")
	worker.RecordEval("", "fit", time.Millisecond)
	sp.End("")

	batch := worker.DrainNew()
	if len(batch) != 2 {
		t.Fatalf("DrainNew = %d spans, want 2", len(batch))
	}
	if got := worker.DrainNew(); got != nil {
		t.Fatalf("second drain should be empty, got %d", len(got))
	}

	var ends []string
	coord := NewRecorder(Context{TraceID: tid, SpanID: RootSpanID(tid)}, 0)
	coord.OnEnd(func(name string, d time.Duration) { ends = append(ends, name) })
	for _, s := range batch {
		coord.Add(s)
	}
	coord.Add(Span{TraceID: "feedfeedfeedfeedfeedfeedfeedfeed", SpanID: "aaaaaaaaaaaaaaaa", Name: "stray"})
	got := coord.Snapshot()
	if len(got) != 2 {
		t.Fatalf("coordinator has %d spans, want 2 (stray trace dropped)", len(got))
	}
	if len(ends) != 2 {
		t.Fatalf("OnEnd fired %d times, want 2", len(ends))
	}
}

// TestShippingEvalSpans: a worker ships a sampled eval span only once
// its parent, the anneal span, has ended, so a heartbeat mid-run never
// hands the coordinator an orphan; and the eval spans wait in a ring as
// large as the eval ring, so a burst of them between two drains neither
// crowds out the anneal span nor ships more samples than the
// coordinator keeps.
func TestShippingEvalSpans(t *testing.T) {
	tid := TraceIDFromRequest("req-burst")
	worker := NewRecorder(Context{TraceID: tid, SpanID: RootSpanID(tid)}, 0)
	worker.EnableShipping()
	for round := 0; round < 2; round++ {
		sp := worker.Begin("anneal", "")
		for i := 0; i < 2*pendingCap; i++ {
			worker.RecordEval(sp.ID(), "fit", time.Microsecond)
		}
		if got := worker.DrainNew(); len(got) != 0 {
			t.Fatalf("round %d: drained %d spans while the anneal span is open, want 0", round, len(got))
		}
		sp.End("")
		evals, anneals := 0, 0
		for _, s := range worker.DrainNew() {
			switch {
			case s.Name == "eval:fit" && s.Parent == sp.ID():
				evals++
			case s.Name == "anneal":
				anneals++
			}
		}
		if anneals != 1 || evals != DefaultRingCap {
			t.Fatalf("round %d shipped %d anneal and %d eval spans, want 1 and %d", round, anneals, evals, DefaultRingCap)
		}
	}
}

func TestSnapshotEncodeDecode(t *testing.T) {
	tid := TraceIDFromRequest("req-snap")
	rec := NewRecorder(Context{TraceID: tid, SpanID: RootSpanID(tid)}, 0)
	root := rec.BeginRoot("job", "")
	root.Event("move", "move", "500", "move_class", "random", "accepted", "true")
	root.End("")
	rec.AddTimed("queue-wait", "", time.Now(), 5*time.Millisecond, "tenant", "acme")

	data, err := EncodeSnapshot(SnapshotHeader{TraceID: tid, Label: "job-1", Cause: "done"}, rec.Snapshot())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	hdr, spans, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if hdr.Version != SnapshotVersion || hdr.TraceID != tid || hdr.Label != "job-1" {
		t.Fatalf("bad header %+v", hdr)
	}
	if len(spans) != 2 {
		t.Fatalf("decoded %d spans, want 2", len(spans))
	}
	found, moved := false, false
	for _, sp := range spans {
		if sp.Name == "queue-wait" && sp.Attrs["tenant"] == "acme" {
			found = true
		}
		if sp.Name == "job" && len(sp.Events) == 1 && sp.Events[0].Attrs["move"] == "500" &&
			sp.Events[0].Attrs["move_class"] == "random" && sp.Events[0].Attrs["accepted"] == "true" {
			moved = true
		}
	}
	if !found {
		t.Fatal("queue-wait span lost in round trip")
	}
	if !moved {
		t.Fatal("root move event lost in round trip")
	}

	if _, _, err := DecodeSnapshot([]byte(`{"version":99}` + "\n")); err == nil {
		t.Fatal("version mismatch not rejected")
	}
	if _, _, err := DecodeSnapshot(nil); err == nil {
		t.Fatal("empty payload not rejected")
	}
}

// TestSnapshotOpenRootEventsRoundTrip cuts a snapshot of a stalled job:
// the root is still open and carries move events, the anneal span its
// stage timings. Both survive encode/decode, and a fresh recorder's
// reopened root takes the events over in order. Garbage and future
// versions are rejected.
func TestSnapshotOpenRootEventsRoundTrip(t *testing.T) {
	tid := TraceIDFromRequest("req-stall")
	rec := NewRecorder(Context{TraceID: tid, SpanID: RootSpanID(tid)}, 0)
	root := rec.BeginRoot("job", "")
	anneal := rec.Begin("anneal", "")
	anneal.SetAttr("stage.fit_us", "12.500")
	for _, mv := range []string{"0", "500", "1000"} {
		root.Event("move", "move", mv, "move_class", "random", "accepted", "true",
			"dcost", "-0.25", "span_id", anneal.ID(), "hustin.random", "0.5")
	}
	anneal.End("")

	data, err := EncodeSnapshot(SnapshotHeader{TraceID: tid, Label: "job-1", Cause: "stall"}, rec.Snapshot())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	hdr, spans, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if hdr.Cause != "stall" || hdr.Label != "job-1" {
		t.Fatalf("bad header %+v", hdr)
	}
	var open *Span
	staged := false
	for i, sp := range spans {
		switch {
		case sp.Name == "anneal":
			staged = sp.Attrs["stage.fit_us"] == "12.500"
		case sp.Open && sp.SpanID == RootSpanID(tid):
			open = &spans[i]
		}
	}
	if !staged {
		t.Fatalf("anneal stage timing lost: %+v", spans)
	}
	if open == nil || len(open.Events) != 3 {
		t.Fatalf("open root with 3 move events not in snapshot: %+v", spans)
	}

	reopened := NewRecorder(Context{TraceID: tid, SpanID: RootSpanID(tid)}, 0)
	root2 := reopened.BeginRoot("job", "")
	root2.AppendEvents(open.Events...)
	evs := reopened.Snapshot()[0].Events
	for k, want := range []string{"0", "500", "1000"} {
		ev := evs[k]
		if ev.Attrs["move"] != want || ev.Attrs["move_class"] != "random" || ev.Attrs["accepted"] != "true" ||
			ev.Attrs["span_id"] != anneal.ID() || ev.Attrs["hustin.random"] != "0.5" {
			t.Fatalf("reopened event %d = %v, want move %s", k, ev.Attrs, want)
		}
	}

	if _, _, err := DecodeSnapshot([]byte(`{garbage` + "\n")); err == nil {
		t.Fatal("garbage header not rejected")
	}
	good := strings.SplitN(string(data), "\n", 2)[0]
	if _, _, err := DecodeSnapshot([]byte(good + "\n{garbage\n")); err == nil {
		t.Fatal("garbage span line not rejected")
	}
}

// TestEncodeSnapshotJSONL checks the offline format: one JSON object
// per line, the header first, then one span per line with its events
// and their attributes intact.
func TestEncodeSnapshotJSONL(t *testing.T) {
	tid := TraceIDFromRequest("req-jsonl")
	rec := NewRecorder(Context{TraceID: tid, SpanID: RootSpanID(tid)}, 0)
	root := rec.BeginRoot("job", "")
	root.Event("move", "move", "1", "move_class", "var", "accepted", "true", "dcost", "-1", "hustin.var", "0.5")
	root.Event("move", "move", "2", "move_class", "swap", "accepted", "false", "dcost", "2.5",
		"worst_spec", "gain", "worst_spec_u", "1.5")
	root.End("")
	rec.AddTimed("queue-wait", "", time.Now(), time.Millisecond)

	data, err := EncodeSnapshot(SnapshotHeader{TraceID: tid}, rec.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want header + 2 spans", len(lines))
	}
	var hdr SnapshotHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.TraceID != tid || hdr.Version != SnapshotVersion {
		t.Fatalf("line 1 not the header (%v): %s", err, lines[0])
	}
	var moves []Event
	for i, ln := range lines[1:] {
		var sp Span
		if err := json.Unmarshal([]byte(ln), &sp); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i+2, err)
		}
		if sp.Name == "job" {
			moves = sp.Events
		}
	}
	if len(moves) != 2 || moves[0].Attrs["move"] != "1" || moves[0].Attrs["hustin.var"] != "0.5" ||
		moves[1].Attrs["move"] != "2" || moves[1].Attrs["worst_spec"] != "gain" || moves[1].Attrs["worst_spec_u"] != "1.5" {
		t.Fatalf("move events not round-tripped: %+v", moves)
	}
}
