package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"astrx/internal/trace"
)

// Self time subtracts the union of the children's intervals: two
// overlapping children count once, and a child running past its
// parent's end counts only inside the parent.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var l spanLog
	tid := l.newTrace()
	root := l.add(tid, "", "run", at(0), at(100))
	a := l.add(tid, root, "a", at(10), at(40))
	b := l.add(tid, root, "b", at(30), at(60))
	c := l.add(tid, root, "c", at(90), at(120))
	gc := l.add(tid, a, "grandchild", at(15), at(20))

	self := selfTimes(l.spans)
	for id, want := range map[string]time.Duration{
		root: 40 * time.Millisecond, // covered: [10,60] and [90,100]
		a:    25 * time.Millisecond,
		b:    30 * time.Millisecond,
		c:    30 * time.Millisecond,
		gc:   5 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("span %s: self %v, want %v", id, self[id], want)
		}
	}

	shares, gap := selfBreakdown(l.spans)
	if math.Abs(shares["run"]-0.4) > 1e-9 || math.Abs(shares["grandchild"]-0.05) > 1e-9 {
		t.Errorf("shares %v", shares)
	}
	// The self times sum to 130 ms against a 100 ms root: the 10 ms
	// overlap of a and b and the 20 ms c spends past the root's end.
	if math.Abs(gap-0.3) > 1e-9 {
		t.Errorf("gap %g, want 0.3", gap)
	}
}

// Sequential children that tile their parent sum back to its wall time.
func TestSelfTimesTileParent(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var l spanLog
	for i := 0; i < 3; i++ {
		tid := l.newTrace()
		base := t0.Add(time.Duration(i) * time.Second)
		root := l.add(tid, "", "run", base, base.Add(100*time.Millisecond))
		l.add(tid, root, "netlist.parse", base, base.Add(time.Millisecond))
		l.add(tid, root, "oblx.run", base.Add(time.Millisecond), base.Add(95*time.Millisecond))
		l.add(tid, root, "verify.design", base.Add(95*time.Millisecond), base.Add(99*time.Millisecond))
	}
	shares, gap := selfBreakdown(l.spans)
	if gap > 1e-12 {
		t.Errorf("gap %g, want 0", gap)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if math.Abs(total-1) > 1e-12 || math.Abs(shares["run"]-0.01) > 1e-12 {
		t.Errorf("shares %v sum to %g", shares, total)
	}
}

func TestSpanLogJSONL(t *testing.T) {
	var l spanLog
	tid := l.newTrace()
	now := time.Now()
	root := l.add(tid, "", "job", now, now.Add(time.Second))
	l.add(tid, root, "server.exec", now.Add(time.Second), now) // negative: clamped
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := l.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []trace.Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp trace.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatal(err)
		}
		got = append(got, sp)
	}
	if len(got) != 2 || got[1].Parent != got[0].SpanID || got[1].TraceID != tid || got[1].DurationNS != 0 {
		t.Errorf("spans %+v", got)
	}
	var nilLog *spanLog
	if nilLog.newTrace() != "" || nilLog.add("", "", "x", now, now) != "" {
		t.Error("a nil span log must record nothing")
	}
}
