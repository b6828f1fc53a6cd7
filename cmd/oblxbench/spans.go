package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"astrx/internal/trace"
)

// spanLog keeps the traced run's spans in memory until the benchmark
// writes them out at exit. Spans are recorded by the benchmark around
// its calls into each layer; a nil *spanLog (untraced runs) records
// nothing. One goroutine at a time writes a spanLog.
type spanLog struct {
	spans []trace.Span
	next  uint64
}

// newTrace returns a fresh trace ID: one per synthesis run or job.
func (l *spanLog) newTrace() string {
	if l == nil {
		return ""
	}
	l.next++
	return fmt.Sprintf("%032x", l.next)
}

// add records a completed span and returns its ID, so children can name
// it as their parent. An interval that ends before it starts is clamped
// to zero length.
func (l *spanLog) add(traceID, parent, name string, start, end time.Time) string {
	if l == nil {
		return ""
	}
	l.next++
	id := fmt.Sprintf("%016x", l.next)
	d := end.Sub(start)
	if d < 0 {
		d = 0
	}
	l.spans = append(l.spans, trace.Span{
		TraceID: traceID, SpanID: id, Parent: parent, Name: name,
		Start: start, DurationNS: d.Nanoseconds(), Status: "ok",
	})
	return id
}

// writeJSONL writes one span per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range l.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children count
// once, and a child reaching outside its parent counts only inside it.
func selfTimes(spans []trace.Span) map[string]time.Duration {
	type iv struct{ lo, hi int64 }
	children := make(map[string][]iv)
	for _, sp := range spans {
		if sp.Parent != "" {
			lo := sp.Start.UnixNano()
			children[sp.Parent] = append(children[sp.Parent], iv{lo, lo + sp.DurationNS})
		}
	}
	out := make(map[string]time.Duration, len(spans))
	for _, sp := range spans {
		lo, hi := sp.Start.UnixNano(), sp.Start.UnixNano()+sp.DurationNS
		cs := children[sp.SpanID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		covered, reach := int64(0), lo
		for _, c := range cs {
			a, b := max(c.lo, reach), min(c.hi, hi)
			if b > a {
				covered += b - a
				reach = b
			}
		}
		out[sp.SpanID] = time.Duration(sp.DurationNS - covered)
	}
	return out
}

// selfBreakdown aggregates self time by span name as shares of the
// summed root-span wall time, and reports the worst per-trace gap
// between a trace's summed self times and its root's wall time (zero
// when sibling spans never overlap).
func selfBreakdown(spans []trace.Span) (shares map[string]float64, worstGap float64) {
	self := selfTimes(spans)
	byTrace := make(map[string]time.Duration)
	rootWall := make(map[string]time.Duration)
	byName := make(map[string]time.Duration)
	var wall time.Duration
	for _, sp := range spans {
		st := self[sp.SpanID]
		byName[sp.Name] += st
		byTrace[sp.TraceID] += st
		if sp.Parent == "" {
			rootWall[sp.TraceID] += time.Duration(sp.DurationNS)
			wall += time.Duration(sp.DurationNS)
		}
	}
	shares = make(map[string]float64, len(byName))
	for name, d := range byName {
		shares[name] = ratio(d.Seconds(), wall.Seconds())
	}
	for id, w := range rootWall {
		if w > 0 {
			worstGap = math.Max(worstGap, math.Abs((byTrace[id]-w).Seconds())/w.Seconds())
		}
	}
	return shares, worstGap
}
