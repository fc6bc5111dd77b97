package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed interval recorded at a layer boundary. Spans of
// one operation share Run; Parent is the ID of the enclosing span (0 for
// a root).
type Span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Run    string    `json:"run"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// Recorder keeps spans in memory; WriteFile dumps them when the run
// ends. Spans are recorded from one goroutine.
type Recorder struct {
	spans []Span
}

// Add records a span and returns its ID.
func (r *Recorder) Add(run, name string, parent int, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: run, Name: name, Start: start, End: end})
	return id
}

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span { return r.spans }

// WriteFile writes the spans as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return f.Close()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once, and child time outside the parent is ignored).
func selfTimes(spans []Span) map[int]time.Duration {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End.Sub(s.Start) - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent Span, children []Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// selfMsByName is the per-run total self time of each span name, in ms,
// reduced over runs by the median: a layer's typical self time per
// operation.
func selfMsByName(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	perRun := make(map[string]map[string]float64)
	for _, s := range spans {
		m := perRun[s.Name]
		if m == nil {
			m = make(map[string]float64)
			perRun[s.Name] = m
		}
		m[s.Run] += ms(self[s.ID])
	}
	out := make(map[string]float64, len(perRun))
	for name, runs := range perRun {
		var xs []float64
		for _, v := range runs {
			xs = append(xs, v)
		}
		out[name] = median(xs)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
