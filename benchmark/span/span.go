// Package span is the benchmark's in-memory tracer: the harness and the
// layers program both record parent-linked spans with it, and the
// harness writes them out once, when the traced pass ends.
package span

import (
	"sort"
	"time"
)

// Span is one timed interval. IDs start at 1; Parent 0 marks a root.
// Cell names the workload cell the span belongs to, so the spans of one
// cell can be pulled out of a file that holds several.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Cell    string `json:"cell"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // Unix nanoseconds, host clock
	EndNs   int64  `json:"end_ns"`
}

// Tracer collects spans. It is not safe for concurrent use: the
// benchmark is a closed loop with one operation in flight.
type Tracer struct {
	Cell  string
	Spans []Span
}

// Start opens a span under parent and returns its id.
func (t *Tracer) Start(parent int, name string) int {
	id := len(t.Spans) + 1
	t.Spans = append(t.Spans, Span{ID: id, Parent: parent, Cell: t.Cell, Name: name, StartNs: time.Now().UnixNano()})
	return id
}

// End closes span id and returns how long it was open.
func (t *Tracer) End(id int) time.Duration {
	s := &t.Spans[id-1]
	s.EndNs = time.Now().UnixNano()
	return time.Duration(s.EndNs - s.StartNs)
}

// Add records a span whose instants were taken elsewhere and returns its id.
func (t *Tracer) Add(parent int, name string, start, end time.Time) int {
	id := len(t.Spans) + 1
	t.Spans = append(t.Spans, Span{ID: id, Parent: parent, Cell: t.Cell, Name: name, StartNs: start.UnixNano(), EndNs: end.UnixNano()})
	return id
}

// Adopt appends spans recorded by another tracer (the layers
// subprocess), renumbering them and hanging their roots under parent.
func (t *Tracer) Adopt(parent int, spans []Span) {
	base := len(t.Spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.Spans = append(t.Spans, s)
	}
}

// Self is the total and self time of every span that shares a name.
type Self struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // total minus the part of it covered by child spans
}

// SelfTimes folds spans by name, in order of first appearance. Children
// of one span never overlap here (one operation is in flight at a time),
// so the covered part is the plain sum of their durations.
func SelfTimes(spans []Span) []Self {
	children := make(map[int]time.Duration)
	for _, s := range spans {
		children[s.Parent] += time.Duration(s.EndNs - s.StartNs)
	}
	idx := make(map[string]int)
	var out []Self
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, Self{Name: s.Name})
		}
		d := time.Duration(s.EndNs - s.StartNs)
		out[i].Count++
		out[i].Total += d
		out[i].Self += d - children[s.ID]
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Total > out[b].Total })
	return out
}
