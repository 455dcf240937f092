package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// interval is a half-open wall-clock interval [Start, End).
type interval struct {
	Start, End time.Time
}

func (iv interval) dur() time.Duration { return iv.End.Sub(iv.Start) }

// span is one traced call into a layer, recorded by the benchmark around
// a public API call. Parent links a span to the span that caused it; Req
// ties together the spans of one control request (0 elsewhere).
type span struct {
	ID     int
	Parent int
	Name   string
	Req    int64
	interval
}

// tracer keeps spans in memory for the length of a run. A nil *tracer is
// the untraced mode: every method is a no-op, so timing code stays the
// same in both modes.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID (0 when untraced).
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		interval: interval{Start: start, End: end}})
	return id
}

// spanJSON is the on-disk form of a span: offsets from the run's epoch.
type spanJSON struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Req     int64  `json:"req,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// write dumps every span as JSON lines to path, creating its directory.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(spanJSON{ID: s.ID, Parent: s.Parent, Name: s.Name, Req: s.Req,
			StartNs: s.Start.Sub(t.epoch).Nanoseconds(), EndNs: s.End.Sub(t.epoch).Nanoseconds()}); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// union merges intervals into a sorted list of disjoint intervals.
func union(ivs []interval) []interval {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	var out []interval
	for _, iv := range s {
		if !iv.End.After(iv.Start) {
			continue
		}
		if n := len(out); n > 0 && !iv.Start.After(out[n-1].End) {
			if iv.End.After(out[n-1].End) {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// overlap returns how much of iv is covered by the sorted, disjoint
// intervals in by (as produced by union).
func overlap(iv interval, by []interval) time.Duration {
	// Skip every interval that ends before iv starts.
	i := sort.Search(len(by), func(i int) bool { return by[i].End.After(iv.Start) })
	var total time.Duration
	for ; i < len(by) && by[i].Start.Before(iv.End); i++ {
		s, e := by[i].Start, by[i].End
		if s.Before(iv.Start) {
			s = iv.Start
		}
		if e.After(iv.End) {
			e = iv.End
		}
		total += e.Sub(s)
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
// Children are clipped to the parent and overlapping children count once.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.dur() - overlap(parent, union(children))
}
