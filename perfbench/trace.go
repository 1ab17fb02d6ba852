package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the driver
// around the call: name, interval and the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory and writes them once the run ends. A
// disabled tracer records nothing. Its methods are safe for concurrent use.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span under parent and returns its id (0 when disabled).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return s.seconds()
}

// add records an already measured interval as a span.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t.on {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	}
}

// self is span id's duration minus the part of it its children cover
// (children are sequential, so their durations add).
func (t *tracer) self(id int) float64 {
	if id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.spans[id-1].seconds()
	for _, s := range t.spans {
		if s.Parent == id {
			self -= s.seconds()
		}
	}
	return self
}

// write saves the spans as JSON lines; nothing when disabled.
func (t *tracer) write(path string) error {
	if !t.on {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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
