package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced call into a layer, or one folded per-event counter.
// A call span has Start/End (nanoseconds since the recorder started) and
// Count, the units of work it covered. A folded counter (Fold true) sums
// the per-event calls a layer made inside its parent span: Count calls
// taking BusyNS in total. Spans of one shard, session or evolve run share
// the root's ID through Parent links.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns,omitempty"`
	End    int64  `json:"end_ns,omitempty"`
	Count  int64  `json:"count"`
	BusyNS int64  `json:"busy_ns"`
	Fold   bool   `json:"fold,omitempty"`
}

// recorder keeps a traced run's spans in memory; write puts them out when
// the run ends. A nil recorder records nothing. Per-event calls never become spans of their own: callers
// count them and fold the totals into their enclosing span, so memory is
// bounded by the number of shards, sessions and evolve runs.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	id, parent int64
	name       string
	start      int64
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin starts a call span under parent (0 for a root).
func (r *recorder) begin(name string, parent int64) open {
	if r == nil {
		return open{}
	}
	r.mu.Lock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name})
	r.mu.Unlock()
	return open{id: id, parent: parent, name: name, start: r.now()}
}

// end closes s, recording count units of work, and returns its duration.
func (r *recorder) end(s open, count int64) time.Duration {
	if r == nil {
		return 0
	}
	end := r.now()
	r.mu.Lock()
	r.spans[s.id-1] = span{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: end,
		Count: count, BusyNS: end - s.start}
	r.mu.Unlock()
	return time.Duration(end - s.start)
}

// add records a call span measured elsewhere, with times relative to the
// recorder's start, and returns its ID.
func (r *recorder) add(parent int64, name string, start, end time.Duration) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end),
		Count: 1, BusyNS: int64(end - start)})
	return id
}

// fold records a per-event counter of a layer inside parent.
func (r *recorder) fold(parent int64, name string, count, busyNS int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: int64(len(r.spans)) + 1, Parent: parent, Name: name,
		Count: count, BusyNS: busyNS, Fold: true})
	r.mu.Unlock()
}

// total sums count and busy time over every span named name.
func (r *recorder) total(name string) (count, busyNS int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Name == name {
			count += s.Count
			busyNS += s.BusyNS
		}
	}
	return count, busyNS
}

// children returns the spans whose parent is id.
func (r *recorder) children(id int64) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// named returns the spans named name.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write puts every span out as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			_ = f.Close() // the encode error is the one worth reporting
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
