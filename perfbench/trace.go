package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into the program: a cell, an
// operation, or a UDP.Do. Spans of one cell or operation share the root's
// ID through Parent. Counters hold what was read at the same boundary.
type span struct {
	ID       int64              `json:"id"`
	Parent   int64              `json:"parent,omitempty"`
	Name     string             `json:"name"`
	Attr     string             `json:"attr,omitempty"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// recorder keeps the traced run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	start  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// begin reserves a span ID and its start time.
func (r *recorder) begin() (id, startNs int64) {
	if r == nil {
		return 0, 0
	}
	return r.nextID.Add(1), r.now()
}

func (r *recorder) now() int64 { return int64(time.Since(r.start)) }

// end closes a span begun with begin.
func (r *recorder) end(id, parent, startNs int64, name, attr string, counters map[string]float64) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Attr: attr, StartNs: startNs, EndNs: r.now(), Counters: counters}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// export returns the spans in ID order.
func (r *recorder) export() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
