package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans of the traced run. Each layer boundary the benchmark calls
// across records a span — name, start, end, parent span and request
// id — into an in-memory ring; the rings are written out as JSON lines
// when the run ends. Rings bound memory: a long run keeps its most
// recent spans and counts the rest.

// span is one timed call.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRingSize is each ring's capacity.
const spanRingSize = 1 << 14

// tracer hands out span ids and rings, all timed against one epoch.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	rings  []*spanRing
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id allocates a span id (never 0, which means "no parent").
func (t *tracer) id() uint64 { return t.nextID.Add(1) }

// at converts a wall time to nanoseconds since the epoch.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// ring returns a new ring registered for writing out.
func (t *tracer) ring() *spanRing {
	r := &spanRing{}
	t.mu.Lock()
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

// record is a convenience for one span with a fresh id.
func (r *spanRing) record(t *tracer, parent uint64, name string, req int64, start, end time.Time) uint64 {
	id := t.id()
	r.add(span{ID: id, Parent: parent, Name: name, Req: req, Start: t.at(start), End: t.at(end)})
	return id
}

// spanRing keeps the most recent spans one recorder produced. The
// mutex is uncontended for per-goroutine rings and cheap for the
// server-side ring its handler goroutines share.
type spanRing struct {
	mu  sync.Mutex
	buf []span
	n   int64
}

func (r *spanRing) add(s span) {
	r.mu.Lock()
	if len(r.buf) < spanRingSize {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.n%spanRingSize] = s
	}
	r.n++
	r.mu.Unlock()
}

// write stores every retained span under dir as <name>.jsonl, first
// line the run's environment, then one span per line in start order.
// It returns how many spans were recorded and how many kept.
func (t *tracer) write(dir, name string, env envInfo) (recorded, kept int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	for _, r := range t.rings {
		r.mu.Lock()
		recorded += r.n
		all = append(all, r.buf...)
		r.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env, "spans_recorded": recorded, "spans_kept": len(all)}); err != nil {
		f.Close()
		return 0, 0, err
	}
	for i := range all {
		if err := enc.Encode(&all[i]); err != nil {
			f.Close()
			return 0, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, fmt.Errorf("writing spans: %w", err)
	}
	return recorded, int64(len(all)), nil
}
