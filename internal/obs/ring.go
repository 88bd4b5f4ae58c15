package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// record is what a Ring holds.
type record interface{ TraceEvent | TimelineEntry }

// Ring is a bounded ring buffer: recording is O(1), the newest Cap
// records are retained, older ones are overwritten. A nil ring ignores
// records, so callers thread an optional ring without branching. Safe
// for concurrent use.
type Ring[T record] struct {
	mu    sync.Mutex
	buf   []T
	next  int
	total uint64
}

func newRing[T record](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, 0, max(capacity, 1))}
}

// Record appends one record, overwriting the oldest when full. A zero
// At is stamped with the current time. No-op on a nil ring.
func (r *Ring[T]) Record(e T) {
	if r == nil {
		return
	}
	// A type switch, not a method of T: a method call through the type
	// parameter would double the cost of a Record.
	var at *time.Time
	switch p := any(&e).(type) {
	case *TraceEvent:
		at = &p.At
	case *TimelineEntry:
		at = &p.At
	}
	if at.IsZero() {
		*at = time.Now()
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % cap(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Entries returns the retained records, oldest first.
func (r *Ring[T]) Entries() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Total reports how many records were ever recorded (retained or
// overwritten).
func (r *Ring[T]) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// WriteJSON dumps the ring as one indented JSON document: total
// recorded, number retained and the retained records oldest first — for
// a trace ring also stitched into causal exchange spans (see
// StitchSpans). This is what /debug/trace and /debug/timeline serve.
func (r *Ring[T]) WriteJSON(w io.Writer) error {
	var doc any
	switch entries := any(r.Entries()).(type) {
	case []TraceEvent:
		doc = traceDump{Total: r.Total(), Retained: len(entries), Spans: StitchSpans(entries), Events: entries}
	case []TimelineEntry:
		doc = timelineDump{Total: r.Total(), Retained: len(entries), Entries: entries}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ServeHTTP serves the ring's JSON dump, or 404 on a nil ring (tracing
// or the flight recorder off).
func (r *Ring[T]) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	if r == nil {
		http.Error(w, "disabled: no ring attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = r.WriteJSON(w)
}
