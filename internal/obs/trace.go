package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// TraceKind classifies one exchange-lifecycle event.
type TraceKind uint8

// Exchange-lifecycle event kinds, matching the protocol's state
// machine: an initiator records initiate → absorb/timeout/declined/
// stale-drop, a responder records served or one of the refusals, and
// both sides record epoch jumps and decode errors.
const (
	// TraceInitiate: the active thread sent an exchange request.
	TraceInitiate TraceKind = iota + 1
	// TraceAbsorb: the initiator applied a reply (exchange completed).
	TraceAbsorb
	// TraceTimeout: the reply never arrived in time.
	TraceTimeout
	// TraceDeclined: the peer NACKed our request (busy or joining).
	TraceDeclined
	// TraceServed: the passive thread replied and merged.
	TraceServed
	// TraceRefusedBusy: we NACKed a request while an exchange was
	// outstanding.
	TraceRefusedBusy
	// TraceRefusedJoining: we NACKed a request while waiting to join.
	TraceRefusedJoining
	// TraceStaleDrop: a message from another epoch was dropped.
	TraceStaleDrop
	// TraceEpochJump: a newer epoch identifier forced a §4.3 jump.
	TraceEpochJump
	// TraceDecodeError: an undecodable datagram arrived.
	TraceDecodeError
)

var traceKindNames = [...]string{
	TraceInitiate:       "initiate",
	TraceAbsorb:         "absorb",
	TraceTimeout:        "timeout",
	TraceDeclined:       "declined",
	TraceServed:         "served",
	TraceRefusedBusy:    "refused-busy",
	TraceRefusedJoining: "refused-joining",
	TraceStaleDrop:      "stale-drop",
	TraceEpochJump:      "epoch-jump",
	TraceDecodeError:    "decode-error",
}

// String names the kind.
func (k TraceKind) String() string {
	if int(k) < len(traceKindNames) && traceKindNames[k] != "" {
		return traceKindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its name.
func (k TraceKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON parses a kind from its name (or, for forward
// compatibility, a raw number), so a /debug/trace dump reads back into
// events. Unknown names decode to 0 rather than failing: one alien
// event must not poison a whole dump.
func (k *TraceKind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err == nil {
		for i, n := range traceKindNames {
			if n == name {
				*k = TraceKind(i)
				return nil
			}
		}
		*k = 0
		return nil
	}
	var num uint8
	if err := json.Unmarshal(data, &num); err != nil {
		return err
	}
	*k = TraceKind(num)
	return nil
}

// TraceEvent is one structured exchange-lifecycle event.
type TraceEvent struct {
	// At is when the event happened.
	At time.Time `json:"at"`
	// Node is the recording node's address (rings are typically shared
	// by every node of a process).
	Node string `json:"node"`
	// Peer is the other party's address, when known.
	Peer string `json:"peer,omitempty"`
	// Kind classifies the event.
	Kind TraceKind `json:"kind"`
	// Seq is the exchange sequence number, correlating the initiate
	// with its outcome.
	Seq uint64 `json:"seq,omitempty"`
	// Epoch the event belonged to.
	Epoch uint64 `json:"epoch,omitempty"`
	// XID is the fleet-wide exchange identifier stamped by the
	// initiator and echoed on the wire (wire v3), letting the
	// initiator's and responder's events of one exchange stitch into a
	// causal span even across processes. Zero when the exchange ran on
	// a pre-v3 wire or the event is not exchange-scoped.
	XID uint64 `json:"xid,omitempty"`
}

// TraceRing is a bounded ring buffer of TraceEvents: recording is O(1),
// the newest Cap events are retained, older ones are overwritten. A nil
// ring ignores records, so callers thread an optional ring without
// branching. Safe for concurrent use.
type TraceRing struct {
	mu    sync.Mutex
	buf   []TraceEvent
	next  int
	total uint64
}

// NewTraceRing builds a ring retaining the newest capacity events
// (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]TraceEvent, 0, capacity)}
}

// Record appends one event, overwriting the oldest when full. A zero At
// is stamped with the current time. No-op on a nil ring.
func (t *TraceRing) Record(ev TraceEvent) {
	if t == nil {
		return
	}
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next] = ev
		t.next = (t.next + 1) % cap(t.buf)
	}
	t.total++
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *TraceRing) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// EventsSince returns, oldest first, the retained events whose
// all-time record index is >= cursor, plus the new cursor (pass 0 on
// the first call, then the returned cursor on subsequent calls): a
// reader follows the ring without re-reading events, each pull
// returning only what was recorded since the last one. Events that
// were overwritten before being pulled are silently lost, which is the
// ring's retention contract.
func (t *TraceRing) EventsSince(cursor uint64) ([]TraceEvent, uint64) {
	if t == nil {
		return nil, cursor
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.buf))
	oldest := t.total - n // all-time index of the oldest retained event
	skip := uint64(0)
	if cursor > oldest {
		skip = cursor - oldest
	}
	if skip >= n {
		return nil, t.total
	}
	out := make([]TraceEvent, 0, n-skip)
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out[skip:], t.total
}

// Total reports how many events were ever recorded (retained or
// overwritten).
func (t *TraceRing) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// traceDump is the JSON shape of WriteJSON.
type traceDump struct {
	Total    uint64       `json:"total"`
	Retained int          `json:"retained"`
	Spans    []Span       `json:"spans,omitempty"`
	Events   []TraceEvent `json:"events"`
}

// WriteJSON dumps the ring as one JSON document: total recorded, number
// retained, the retained events stitched into causal exchange spans
// (see StitchSpans), and the raw retained events oldest first. This is
// what the /debug/trace endpoint and the aggscen -trace flag emit.
func (t *TraceRing) WriteJSON(w io.Writer) error {
	events := t.Events()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traceDump{
		Total:    t.Total(),
		Retained: len(events),
		Spans:    StitchSpans(events),
		Events:   events,
	})
}
