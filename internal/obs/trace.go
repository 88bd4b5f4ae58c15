package obs

import (
	"encoding/json"
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

// TraceRing is the bounded ring of exchange-lifecycle events that
// /debug/trace and the aggscen -trace flag dump.
type TraceRing = Ring[TraceEvent]

// NewTraceRing builds a ring retaining the newest capacity events
// (minimum 1).
func NewTraceRing(capacity int) *TraceRing { return newRing[TraceEvent](capacity) }

// traceDump is the JSON document of a trace ring.
type traceDump struct {
	Total    uint64       `json:"total"`
	Retained int          `json:"retained"`
	Spans    []Span       `json:"spans,omitempty"`
	Events   []TraceEvent `json:"events"`
}
