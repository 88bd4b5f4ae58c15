package obs

import (
	"testing"
	"time"
)

// at offsets a fixed base instant by milliseconds.
func at(ms int) time.Time {
	return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC).Add(time.Duration(ms) * time.Millisecond)
}

func TestStitchSpansOutcomes(t *testing.T) {
	events := []TraceEvent{
		// XID 1: complete exchange across two nodes.
		{At: at(0), Node: "a", Peer: "b", Kind: TraceInitiate, Seq: 1, Epoch: 3, XID: 1},
		{At: at(2), Node: "b", Peer: "a", Kind: TraceServed, Seq: 1, Epoch: 3, XID: 1},
		{At: at(5), Node: "a", Peer: "b", Kind: TraceAbsorb, Seq: 1, Epoch: 3, XID: 1},
		// XID 2: the responder never saw the request.
		{At: at(10), Node: "a", Peer: "c", Kind: TraceInitiate, Seq: 2, XID: 2},
		{At: at(40), Node: "a", Peer: "c", Kind: TraceTimeout, Seq: 2, XID: 2},
		// XID 3: served but the reply vanished.
		{At: at(20), Node: "a", Peer: "b", Kind: TraceInitiate, Seq: 3, XID: 3},
		{At: at(21), Node: "b", Peer: "a", Kind: TraceServed, Seq: 3, XID: 3},
		{At: at(50), Node: "a", Peer: "b", Kind: TraceTimeout, Seq: 3, XID: 3},
		// XID 4: responder-side events only (initiator ring unmerged).
		{At: at(30), Node: "b", Peer: "d", Kind: TraceServed, Seq: 4, XID: 4},
		// XID 5: busy NACK.
		{At: at(35), Node: "a", Peer: "b", Kind: TraceInitiate, Seq: 5, XID: 5},
		{At: at(36), Node: "b", Peer: "a", Kind: TraceRefusedBusy, Seq: 5, XID: 5},
		{At: at(38), Node: "a", Peer: "b", Kind: TraceDeclined, Seq: 5, XID: 5},
		// No XID: pre-v3 peer, must not stitch.
		{At: at(1), Node: "z", Kind: TraceInitiate, Seq: 9},
	}
	spans := StitchSpans(events)
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	outcomes := map[uint64]string{}
	for _, sp := range spans {
		outcomes[sp.XID] = sp.Outcome
	}
	want := map[uint64]string{
		1: "completed", 2: "request-lost", 3: "reply-lost", 4: "orphan", 5: "declined",
	}
	for xid, outcome := range want {
		if outcomes[xid] != outcome {
			t.Errorf("xid %d outcome = %q, want %q", xid, outcomes[xid], outcome)
		}
	}
	// Spans come back ordered by start time: 1, 2, 3, 4, 5.
	for i, xid := range []uint64{1, 2, 3, 4, 5} {
		if spans[i].XID != xid {
			t.Fatalf("span order = %v...", spans[i].XID)
		}
	}
	one := spans[0]
	if one.Initiator != "a" || one.Responder != "b" || one.Seq != 1 || one.Epoch != 3 {
		t.Errorf("span 1 parties = %+v", one)
	}
	if one.OneWayDelaySeconds != 0.002 || one.RTTSeconds != 0.005 {
		t.Errorf("span 1 delays = %g/%g, want 0.002/0.005", one.OneWayDelaySeconds, one.RTTSeconds)
	}
	if spans[4].RTTSeconds != 0.003 {
		t.Errorf("declined span RTT = %g, want 0.003 (initiate→declined)", spans[4].RTTSeconds)
	}
	if spans[1].OneWayDelaySeconds != 0 {
		t.Errorf("request-lost span has a one-way delay: %g", spans[1].OneWayDelaySeconds)
	}
}

func TestStitchSpansPending(t *testing.T) {
	spans := StitchSpans([]TraceEvent{
		{At: at(0), Node: "a", Kind: TraceInitiate, Seq: 1, XID: 7},
	})
	if len(spans) != 1 || spans[0].Outcome != "pending" {
		t.Fatalf("spans = %+v, want one pending", spans)
	}
}

func TestTimelineRing(t *testing.T) {
	tl := NewTimeline(3)
	for c := 1; c <= 5; c++ {
		tl.Record(TimelineEntry{At: at(c), Cycle: c, Alive: 10 * c})
	}
	if tl.Total() != 5 {
		t.Fatalf("total = %d, want 5", tl.Total())
	}
	entries := tl.Entries()
	if len(entries) != 3 {
		t.Fatalf("retained = %d, want 3", len(entries))
	}
	for i, want := range []int{3, 4, 5} {
		if entries[i].Cycle != want {
			t.Errorf("entries[%d].Cycle = %d, want %d", i, entries[i].Cycle, want)
		}
	}
	stamped := NewTimeline(1)
	stamped.Record(TimelineEntry{Cycle: 1})
	if stamped.Entries()[0].At.IsZero() {
		t.Error("zero At not stamped with the record time")
	}
	// Nil timeline: records are ignored, reads are empty.
	var nilTL *Timeline
	nilTL.Record(TimelineEntry{Cycle: 1})
	if nilTL.Entries() != nil || nilTL.Total() != 0 {
		t.Error("nil timeline not inert")
	}
}
