package obs

import (
	"encoding/json"
	"io"
	"maps"
	"slices"
	"strings"
	"testing"
)

func TestTraceRingWraparound(t *testing.T) {
	ring := NewTraceRing(4)
	for i := 1; i <= 10; i++ {
		ring.Record(TraceEvent{Node: "n", Kind: TraceInitiate, Seq: uint64(i)})
	}
	if got := ring.Total(); got != 10 {
		t.Errorf("total = %d, want 10", got)
	}
	events := ring.Entries()
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	// The newest 4, oldest first: seq 7, 8, 9, 10.
	for i, want := range []uint64{7, 8, 9, 10} {
		if events[i].Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, events[i].Seq, want)
		}
	}
}

func TestTraceRingPartiallyFilled(t *testing.T) {
	ring := NewTraceRing(8)
	ring.Record(TraceEvent{Seq: 1})
	ring.Record(TraceEvent{Seq: 2})
	events := ring.Entries()
	if len(events) != 2 || events[0].Seq != 1 || events[1].Seq != 2 {
		t.Errorf("events = %+v", events)
	}
}

func TestTraceRingZeroAtStamped(t *testing.T) {
	ring := NewTraceRing(1)
	ring.Record(TraceEvent{Seq: 1})
	if ring.Entries()[0].At.IsZero() {
		t.Error("zero At not stamped with the record time")
	}
}

func TestNilTraceRingSafe(t *testing.T) {
	var ring *TraceRing
	ring.Record(TraceEvent{Seq: 1}) // must not panic
	if ring.Entries() != nil || ring.Total() != 0 {
		t.Error("nil ring not empty")
	}
}

func TestTraceRingMinCapacity(t *testing.T) {
	ring := NewTraceRing(0)
	ring.Record(TraceEvent{Seq: 1})
	ring.Record(TraceEvent{Seq: 2})
	events := ring.Entries()
	if len(events) != 1 || events[0].Seq != 2 {
		t.Errorf("events = %+v, want just seq 2", events)
	}
}

func TestTraceWriteJSON(t *testing.T) {
	ring := NewTraceRing(2)
	ring.Record(TraceEvent{Node: "a", Peer: "b", Kind: TraceTimeout, Seq: 3, Epoch: 5})
	var sb strings.Builder
	if err := ring.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Total    uint64 `json:"total"`
		Retained int    `json:"retained"`
		Events   []struct {
			Kind  string `json:"kind"`
			Seq   uint64 `json:"seq"`
			Epoch uint64 `json:"epoch"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &dump); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if dump.Total != 1 || dump.Retained != 1 || len(dump.Events) != 1 {
		t.Fatalf("dump = %+v", dump)
	}
	if e := dump.Events[0]; e.Kind != "timeout" || e.Seq != 3 || e.Epoch != 5 {
		t.Errorf("event = %+v", e)
	}
}

func TestTraceKindNames(t *testing.T) {
	for k := TraceInitiate; k <= TraceDecodeError; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if TraceKind(0).String() != "unknown" || TraceKind(200).String() != "unknown" {
		t.Error("out-of-range kinds must be unknown")
	}
}

// TestRingDumpFields decodes both ring dumps, /debug/trace's and
// /debug/timeline's, with every record field set, and pins their JSON
// keys.
func TestRingDumpFields(t *testing.T) {
	keys := func(t *testing.T, w func(io.Writer) error, list string) (top, rec []string) {
		t.Helper()
		var sb strings.Builder
		if err := w(&sb); err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
		}
		var recs []map[string]any
		if err := json.Unmarshal(doc[list], &recs); err != nil || len(recs) == 0 {
			t.Fatalf("%s: %v\n%s", list, err, sb.String())
		}
		return slices.Sorted(maps.Keys(doc)), slices.Sorted(maps.Keys(recs[0]))
	}
	check := func(what string, got []string, want string) {
		t.Helper()
		if w := strings.Fields(want); !slices.Equal(got, slices.Sorted(slices.Values(w))) {
			t.Errorf("%s keys = %v, want %v", what, got, w)
		}
	}

	ring := NewTraceRing(4)
	ring.Record(TraceEvent{Node: "a", Peer: "b", Kind: TraceInitiate, Seq: 3, Epoch: 5, XID: 9})
	ring.Record(TraceEvent{Node: "a", Peer: "b", Kind: TraceAbsorb, Seq: 3, Epoch: 5, XID: 9})
	top, rec := keys(t, ring.WriteJSON, "events")
	check("trace dump", top, "total retained spans events")
	check("trace event", rec, "at node peer kind seq epoch xid")

	tl := NewTimeline(4)
	tl.Record(TimelineEntry{Cycle: 7, Epoch: 1, Alive: 48, Participating: 47,
		TrueMean: 10, MeanEstimate: 10.2, EstimateStdDev: 0.4, RelError: 0.02, RhoHat: 0.31,
		Initiated: 90, Completed: 80, Timeouts: 6, Declined: 4, Drops: 2, Alerts: []string{RuleMassDrift}})
	top, rec = keys(t, tl.WriteJSON, "entries")
	check("timeline dump", top, "total retained entries")
	check("timeline entry", rec, "at cycle epoch alive participating true_mean mean_estimate "+
		"estimate_stddev rel_error rho_hat initiated completed timeouts declined drops alerts")
}
