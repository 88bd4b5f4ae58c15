package wire

import (
	"fmt"
	"slices"
	"testing"

	"antientropy/internal/overlay"
)

// pview builds a sorted packed view from (key, stamp) pairs — the form
// the agent hands the codec.
func pview(pairs ...int32) []uint64 {
	out := make([]uint64, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, overlay.Pack(pairs[i], pairs[i+1]))
	}
	slices.Sort(out)
	return out
}

// addrOf is the test resolver: id → "n<id>".
func addrOf(id int32) string { return fmt.Sprintf("n%d", id) }

// TestViewCodecHandshake walks the full first-contact → ack → delta
// sequence between two codecs, the way the agent drives them in a
// request/reply exchange. Key 0 plays the sender's self-descriptor,
// whose stamp refreshes every cycle.
func TestViewCodecHandshake(t *testing.T) {
	var a, b ViewCodec

	// First contact: a full frame, no ack to build deltas on yet.
	f1 := a.EncodeView(pview(1, 5, 2, 5, 0, 10), addrOf)
	if f1.Kind != ViewFull || f1.Gen != 1 || f1.Ack != 0 {
		t.Fatalf("first frame = %+v, want full gen 1 ack 0", f1)
	}
	if got := b.Observe(f1); len(got) != 3 {
		t.Fatalf("receiver absorbed %d entries, want 3", len(got))
	}

	// The reply acks gen 1; a's snapshot is promoted on receipt.
	r1 := b.EncodeView(pview(7, 6, 9, 10), addrOf)
	if r1.Ack != 1 {
		t.Fatalf("reply ack = %d, want 1", r1.Ack)
	}
	a.Observe(r1)
	if a.AckedGen() != 1 {
		t.Fatalf("ackedGen = %d, want 1", a.AckedGen())
	}

	// Next cycle: only the refreshed self-descriptor changed → delta of 1.
	f2 := a.EncodeView(pview(1, 5, 2, 5, 0, 11), addrOf)
	if f2.Kind != ViewDelta || f2.Base != 1 {
		t.Fatalf("second frame = %+v, want delta base 1", f2)
	}
	if len(f2.Entries) != 1 || f2.Entries[0].Addr != "n0" || f2.Entries[0].Stamp != 11 {
		t.Fatalf("delta entries = %v, want refreshed self only", f2.Entries)
	}

	// A new peer and a fresher known one appear → both in the delta;
	// unchanged descriptors stay suppressed. (The second frame was never
	// acked, so the base is still the full frame's snapshot and the
	// refreshed self rides along again.)
	f3 := a.EncodeView(pview(1, 9, 2, 5, 4, 12, 0, 12), addrOf)
	if f3.Kind != ViewDelta || f3.Base != 1 {
		t.Fatalf("third frame = %+v, want delta base 1", f3)
	}
	got := map[string]int64{}
	for _, d := range f3.Entries {
		got[d.Addr] = d.Stamp
	}
	if len(got) != 3 || got["n0"] != 12 || got["n1"] != 9 || got["n4"] != 12 {
		t.Fatalf("delta entries = %v, want n0/n1/n4", f3.Entries)
	}
}

// TestViewCodecDeltaAckAdvancesBase verifies cumulative promotion: after
// a delta frame is acked, the entries it carried join the suppression
// snapshot and are not resent.
func TestViewCodecDeltaAckAdvancesBase(t *testing.T) {
	var a ViewCodec
	a.EncodeView(pview(1, 5, 0, 10), addrOf)             // gen 1, full
	a.Observe(ViewFrame{Kind: ViewFull, Gen: 1, Ack: 1}) // acked
	f2 := a.EncodeView(pview(1, 5, 3, 7, 0, 11), addrOf) // delta: 3 and self
	if f2.Kind != ViewDelta || len(f2.Entries) != 2 {
		t.Fatalf("second frame = %+v", f2)
	}
	a.Observe(ViewFrame{Kind: ViewDelta, Gen: 2, Ack: f2.Gen}) // delta acked
	f3 := a.EncodeView(pview(1, 5, 3, 7, 0, 12), addrOf)
	if f3.Kind != ViewDelta || f3.Base != f2.Gen {
		t.Fatalf("third frame = %+v, want delta base %d", f3, f2.Gen)
	}
	if len(f3.Entries) != 1 || f3.Entries[0].Addr != "n0" {
		t.Fatalf("acked delta entries resent: %v", f3.Entries)
	}
}

// TestViewCodecFallsBackToFull verifies the degenerate case: when every
// descriptor changed, the codec sends a full frame (which also refreshes
// the peer's base).
func TestViewCodecFallsBackToFull(t *testing.T) {
	var a ViewCodec
	a.EncodeView(pview(1, 1, 0, 1), addrOf)
	a.Observe(ViewFrame{Kind: ViewFull, Gen: 1, Ack: 1})
	f := a.EncodeView(pview(1, 2, 0, 2), addrOf)
	if f.Kind != ViewFull {
		t.Fatalf("all-changed frame = %+v, want full", f)
	}
}

// TestViewCodecLostAckKeepsFull verifies loss tolerance: while no ack
// ever arrives, every frame stays full — the receiver can always absorb
// it with no shared state.
func TestViewCodecLostAckKeepsFull(t *testing.T) {
	var a ViewCodec
	for i := int32(0); i < 3; i++ {
		f := a.EncodeView(pview(1, 5, 0, 10+i), addrOf)
		if f.Kind != ViewFull {
			t.Fatalf("frame %d = %+v, want full without acks", i, f)
		}
	}
}

// TestViewCodecStaleAckIgnored verifies that an ack for an older frame
// (frames crossed on the wire) does not promote the newer pending
// snapshot.
func TestViewCodecStaleAckIgnored(t *testing.T) {
	var a ViewCodec
	a.EncodeView(pview(0, 1), addrOf) // gen 1
	a.EncodeView(pview(0, 2), addrOf) // gen 2, pending
	a.Observe(ViewFrame{Kind: ViewFull, Gen: 1, Ack: 1})
	if a.AckedGen() != 0 {
		t.Fatalf("stale ack promoted: ackedGen = %d", a.AckedGen())
	}
	a.Observe(ViewFrame{Kind: ViewFull, Gen: 2, Ack: 2})
	if a.AckedGen() != 2 {
		t.Fatalf("current ack not promoted: ackedGen = %d", a.AckedGen())
	}
}

// TestViewCodecPeerRestart verifies self-healing after a peer loses its
// state: its generations restart, and the generation regression on its
// full frame resets both our receive state and our send-side snapshot,
// so we return to full frames until the handshake re-forms — a delta
// against a base the restarted peer never held would silently starve it.
func TestViewCodecPeerRestart(t *testing.T) {
	var a ViewCodec
	// Establish a delta-mode connection.
	f1 := a.EncodeView(pview(1, 5, 0, 10), addrOf)
	a.Observe(ViewFrame{Kind: ViewDelta, Gen: 90, Ack: f1.Gen})
	if a.recvGen != 90 || a.AckedGen() == 0 {
		t.Fatalf("handshake not formed: recvGen=%d acked=%d", a.recvGen, a.AckedGen())
	}
	if f := a.EncodeView(pview(1, 5, 0, 11), addrOf); f.Kind != ViewDelta {
		t.Fatalf("established connection not in delta mode: %+v", f)
	}
	// The restarted peer speaks from gen 1 again with a full frame: the
	// regression must clear our acked snapshot along with recvGen.
	a.Observe(ViewFrame{Kind: ViewFull, Gen: 1})
	if a.recvGen != 1 {
		t.Fatalf("full frame did not reset recvGen: %d", a.recvGen)
	}
	if a.AckedGen() != 0 {
		t.Fatalf("restart did not clear the acked snapshot: %d", a.AckedGen())
	}
	if f := a.EncodeView(pview(1, 5, 0, 12), addrOf); f.Kind != ViewFull {
		t.Fatalf("post-restart frame = %+v, want full", f)
	}
	// An un-numbered legacy frame leaves the receive state alone.
	a.Observe(ViewFrame{Kind: ViewFull, Gen: 0})
	if a.recvGen != 1 {
		t.Fatalf("legacy frame touched recvGen: %d", a.recvGen)
	}
}

// TestViewCodecBudgetTrimsPrefix verifies the byte budget: the frame
// carries the longest entry prefix whose encoded descriptors fit, and a
// zero budget means unlimited.
func TestViewCodecBudgetTrimsPrefix(t *testing.T) {
	view := pview(1, 5, 2, 6, 3, 7, 0, 10)
	per := DescriptorWireSize("n1") // all test addrs encode to 12 bytes

	var unlimited ViewCodec
	if f := unlimited.AppendView(nil, view, addrOf, 0); len(f.Entries) != 4 {
		t.Fatalf("zero budget trimmed to %d entries, want 4", len(f.Entries))
	}

	var a ViewCodec
	f := a.AppendView(nil, view, addrOf, 2*per+1)
	if len(f.Entries) != 2 {
		t.Fatalf("budget for 2 descriptors sent %d entries", len(f.Entries))
	}
	var total int
	for _, d := range f.Entries {
		total += DescriptorWireSize(d.Addr)
	}
	if total > 2*per+1 {
		t.Fatalf("encoded %d descriptor bytes over budget %d", total, 2*per+1)
	}
	// A budget too small for even one descriptor yields an empty frame —
	// still a valid generation carrying the Ack.
	if f := a.AppendView(nil, view, addrOf, per-1); len(f.Entries) != 0 {
		t.Fatalf("sub-descriptor budget sent %d entries", len(f.Entries))
	}
}

// TestViewCodecBudgetResendsTrimmed verifies the safety property of the
// budget: a trimmed entry never enters the acked snapshot, so once the
// budget allows it the entry is resent rather than silently starved.
func TestViewCodecBudgetResendsTrimmed(t *testing.T) {
	var a ViewCodec
	view := pview(1, 5, 2, 6, 3, 7, 0, 10)
	per := DescriptorWireSize("n1")

	// Gen 1: budget admits only two of four descriptors; the peer acks.
	f1 := a.AppendView(nil, view, addrOf, 2*per)
	if len(f1.Entries) != 2 {
		t.Fatalf("first frame sent %d entries, want 2", len(f1.Entries))
	}
	a.Observe(ViewFrame{Kind: ViewFull, Gen: 1, Ack: f1.Gen})

	// Gen 2, unlimited: the trimmed descriptors must reappear in the
	// delta — they were sent to nobody and may not be suppressed.
	f2 := a.AppendView(nil, view, addrOf, 0)
	if f2.Kind != ViewDelta {
		t.Fatalf("second frame = %+v, want delta", f2)
	}
	got := map[string]bool{}
	for _, d := range f2.Entries {
		got[d.Addr] = true
	}
	sent := map[string]bool{}
	for _, d := range f1.Entries {
		sent[d.Addr] = true
	}
	for _, addr := range []string{"n0", "n1", "n2", "n3"} {
		if sent[addr] && got[addr] {
			t.Fatalf("acked descriptor %s resent in delta %v", addr, f2.Entries)
		}
		if !sent[addr] && !got[addr] {
			t.Fatalf("trimmed descriptor %s starved: delta %v", addr, f2.Entries)
		}
	}
}
