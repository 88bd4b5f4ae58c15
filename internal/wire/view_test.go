package wire

import (
	"fmt"
	"math/rand"
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

// exchangeViews is one request/reply round between two codecs with the
// given views: from encodes and to observes, then the other way round.
// It returns the kinds of the two frames.
func exchangeViews(from, to *ViewCodec, fromView, toView []uint64) (request, reply ViewKind) {
	f := from.EncodeView(fromView, addrOf)
	to.Observe(f)
	r := to.EncodeView(toView, addrOf)
	from.Observe(r)
	return f.Kind, r.Kind
}

// TestViewCodecRecycled: a codec handed to a new peer by Reset — the
// session table's eviction — is a first-contact codec that kept its
// buffers, and the peer whose session it replaced, which still remembers
// the old stream, falls back to full frames on the generation regression
// and is back in delta mode within two exchanges.
func TestViewCodecRecycled(t *testing.T) {
	var us, peer ViewCodec
	ours := func(stamp int32) []uint64 { return pview(1, 5, 2, 5, 0, stamp) }
	theirs := func(stamp int32) []uint64 { return pview(7, 6, 8, 6, 9, stamp) }
	for i := int32(1); i <= 5; i++ {
		exchangeViews(&us, &peer, ours(10+i), theirs(10+i))
	}
	if us.AckedGen() == 0 || peer.AckedGen() == 0 || peer.recvGen != 5 {
		t.Fatalf("no delta stream to evict: us acked %d, peer acked %d, peer received %d", us.AckedGen(), peer.AckedGen(), peer.recvGen)
	}
	acked, pending := cap(us.acked), cap(us.pendingPacked)
	if acked == 0 || pending == 0 {
		t.Fatal("the established codec owns no buffers to keep")
	}

	// We evict the peer; its slot goes to someone else and, later, comes
	// back to it. Either way the codec is reset.
	us.Scratch = new(ViewScratch)
	us.Reset()
	if us.Scratch != nil || us.nextGen != 0 || us.recvGen != 0 || us.AckedGen() != 0 || us.pendingGen != 0 || us.pendingFull || us.confirmed ||
		len(us.acked) != 0 || len(us.pendingPacked) != 0 {
		t.Fatalf("Reset left state behind: %+v", us)
	}
	if cap(us.acked) != min(acked, pending) || cap(us.pendingPacked) != max(acked, pending) {
		t.Fatalf("Reset dropped a buffer or left the first frame the smaller one: caps %d/%d, were %d/%d",
			cap(us.acked), cap(us.pendingPacked), acked, pending)
	}

	// Our first frame to the peer is what a never-seen peer gets.
	f := us.EncodeView(ours(20), addrOf)
	if f.Kind != ViewFull || f.Gen != 1 || f.Ack != 0 {
		t.Fatalf("a recycled codec's first frame is %+v, want full, generation 1, no ack", f)
	}
	// The peer remembers generation 5: generation 1 is a regression, and
	// it drops the snapshot we acknowledged before the eviction.
	peer.Observe(f)
	if peer.AckedGen() != 0 || len(peer.acked) != 0 || peer.recvGen != 1 {
		t.Fatalf("the peer kept its snapshot across our eviction: acked gen %d, %d entries, received gen %d", peer.AckedGen(), len(peer.acked), peer.recvGen)
	}
	r := peer.EncodeView(theirs(20), addrOf)
	if r.Kind != ViewFull || r.Ack != 1 {
		t.Fatalf("the peer's reply to a regressed stream is %+v, want full acknowledging generation 1", r)
	}
	us.Observe(r)
	// Second exchange: our frame is acknowledged, so it is a delta
	// already; the peer's first frame is acknowledged by it, so its
	// reply is one too.
	if req, rep := exchangeViews(&us, &peer, ours(21), theirs(21)); req != ViewDelta || rep != ViewDelta {
		t.Fatalf("second exchange after the eviction: request %v, reply %v; want both delta", req, rep)
	}
}

// TestViewCodecsShareScratch: codecs that are lent one ViewScratch call
// by call — scribbled over in between, as the next borrower would —
// end up in the state codecs with a scratch of their own end up in. The
// snapshot a codec keeps is never a view of the work space.
func TestViewCodecsShareScratch(t *testing.T) {
	const codecs, rounds = 6, 12
	var shared ViewScratch
	// run drives three pairs of codecs through request/reply rounds over
	// drifting views: one descriptor refreshes every round and one joins
	// every third, so deltas carry entries and snapshots are rebuilt.
	run := func(lend bool) (cs [codecs]ViewCodec) {
		call := func(c *ViewCodec, f func()) {
			if !lend {
				f()
				return
			}
			c.Scratch = &shared
			f()
			c.Scratch = nil
			for _, buf := range [][]uint64{shared.delta[:cap(shared.delta)], shared.known[:cap(shared.known)]} {
				for i := range buf {
					buf[i] = ^uint64(0)
				}
			}
		}
		for round := int32(1); round <= rounds; round++ {
			for p := int32(0); p < codecs/2; p++ {
				view := func(side int32) []uint64 {
					return pview(10*side+1, 5, 10*side+2, round, 10*side+3+round/3, round, 0, 100+round)
				}
				a, b := &cs[2*p], &cs[2*p+1]
				var f, r ViewFrame
				call(a, func() { f = a.AppendView(nil, view(p), addrOf, 0) })
				call(b, func() { b.Observe(f) })
				call(b, func() { r = b.AppendView(nil, view(p+5), addrOf, 0) })
				call(a, func() { a.Observe(r) })
			}
		}
		return cs
	}
	lent, own := run(true), run(false)
	for i := range lent {
		l, o := &lent[i], &own[i]
		if l.nextGen != o.nextGen || l.ackedGen != o.ackedGen || l.recvGen != o.recvGen ||
			!slices.Equal(l.acked, o.acked) || !slices.Equal(l.pendingPacked, o.pendingPacked) {
			t.Fatalf("codec %d: lent scratch diverged from own scratch:\n lent %+v\n  own %+v", i, *l, *o)
		}
	}
	if lent[0].AckedGen() == 0 || len(lent[0].acked) == 0 {
		t.Fatalf("the codecs never formed a delta stream: %+v", lent[0])
	}
}

// TestViewCodecMatchesSetModel drives a codec with random views, acks
// that arrive or do not, and peer restarts, against the plain statement
// of what a frame may carry: everything in the view the peer has not
// confirmed at exactly that freshness must be sent (safety, always), and
// while descriptors that leave the view never return unchanged — which
// is how a NEWSCAST view evolves, the freshest displacing the stalest —
// nothing else is (the frame is the view minus every confirmed frame
// since the last confirmed full one). Throughout, neither buffer of the
// codec outgrows the largest view it has encoded.
func TestViewCodecMatchesSetModel(t *testing.T) {
	for _, returning := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			var c ViewCodec
			confirmed := map[uint64]bool{} // what the peer has acked since the last acked full frame
			var pending []uint64
			var pendingFull bool
			view := map[int32]int32{} // key → stamp
			clock, largest := int32(1), 0
			for step := 0; step < 60; step++ {
				// The view drifts: keys refresh, join and leave.
				for n := rng.Intn(4); n > 0; n-- {
					k := int32(rng.Intn(12))
					switch {
					case rng.Intn(3) == 0:
						delete(view, k)
					case returning:
						view[k] = int32(rng.Intn(3)) // stamps recur
					default:
						clock++
						view[k] = clock
					}
				}
				pairs := make([]int32, 0, 2*len(view))
				for k, s := range view {
					pairs = append(pairs, k, s)
				}
				packed := pview(pairs...)
				largest = max(largest, len(packed))
				wasAcked := c.AckedGen() != 0

				f := c.EncodeView(packed, addrOf)
				sent := map[string]bool{}
				for _, d := range f.Entries {
					sent[fmt.Sprint(d.Addr, d.Stamp)] = true
				}
				unconfirmed := 0
				for _, e := range packed {
					name := fmt.Sprint(addrOf(overlay.UnpackKey(e)), overlay.UnpackStamp(e))
					if !confirmed[e] {
						unconfirmed++
						if !sent[name] {
							t.Fatalf("trial %d step %d: %s is in the view, unconfirmed, and not in the frame %+v", trial, step, name, f)
						}
					}
				}
				if !returning {
					want := unconfirmed
					if !wasAcked || unconfirmed == len(packed) {
						want = len(packed) // a full frame
					}
					if len(f.Entries) != want {
						t.Fatalf("trial %d step %d: frame carries %d descriptors, the set model %d (view %d, kind %v)",
							trial, step, len(f.Entries), want, len(packed), f.Kind)
					}
				}
				if (f.Kind == ViewDelta) != (len(f.Entries) < len(packed)) {
					t.Fatalf("trial %d step %d: a %v frame of %d descriptors for a view of %d", trial, step, f.Kind, len(f.Entries), len(packed))
				}
				if cap(c.acked) > largest || cap(c.pendingPacked) > largest {
					t.Fatalf("trial %d step %d: buffers of %d and %d descriptors, the largest view had %d",
						trial, step, cap(c.acked), cap(c.pendingPacked), largest)
				}
				pending, pendingFull = pending[:0], f.Kind == ViewFull
				for _, e := range packed {
					if sent[fmt.Sprint(addrOf(overlay.UnpackKey(e)), overlay.UnpackStamp(e))] {
						pending = append(pending, e)
					}
				}

				switch rng.Intn(10) {
				case 0: // the peer restarted: its stream regresses
					c.Observe(ViewFrame{Kind: ViewFull, Gen: 1})
					c.Observe(ViewFrame{Kind: ViewFull, Gen: 0}) // and a legacy frame changes nothing
					clear(confirmed)
				case 1, 2: // the frame or its ack was lost
				default:
					c.Observe(ViewFrame{Kind: ViewDelta, Gen: uint32(step + 2), Ack: f.Gen})
					if pendingFull {
						clear(confirmed)
					}
					for _, e := range pending {
						confirmed[e] = true
					}
				}
			}
		}
	}
}
