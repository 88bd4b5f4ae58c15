package wire

import (
	"slices"

	"antientropy/internal/overlay"
)

// ViewCodec holds one side's delta-gossip state for a single peer
// connection: which snapshot of our view the peer has acknowledged
// (so the next frame can carry only what changed), which frame of the
// peer we last received (so our next frame acknowledges it), and the
// running generation counter. The agent keeps one codec per peer in its
// transport session table; the codec itself is transport- and
// lock-agnostic.
//
// The codec works directly on the packed uint64 representation of
// overlay.Membership: both the view and the acknowledged snapshot are
// kept as sorted packed sets, the delta is a single two-pointer set
// difference, and peer addresses are resolved to wire strings only for
// the descriptors that are actually sent — in the steady state a
// handful per frame instead of the whole view.
//
// The protocol is deliberately tolerant of datagram loss and peer
// restarts: a lost delta only delays descriptors that re-spread
// epidemically anyway, and a peer that lost its state re-opens with a
// full frame whose regressed generation makes Observe drop the acked
// snapshot, so encoding falls back to full frames until the handshake
// re-establishes itself.
type ViewCodec struct {
	// nextGen numbers outgoing frames (1-based).
	nextGen uint32
	// ackedGen is the newest generation the peer has confirmed; acked is
	// the sorted packed snapshot of what that confirmation covers (keys
	// in the sender's own address-book id space). Suppression is by
	// exact (key, stamp) match: a descriptor the peer has seen in this
	// precise freshness is not resent, anything else is — which can only
	// err toward a harmless resend.
	ackedGen uint32
	acked    []uint64
	// pendingGen/pendingFull/pendingPacked is the most recently sent
	// frame awaiting confirmation; the entries are merged into the acked
	// snapshot only when (and if) the ack arrives, keeping the per-encode
	// cost free of snapshot copying. Only the newest in-flight frame is
	// tracked: gossip is a steady per-cycle stream, so an older ack
	// simply keeps the current base.
	pendingGen    uint32
	pendingFull   bool
	pendingPacked []uint64
	// recvGen is the newest generation received from the peer — the Ack
	// our next outgoing frame carries.
	recvGen uint32
	// Scratch is the work space of the codec's set arithmetic. A caller
	// with many codecs that never run concurrently — a node holds one per
	// peer, all under its lock — points them at one ViewScratch; a codec
	// left with nil allocates its own on first need.
	Scratch *ViewScratch
}

// ViewScratch holds the two work buffers a ViewCodec computes in: the
// delta of a view against the acked snapshot, and the union of that
// snapshot with an acknowledged frame. What is in them means nothing
// after the call (the union's buffer is handed to the codec in exchange
// for the one its snapshot was in).
type ViewScratch struct {
	delta, merge []uint64
}

func (c *ViewCodec) scratch() *ViewScratch {
	if c.Scratch == nil {
		c.Scratch = new(ViewScratch)
	}
	return c.Scratch
}

// ackedSnapshotCap bounds the per-peer snapshot map. A NEWSCAST view
// holds at most MaxDescriptors entries, so snapshots stay naturally
// small; the cap only guards against pathological accumulation.
const ackedSnapshotCap = 4 * MaxDescriptors

// DescriptorWireSize is the encoded size of one descriptor: a uint16
// length prefix, the address bytes and the int64 stamp. View-byte
// budgets are accounted in these units.
func DescriptorWireSize(addr string) int { return 2 + len(addr) + 8 }

// EncodeView builds the next outgoing frame for this peer from our
// current packed view, sorted ascending (cache content plus fresh
// self-descriptor; see overlay.Membership), resolving keys to wire
// addresses with addr only for the entries actually sent. It returns a
// delta against the peer's last-acknowledged snapshot when that is
// established and strictly smaller than the full view, and a full frame
// otherwise. An unsorted view degrades gracefully: entries the peer has
// seen may be resent, never lost.
func (c *ViewCodec) EncodeView(packed []uint64, addr func(int32) string) ViewFrame {
	return c.AppendView(nil, packed, addr, 0)
}

// AppendView is EncodeView with caller-owned storage and a piggyback
// budget. The frame's Entries are built in dst[:0] (grown if needed), so
// a caller that passes the previous frame's Entries back in encodes
// without allocating. When maxBytes > 0, the frame carries only the
// longest prefix of the would-be entries whose descriptors fit in
// maxBytes encoded bytes (DescriptorWireSize each). The overlay
// tolerates partial views by design (§4) — a trimmed entry is simply not
// recorded as pending, so it stays outside the acked snapshot and is
// resent by a later frame instead of being lost. Under fast peer
// rotation, where the delta codec degrades to full frames, the budget is
// the bandwidth backstop.
func (c *ViewCodec) AppendView(dst []Descriptor, packed []uint64, addr func(int32) string, maxBytes int) ViewFrame {
	c.nextGen++
	frame := ViewFrame{Kind: ViewFull, Gen: c.nextGen, Ack: c.recvGen}
	send := packed
	if c.ackedGen != 0 {
		// Two-pointer sorted set difference: everything in the view the
		// peer has not confirmed at exactly this freshness.
		sc := c.scratch()
		delta := slices.Grow(sc.delta[:0], len(packed))
		j := 0
		for _, e := range packed {
			for j < len(c.acked) && c.acked[j] < e {
				j++
			}
			if j < len(c.acked) && c.acked[j] == e {
				continue
			}
			delta = append(delta, e)
		}
		sc.delta = delta
		if len(delta) < len(packed) {
			frame.Kind = ViewDelta
			frame.Base = c.ackedGen
			send = delta
		}
	}
	entries := slices.Grow(dst[:0], len(send))
	budget := maxBytes
	for _, e := range send {
		a := addr(overlay.UnpackKey(e))
		if maxBytes > 0 {
			sz := DescriptorWireSize(a)
			if sz > budget {
				break
			}
			budget -= sz
		}
		entries = append(entries, Descriptor{Addr: a, Stamp: int64(overlay.UnpackStamp(e))})
	}
	// pendingPacked must mirror what was actually sent: entries trimmed
	// by the budget may never enter the acked snapshot, or delta
	// suppression would starve the peer of them permanently.
	send = send[:len(entries)]
	frame.Entries = entries
	c.pendingGen = frame.Gen
	c.pendingFull = frame.Kind == ViewFull
	if cap(c.pendingPacked) < len(send) {
		// Room for one whole view, so no later frame to this peer regrows it.
		c.pendingPacked = make([]uint64, 0, len(packed))
	}
	c.pendingPacked = append(c.pendingPacked[:0], send...)
	return frame
}

// promotePending folds the acknowledged frame into the acked snapshot:
// what the peer has now seen from us is the sent entries on top of the
// already-confirmed snapshot (for a full frame the snapshot is the frame
// itself — older entries are not in our view anymore and would never be
// resent anyway).
func (c *ViewCodec) promotePending() {
	if c.pendingFull || len(c.acked) > ackedSnapshotCap {
		// Full frame — or a snapshot that outgrew its bound (a peer
		// lifetime of deltas over ever-new addresses): restart from the
		// sent entries alone. Resending a descriptor the peer has already
		// seen is harmless, so shrinking the suppression set is safe. The
		// two buffers trade places: a peer met once costs one of them.
		c.acked, c.pendingPacked = c.pendingPacked, c.acked
	} else {
		// Sorted-merge union of the confirmed snapshot and the sent
		// entries (both sorted; pendingPacked is a subsequence of a
		// sorted view).
		sc := c.scratch()
		merged := slices.Grow(sc.merge[:0], len(c.acked)+len(c.pendingPacked))
		i, j := 0, 0
		for i < len(c.acked) && j < len(c.pendingPacked) {
			switch {
			case c.acked[i] < c.pendingPacked[j]:
				merged = append(merged, c.acked[i])
				i++
			case c.acked[i] > c.pendingPacked[j]:
				merged = append(merged, c.pendingPacked[j])
				j++
			default:
				merged = append(merged, c.acked[i])
				i, j = i+1, j+1
			}
		}
		merged = append(merged, c.acked[i:]...)
		merged = append(merged, c.pendingPacked[j:]...)
		// The union becomes the snapshot and the old snapshot's buffer the
		// work space: buffers move between a node's sessions, none is copied.
		c.acked, sc.merge = merged, c.acked[:0]
	}
	c.pendingGen = 0
	c.pendingPacked = c.pendingPacked[:0]
}

// Observe processes an incoming frame from the peer: it applies the
// frame's acknowledgement to our send state, records the frame's
// generation for our next Ack, and returns the descriptors to absorb.
func (c *ViewCodec) Observe(f ViewFrame) []Descriptor {
	if f.Ack != 0 && f.Ack == c.pendingGen {
		c.ackedGen = f.Ack
		c.promotePending()
	}
	switch f.Kind {
	case ViewFull:
		// A full frame restarts the peer's stream (first contact or a
		// peer that lost its state and reset its generations).
		if f.Gen != 0 {
			if f.Gen < c.recvGen {
				// Generation regression: the peer restarted (or evicted
				// our session) and knows nothing of the snapshot it once
				// acknowledged. Drop our send state too, so the next
				// frames go out full until the handshake re-forms —
				// deltas against a base the peer no longer holds would
				// silently starve it of unchanged descriptors.
				c.ackedGen = 0
				c.acked = c.acked[:0]
				c.pendingGen = 0
				c.pendingPacked = c.pendingPacked[:0]
			}
			c.recvGen = f.Gen
		}
	case ViewDelta:
		if f.Gen > c.recvGen {
			c.recvGen = f.Gen
		}
	}
	return f.Entries
}

// AckedGen reports the generation the peer last confirmed (0 = none;
// full frames are being sent).
func (c *ViewCodec) AckedGen() uint32 { return c.ackedGen }
