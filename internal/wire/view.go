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
// transport session table — a bounded table that recycles the codec of
// the peer idle longest for a new one (Reset); the codec itself is
// transport- and lock-agnostic.
//
// The codec works directly on the packed uint64 representation of
// overlay.Membership: both the view and the acknowledged snapshot are
// kept as sorted packed sets, the delta is a single sorted-set
// difference, and peer addresses are resolved to wire strings only for
// the descriptors that are actually sent — in the steady state a
// handful per frame instead of the whole view. The snapshot is what the
// peer has confirmed of the view as it was last encoded, never more, so
// neither of a codec's two buffers outgrows one view however long the
// connection lives.
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
	// the sorted packed snapshot of what its confirmations cover of the
	// view last encoded (keys in the sender's own address-book id space).
	// Suppression is by exact (key, stamp) match: a descriptor the peer
	// has seen in this precise freshness is not resent, anything else is —
	// which can only err toward a harmless resend. A descriptor that has
	// left the view leaves the snapshot with the next frame: it would
	// never be resent anyway.
	ackedGen uint32
	acked    []uint64
	// pendingGen/pendingFull/pendingPacked is the most recently sent
	// frame awaiting confirmation. When (and if) the ack arrives, a full
	// frame becomes the snapshot on the spot — the two buffers trade
	// places, a peer met once costs one of them — and a delta is marked
	// confirmed and folded into the snapshot by the next encode, which
	// walks both against the view anyway. Only the newest in-flight frame
	// is tracked: gossip is a steady per-cycle stream, so an older ack
	// simply keeps the current base.
	pendingGen    uint32
	pendingFull   bool
	confirmed     bool
	pendingPacked []uint64
	// recvGen is the newest generation received from the peer — the Ack
	// our next outgoing frame carries.
	recvGen uint32
	// Scratch is the work space an encode computes in (Observe needs
	// none). A codec left with nil allocates its own on first need. A
	// caller with many codecs sets it for the duration of one AppendView
	// and clears it afterwards, so the codecs of every node a goroutine
	// runs compute in one work space that stays in cache, and none keeps
	// a pointer into a work space some other goroutine has since taken
	// over.
	Scratch *ViewScratch
}

// Reset returns the codec to first-contact state for a new peer:
// generations and the pending frame are forgotten and Scratch is cleared,
// while the two snapshot buffers are kept, emptied — a recycled codec
// re-forms its handshake without allocating. The larger buffer becomes
// pendingPacked, which the first frame to the new peer is recorded in.
func (c *ViewCodec) Reset() {
	acked, pending := c.acked[:0], c.pendingPacked[:0]
	if cap(pending) < cap(acked) {
		acked, pending = pending, acked
	}
	*c = ViewCodec{acked: acked, pendingPacked: pending}
}

// ViewScratch holds the two work buffers an encode computes in: the part
// of the view the peer has confirmed, and the rest, the delta. What is in
// them means nothing after the call (the confirmed part's buffer is
// handed to the codec in exchange for the one its snapshot was in), so
// one ViewScratch serves any number of codecs, one call at a time.
type ViewScratch struct {
	known, delta []uint64
}

// sized returns buf emptied, with room for n descriptors and no more
// than it had or exactly that: buffers trade places between codecs and
// work spaces, so one grown generously would end up everywhere.
func sized(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, 0, n)
	}
	return buf[:0]
}

func (c *ViewCodec) scratch() *ViewScratch {
	if c.Scratch == nil {
		c.Scratch = new(ViewScratch)
	}
	return c.Scratch
}

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
		// One pass over the view against what the peer has confirmed —
		// the snapshot and, when its ack has come in since, the last
		// delta: what the peer holds at exactly this freshness is the new
		// snapshot, everything else the delta.
		sc := c.scratch()
		var last []uint64
		if c.confirmed {
			last = c.pendingPacked
		}
		known, delta := sized(sc.known, len(packed)), sized(sc.delta, len(packed))
		j, k := 0, 0
		for _, e := range packed {
			for j < len(c.acked) && c.acked[j] < e {
				j++
			}
			for k < len(last) && last[k] < e {
				k++
			}
			if (j < len(c.acked) && c.acked[j] == e) || (k < len(last) && last[k] == e) {
				known = append(known, e)
			} else {
				delta = append(delta, e)
			}
		}
		c.acked, sc.known, sc.delta = known, c.acked[:0], delta
		c.confirmed = false
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

// Observe processes an incoming frame from the peer: it applies the
// frame's acknowledgement to our send state, records the frame's
// generation for our next Ack, and returns the descriptors to absorb.
func (c *ViewCodec) Observe(f ViewFrame) []Descriptor {
	if f.Ack != 0 && f.Ack == c.pendingGen {
		c.ackedGen = f.Ack
		c.pendingGen = 0
		if c.pendingFull {
			// The snapshot is the frame itself: what else the peer had
			// confirmed is not in our view any more.
			c.acked, c.pendingPacked = c.pendingPacked, c.acked[:0]
		} else {
			c.confirmed = true
		}
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
				c.confirmed = false
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
