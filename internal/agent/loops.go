package agent

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/obs"
	"antientropy/internal/overlay"
	"antientropy/internal/wire"
)

// advanceEpoch applies the schedule: when wall-clock time has entered a
// later epoch, finish the current instance (recording its output) and
// restart from fresh local values (§4.1). Joiners whose wait has elapsed
// begin participating.
func (n *Node) advanceEpoch(now time.Time) {
	scheduled := n.cfg.Schedule.EpochAt(now)
	n.mu.Lock()
	defer n.mu.Unlock()
	if scheduled <= n.epoch {
		return
	}
	n.finishEpochLocked(now)
	n.epoch = scheduled
	n.startEpochLocked()
}

// finishEpochLocked records the ending epoch's output.
func (n *Node) finishEpochLocked(now time.Time) {
	if !n.participating {
		return
	}
	v, ok := n.estimateLocked()
	n.outputs = append(n.outputs, Output{Epoch: n.epoch, Value: v, OK: ok, At: now})
	if len(n.outputs) > MaxOutputs {
		n.outputs = n.outputs[len(n.outputs)-MaxOutputs:]
	}
}

// startEpochLocked re-initializes the protocol instance for n.epoch.
func (n *Node) startEpochLocked() {
	if !n.participating && n.epoch >= n.joinEpoch {
		n.participating = true
	}
	if n.participating {
		n.resetStateLocked()
	}
}

// resetStateLocked loads fresh initial values (§4.1 restart).
func (n *Node) resetStateLocked() {
	if n.guard != nil {
		// Peer samples gathered under the previous epoch's value
		// assignment must not vote in the next.
		n.guard.ResetAll()
	}
	if n.cfg.Mode == ModeScalar {
		n.scalar = n.cfg.Value()
		return
	}
	// ModeCount: flip the P_lead coin using the previous epoch's size
	// estimate (§5).
	sizeGuess := n.cfg.InitialSizeGuess
	for i := len(n.outputs) - 1; i >= 0; i-- {
		if n.outputs[i].OK {
			sizeGuess = n.outputs[i].Value
			break
		}
	}
	pLead := core.LeaderProbability(n.cfg.Concurrency, sizeGuess)
	// The map is cleared, not replaced: it keeps the room the busiest
	// epoch so far grew it to, so an epoch allocates nothing for its
	// leaders, however many the coins elect.
	if n.mapState == nil {
		n.mapState = core.MapState{}
	}
	clear(n.mapState)
	if n.rng.Bool(pLead) {
		n.mapState[n.leaderID] = 1 // core.NewLeaderState
	}
}

// exchange identifies the push-pull exchange a busy node has
// outstanding. The busy rule allows one at a time, so this is all the
// state the reply path and the timeout need.
type exchange struct {
	peer            string
	seq, epoch, xid uint64
	start           time.Time
}

// initiate performs the active-thread step: select a peer and run one
// push-pull exchange, or a membership exchange while not participating.
// It returns the deadline of the exchange outstanding when it returns,
// started now or by an earlier cycle — the zero time when there is none,
// as when the transport delivers inline and the reply has already been
// applied. started reports that this call sent an exchange request, so
// that a zero deadline with started set means the exchange completed
// inside Send.
func (n *Node) initiate(now time.Time) (deadline time.Time, started bool) {
	n.lock()
	if n.busy || n.stopped {
		// The previous exchange is still outstanding; §6.2 says skipping
		// is harmless.
		deadline = n.deadlineLocked()
		n.unlock()
		return deadline, false
	}
	key, ok := n.nextPeerLocked()
	if !ok {
		n.unlock()
		return deadline, false
	}
	peer := n.keyAddr(key)
	seq := n.nextSeqLocked()
	if !n.participating || n.cfg.Schedule.CycleWithin(now) >= n.cfg.Schedule.Gamma {
		// Joiners integrate into the overlay while they wait (§4.2), and
		// after γ cycles the protocol is terminated (§4.1): the converged
		// estimate is this epoch's output and the node idles until the
		// next epoch — it still answers peers that are behind, and keeps
		// the overlay fresh with membership gossip.
		n.ws.out.Membership = wire.Membership{From: n.Addr(), Seq: seq, View: n.frameLocked(now)}
		buf := n.encode(&n.ws.out.Membership)
		n.unlock()
		n.transmit(peer, buf)
		return deadline, false
	}
	xid := n.xidLocked(seq)
	n.ws.out.ExchangeRequest = wire.ExchangeRequest{From: n.Addr(), Payload: n.payloadLocked(seq, xid, now)}
	buf := n.encode(&n.ws.out.ExchangeRequest)
	start := time.Now()
	epoch := n.epoch
	n.busy = true
	n.pending = exchange{peer: peer, seq: seq, epoch: epoch, xid: xid, start: start}
	n.metrics.exchangesInitiated.Add(1)
	n.unlock()

	n.trace(obs.TraceInitiate, peer, seq, epoch, xid, start)
	n.transmit(peer, buf)

	n.mu.Lock()
	deadline = n.deadlineLocked()
	n.mu.Unlock()
	return deadline, true
}

// peerLead is how many initiations ahead a node draws its exchange peer.
// Views ride on exchanges, so a peer drawn right after averaging with B
// comes from the pool B's next one does. Per-cycle variance contraction,
// 500-node live-mem fleet, 8 epochs each (simulator 0.316–0.322, §3 0.303):
//
//	drawn at the initiation            0.350–0.426 (fresh phase each cycle: 0.368–0.426)
//	uniform random peer, no overlay    0.278–0.301
//	1 / 2 / 3 initiations ahead        0.314–0.348 / 0.300–0.322 / 0.295–0.314
//	view sent in its own Membership    0.295–0.315, +25 % UDP CPU
const peerLead = 2

// nextPeerLocked returns the peer drawn peerLead initiations ago and draws
// its successor. A peer evicted since costs at worst a timeout (§6.2).
func (n *Node) nextPeerLocked() (int32, bool) {
	n.fillAheadLocked()
	if n.nAhead == 0 {
		return 0, false
	}
	key := n.ahead[0]
	copy(n.ahead[:], n.ahead[1:])
	n.nAhead--
	n.fillAheadLocked()
	return key, true
}

// fillAheadLocked tops the peer queue up from the view.
func (n *Node) fillAheadLocked() {
	for ; n.nAhead < peerLead && n.view.Len() > 0; n.nAhead++ {
		n.ahead[n.nAhead], _ = n.view.Peer(n.rng)
	}
}

// deadlineLocked is when the outstanding exchange expires, the zero time
// when none is outstanding.
func (n *Node) deadlineLocked() time.Time {
	if !n.busy {
		return time.Time{}
	}
	return n.pending.start.Add(n.cfg.RequestTimeout)
}

// expire is what the scheduler runs at an exchange's deadline: if the
// reply has not arrived within RequestTimeout, the exchange is skipped
// (§6.2). The reply may have completed the exchange since the deadline
// was queued; only an exchange that has waited out the whole timeout is
// expired.
func (n *Node) expire(now time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.busy || now.Sub(n.pending.start) < n.cfg.RequestTimeout {
		return
	}
	n.busy = false
	n.metrics.timeouts.Add(1)
	p := n.pending
	n.trace(obs.TraceTimeout, p.peer, p.seq, p.epoch, p.xid, time.Time{})
}

// completeLocked applies the reply to the outstanding exchange (active
// thread's sp ← UPDATE(sp, sq)).
func (n *Node) completeLocked(reply *wire.Payload, now time.Time) {
	p := n.pending
	n.busy = false
	// The round trip is measured for every reply, refusals included:
	// it observes the network and the peer's receive path, not the
	// merge. Timeouts are accounted separately — mixing the timeout
	// bound into the latency histogram would fabricate a mode at
	// RequestTimeout.
	rtt := now.Sub(p.start)
	n.metrics.rttSamples.Add(1)
	n.metrics.rttTotalNanos.Add(int64(rtt))
	if n.cfg.RTT != nil {
		n.cfg.RTT.Observe(rtt.Seconds())
	}
	if reply.Flags&wire.FlagRefused != 0 {
		// The peer declined (busy or joining): the exchange is skipped,
		// exactly as if the link had failed (§6.2).
		n.metrics.peerDeclined.Add(1)
		n.trace(obs.TraceDeclined, p.peer, p.seq, p.epoch, p.xid, time.Time{})
		return
	}
	// A reply from a different epoch must not be merged: the local
	// instance it belonged to is gone (its effect equals a lost reply).
	if reply.Epoch != n.epoch || p.epoch != n.epoch {
		n.metrics.staleDropped.Add(1)
		n.trace(obs.TraceStaleDrop, p.peer, p.seq, p.epoch, p.xid, time.Time{})
		return
	}
	n.applyLocked(reply)
	n.metrics.exchangesCompleted.Add(1)
	n.trace(obs.TraceAbsorb, p.peer, p.seq, n.epoch, p.xid, time.Time{})
}

// trace records one exchange-lifecycle event on the optional ring. A
// zero at is stamped by the ring.
func (n *Node) trace(kind obs.TraceKind, peer string, seq, epoch, xid uint64, at time.Time) {
	if n.cfg.Trace == nil {
		return
	}
	n.cfg.Trace.Record(obs.TraceEvent{
		At: at, Node: n.Addr(), Peer: peer, Kind: kind, Seq: seq, Epoch: epoch, XID: xid,
	})
}

// applyLocked merges a remote state into ours. In COUNT mode it
// reorders remote.Entries, which the caller owns (decoder storage).
func (n *Node) applyLocked(remote *wire.Payload) {
	if n.cfg.Mode == ModeScalar {
		if n.guard != nil {
			// The combiner defense decides what the peer's reported
			// estimate is worth before it enters the local state.
			n.scalar = n.guard.Merge(0, n.scalar, remote.Scalar)
			return
		}
		next, _ := n.cfg.Function.Update(n.scalar, remote.Scalar)
		n.scalar = next
		return
	}
	mergeEntries(n.mapState, remote.Entries)
}

// mergeEntries is core.Merge(ours, theirs) in place, with theirs given
// as wire entries: leaders the peer lacks are halved, shared ones
// averaged, peer-only ones inserted at half (§5). The result equals
// core.Merge bit for bit. It sorts entries; when a hostile payload
// repeats a leader the last entry wins, as it did when entries were
// loaded into a map.
func mergeEntries(ours core.MapState, entries []wire.MapEntry) {
	slices.SortStableFunc(entries, func(a, b wire.MapEntry) int { return cmp.Compare(a.Leader, b.Leader) })
	k := 0
	for i, e := range entries {
		if i+1 < len(entries) && entries[i+1].Leader == e.Leader {
			continue
		}
		entries[k] = e
		k++
	}
	entries = entries[:k]
	// Updating existing keys never grows the map, so after this loop a
	// leader is present exactly when it was ours before the merge.
	for l, ea := range ours {
		i, shared := slices.BinarySearchFunc(entries, int64(l), func(e wire.MapEntry, l int64) int { return cmp.Compare(e.Leader, l) })
		if shared {
			ours[l] = (ea + entries[i].Value) / 2
		} else {
			ours[l] = ea / 2
		}
	}
	for _, e := range entries {
		if _, mine := ours[core.LeaderID(e.Leader)]; !mine {
			ours[core.LeaderID(e.Leader)] = e.Value / 2
		}
	}
}

// payloadLocked snapshots the node's state for the wire, membership frame
// included.
func (n *Node) payloadLocked(seq, xid uint64, now time.Time) wire.Payload {
	p := wire.Payload{
		Seq:    seq,
		XID:    xid,
		Epoch:  n.epoch,
		FuncID: n.funcID,
		View:   n.frameLocked(now),
	}
	if n.cfg.Mode == ModeScalar {
		p.Scalar = n.scalar
		if adv := n.cfg.Adversary; adv != nil {
			// The single wire-level injection point: requests and replies
			// alike report the corrupted value (and, for a replay, a past
			// output's epoch tag), while XID/Seq stay honest so the
			// exchange still stitches into one trace span.
			if v, epochTag, lied := adv(n.epoch, n.scalar, n.outputs); lied {
				p.Scalar, p.Epoch = v, epochTag
				n.metrics.adversaryLies.Add(1)
			}
		}
		return p
	}
	entries := n.ws.entries[:0]
	for l, v := range n.mapState {
		if len(entries) == wire.MaxMapEntries {
			break
		}
		entries = append(entries, wire.MapEntry{Leader: int64(l), Value: v})
	}
	n.ws.entries = entries
	p.Entries = entries
	return p
}

// viewDescriptorsLocked unpacks the NEWSCAST view — cache content plus a
// fresh self-descriptor at its sort position, freshest first — into wire
// form, stamps as ticks: what every membership frame and every JoinReply
// carries. The list is cut to the wire limit and, under MaxViewBytes, to
// its longest prefix that fits the cap, so the stalest descriptors are
// the ones trimmed. It lives in the workspace's desc, like every outgoing
// descriptor list.
func (n *Node) viewDescriptorsLocked(now time.Time) []wire.Descriptor {
	packed := n.view.Packed()
	if len(packed) > wire.MaxDescriptors-1 {
		packed = packed[:wire.MaxDescriptors-1]
	}
	self := overlay.Pack(n.view.Self(), n.tick(now))
	at, _ := slices.BinarySearch(packed, self)
	out := n.ws.desc[:0]
	budget := n.cfg.MaxViewBytes
	for i := range len(packed) + 1 {
		e := self
		if i < at {
			e = packed[i]
		} else if i > at {
			e = packed[i-1]
		}
		a := n.keyAddr(overlay.UnpackKey(e))
		if n.cfg.MaxViewBytes > 0 {
			sz := wire.DescriptorWireSize(a)
			if sz > budget {
				break
			}
			budget -= sz
		}
		out = append(out, wire.Descriptor{Addr: a, Stamp: int64(overlay.UnpackStamp(e))})
	}
	n.ws.desc = out
	return out
}

// frameLocked builds the outgoing membership frame: the whole view, as a
// full frame of generation 0 that acknowledges nothing.
func (n *Node) frameLocked(now time.Time) wire.ViewFrame {
	entries := n.viewDescriptorsLocked(now)
	n.metrics.gossipFramesFull.Add(1)
	n.metrics.gossipEntriesSent.Add(int64(len(entries)))
	return wire.ViewFrame{Kind: wire.ViewFull, Entries: entries}
}

// absorbDescriptorsLocked merges received descriptors into the cache.
// The decoder resolved every address the book knew while it parsed; the
// ones it did not are interned here, now that the datagram has validated.
func (n *Node) absorbDescriptorsLocked(ds []wire.Descriptor) {
	if len(ds) == 0 {
		return
	}
	entries := n.ws.absorb[:0]
	for _, d := range ds {
		if d.Addr == "" {
			continue
		}
		id := d.Key
		if !d.Known {
			id = book.Intern(d.Addr)
		}
		entries = append(entries, overlay.Entry{Key: n.viewKey(id), Stamp: stampFromWire(d.Stamp)})
	}
	n.ws.absorb = entries
	n.view.Absorb(entries)
}

func (n *Node) nextSeqLocked() uint64 {
	n.seq++
	return n.seq
}

// sendBufs recycles encode buffers. A message is encoded under the node
// lock (it aliases the hold's workspace) but sent after the lock is
// released, so the buffer has to outlive the hold, and the workspace with
// it.
var sendBufs = sync.Pool{New: func() any { return new([]byte) }}

// encode serializes a message into a pooled buffer for transmit, or
// returns nil after logging when the message cannot be encoded.
func (n *Node) encode(msg wire.Message) *[]byte {
	bp := sendBufs.Get().(*[]byte)
	buf, err := wire.AppendEncode((*bp)[:0], msg)
	if err != nil {
		sendBufs.Put(bp)
		n.log.Error("encode failed", "node", n.Addr(), "type", msg.Type().String(), "err", err)
		return nil
	}
	*bp = buf
	return bp
}

// transmit sends an encoded message and recycles its buffer; transport
// errors are logged and otherwise treated as loss, per the system model.
// The caller must not hold mu: an inline-delivering transport runs the
// peer's handler, and through its reply this node's own, inside Send.
func (n *Node) transmit(to string, bp *[]byte) {
	if bp == nil {
		return
	}
	if err := n.cfg.Endpoint.Send(to, *bp); err != nil {
		n.log.Debug("send failed", "node", n.Addr(), "to", to, "err", err)
	}
	sendBufs.Put(bp)
}

// sendJoinRequest asks one seed for epoch timing and contacts (§4.2).
func (n *Node) sendJoinRequest() {
	n.mu.Lock()
	seq := n.nextSeqLocked()
	var seed string
	if len(n.cfg.Seeds) > 0 {
		seed = n.cfg.Seeds[n.rng.Intn(len(n.cfg.Seeds))]
	}
	n.mu.Unlock()
	if seed == "" || seed == n.Addr() {
		return
	}
	n.transmit(seed, n.encode(&wire.JoinRequest{From: n.Addr(), Seq: seq}))
}
