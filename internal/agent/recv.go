package agent

import (
	"time"

	"antientropy/internal/core"
	"antientropy/internal/obs"
	"antientropy/internal/wire"
)

// handle is the passive thread of Figure 1 — it serves exchange requests,
// answers joins and membership gossip, and reacts to epoch identifiers
// (§4.3) — as one critical section per datagram: under a single hold of
// the lock it decodes into the hold's workspace, runs the message's
// handler and encodes the reply; the reply is sent after the lock is
// released. The decoded message aliases the decoder's storage (never the
// datagram), so nothing of it may be kept past the unlock except strings.
//
// Every address of the datagram is resolved once, by the decoder's
// lookup in the process's book, and nothing is interned until the
// datagram has validated: absorbDescriptorsLocked interns only what that
// lookup missed. A frame is absorbed whatever its kind: a delta frame, as
// a peer running the delta codec may send, is a subset of its sender's
// view, and the freshest-wins merge takes it like any other.
func (n *Node) handle(from string, data []byte) {
	now := time.Now()
	n.lock()
	msg, err := n.ws.dec.Decode(data)
	if err != nil {
		n.unlock()
		n.metrics.decodeErrors.Add(1)
		n.trace(obs.TraceDecodeError, from, 0, 0, 0, time.Time{})
		n.log.Debug("undecodable datagram", "from", from, "err", err)
		return
	}
	var (
		to    string
		reply wire.Message
	)
	switch m := msg.(type) {
	case *wire.ExchangeRequest:
		to = m.From
		reply = n.handleExchangeRequestLocked(m, now)
	case *wire.ExchangeReply:
		n.handleExchangeReplyLocked(m, now)
	case *wire.JoinRequest:
		to = m.From
		reply = n.handleJoinRequestLocked(m, now)
	case *wire.JoinReply:
		n.handleJoinReplyLocked(m)
	case *wire.Membership:
		to = m.From
		reply = n.handleMembershipLocked(m, now)
	case *wire.MembershipReply:
		n.absorbDescriptorsLocked(m.View.Entries)
	}
	var buf *[]byte
	if reply != nil {
		buf = n.encode(reply)
	}
	n.unlock()
	n.transmit(to, buf)
}

// handleExchangeRequestLocked is the passive thread's core: reply with
// the local state, then install the merged state (Figure 1b), subject to
// the epoch rules of §4.2/§4.3 and the busy rule documented on the
// package. It returns the reply (nil for none) built in the workspace.
func (n *Node) handleExchangeRequestLocked(m *wire.ExchangeRequest, now time.Time) wire.Message {
	switch core.Synchronize(n.epoch, m.Epoch) {
	case core.DropStale:
		n.metrics.staleDropped.Add(1)
		n.trace(obs.TraceStaleDrop, m.From, m.Seq, m.Epoch, m.XID, now)
		n.absorbDescriptorsLocked(m.View.Entries)
		return nil
	case core.JumpForward:
		if n.participating || m.Epoch >= n.joinEpoch {
			// §4.3: adopt the newer epoch immediately, restarting from
			// fresh local values; then serve the request in that epoch.
			n.finishEpochLocked(now)
			n.epoch = m.Epoch
			n.metrics.epochJumps.Add(1)
			n.trace(obs.TraceEpochJump, m.From, m.Seq, m.Epoch, m.XID, now)
			n.startEpochLocked()
		}
	case core.KeepEpoch:
		// Proceed.
	}
	var refused obs.TraceKind
	switch {
	case !n.participating:
		// §7.1: nodes that joined mid-epoch refuse connections belonging
		// to the running epoch. The explicit NACK has the same effect as
		// the paper's timeout — the exchange is skipped — but frees the
		// initiator immediately.
		n.metrics.refusedJoining.Add(1)
		refused = obs.TraceRefusedJoining
	case n.busy:
		// Serving now could break mass conservation with our outstanding
		// exchange; refusing behaves like a failed link (§6.2).
		n.metrics.refusedBusy.Add(1)
		refused = obs.TraceRefusedBusy
	case n.epoch != m.Epoch:
		// Jump was vetoed (we are a joiner for an even later epoch).
		n.metrics.staleDropped.Add(1)
		refused = obs.TraceStaleDrop
	}
	if refused != 0 {
		n.trace(refused, m.From, m.Seq, m.Epoch, m.XID, now)
		n.absorbDescriptorsLocked(m.View.Entries)
		// The decline NACK carries no membership frame: a refusal must
		// stay cheap. The initiator's exchange identifier is echoed so the
		// decline stitches into its span.
		n.ws.out.ExchangeReply = wire.ExchangeReply{From: n.Addr(), Payload: wire.Payload{
			Seq: m.Seq, XID: m.XID, Epoch: m.Epoch, Flags: wire.FlagRefused,
		}}
		return &n.ws.out.ExchangeReply
	}
	// Reply with the pre-merge state, then update (Figure 1b): a reply
	// built after the absorb would echo the initiator's own just-sent
	// descriptors straight back at it.
	n.ws.out.ExchangeReply = wire.ExchangeReply{From: n.Addr(), Payload: n.payloadLocked(m.Seq, m.XID, now)}
	n.absorbDescriptorsLocked(m.View.Entries)
	n.applyLocked(&m.Payload)
	n.metrics.exchangesServed.Add(1)
	n.trace(obs.TraceServed, m.From, m.Seq, m.Epoch, m.XID, now)
	return &n.ws.out.ExchangeReply
}

// handleExchangeReplyLocked absorbs the reply's view and, when the reply
// answers the outstanding exchange, completes it. A late reply — the
// request already timed out: the responder updated, we did not, the
// paper's "lost response" (§7.2) — and a duplicate of one already
// applied both find no matching exchange and are dropped.
func (n *Node) handleExchangeReplyLocked(m *wire.ExchangeReply, now time.Time) {
	n.absorbDescriptorsLocked(m.View.Entries)
	if n.busy && m.Seq == n.pending.seq {
		n.completeLocked(&m.Payload, now)
	}
}

// handleJoinRequestLocked serves §4.2: hand out the next epoch
// identifier, the time until it starts, and bootstrap contacts: the
// descriptors a membership frame carries.
func (n *Node) handleJoinRequestLocked(m *wire.JoinRequest, now time.Time) wire.Message {
	info := n.cfg.Schedule.JoinAt(now)
	n.ws.out.JoinReply = wire.JoinReply{
		Seq:        m.Seq,
		NextEpoch:  info.NextEpoch,
		WaitMicros: info.WaitFor.Microseconds(),
		Seeds:      n.viewDescriptorsLocked(now),
	}
	return &n.ws.out.JoinReply
}

// handleJoinReplyLocked installs the join information from a seed.
func (n *Node) handleJoinReplyLocked(m *wire.JoinReply) {
	if n.participating {
		return // already integrated
	}
	if m.NextEpoch > n.joinEpoch {
		n.joinEpoch = m.NextEpoch
	}
	n.absorbDescriptorsLocked(m.Seeds)
}

// handleMembershipLocked serves a standalone NEWSCAST exchange: reply with
// the pre-merge view, then absorb.
func (n *Node) handleMembershipLocked(m *wire.Membership, now time.Time) wire.Message {
	n.ws.out.MembershipReply = wire.MembershipReply{From: n.Addr(), Seq: m.Seq, View: n.frameLocked(now)}
	n.absorbDescriptorsLocked(m.View.Entries)
	return &n.ws.out.MembershipReply
}
