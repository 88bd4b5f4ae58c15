package sim

import "antientropy/internal/stats"

// decideExchange classifies one initiated exchange attempt with the
// paper's §6/§7 failure semantics, updating the metric counters. The
// caller has already resolved the peer j (j ≥ 0, j ≠ i); peerAlive,
// peerParticipating and allowed describe j's state and the partition
// filter's verdict. It returns proceed = true when the exchange happens,
// with replyLost telling whether only the responder updates (a lost
// reply leaves the responder updated but not the initiator, §7.2). A
// push (push-only or push-sum) draws loss once and has no reply, so a
// delivered push always returns replyLost.
//
// Every exchange is funnelled through this function, so the failure
// semantics — and the per-attempt RNG consumption order, which fixes a
// run's bit-exact behavior — live in one place.
func decideExchange(rng *stats.RNG, m *Metrics, peerAlive, peerParticipating, allowed bool, linkFailure, messageLoss float64, push bool) (proceed, replyLost bool) {
	m.Attempts++
	switch {
	case !peerAlive:
		m.Timeouts++
	case !peerParticipating:
		m.Refusals++
	case !allowed:
		m.PartitionDrops++
	case rng.Bool(linkFailure):
		m.LinkDrops++
	case rng.Bool(messageLoss):
		// The initiating message never arrived: nothing happened.
		m.RequestLosses++
	case push:
		m.Completed++
		return true, true
	default:
		replyLost = rng.Bool(messageLoss)
		if replyLost {
			m.ReplyLosses++
		} else {
			m.Completed++
		}
		return true, replyLost
	}
	return false, false
}

// add accumulates other's counters into m — the engine folds its
// per-shard counters with it after every cycle.
func (m *Metrics) add(other Metrics) {
	m.Attempts += other.Attempts
	m.Completed += other.Completed
	m.Timeouts += other.Timeouts
	m.Refusals += other.Refusals
	m.LinkDrops += other.LinkDrops
	m.RequestLosses += other.RequestLosses
	m.ReplyLosses += other.ReplyLosses
	m.PartitionDrops += other.PartitionDrops
}
