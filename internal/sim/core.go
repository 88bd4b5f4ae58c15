package sim

import "antientropy/internal/stats"

// Core is the engine surface the failure models, the declarative
// scenario executor and the figure sweeps program against (epoch
// restarts, scripted churn, partitions, loss changes, per-cycle metrics,
// participant snapshots). *Engine is its one implementation; the
// interface stays so a script test can substitute a fake. All methods are
// serial-phase operations: they may only be called from the engine's own
// hooks (BeforeCycle, failure models, Observe) or between cycles, never
// concurrently with a running cycle.
//
// Scalar-mode observation (Value, ForEachParticipant,
// ParticipantMoments) is only valid when Dim() == 0; vector-mode
// observation (ForEachParticipantVec, SizeEstimateAt, SizeMoments,
// RestartVec) only when Dim() > 0.
type Core interface {
	// Cycle returns the number of completed cycles.
	Cycle() int
	// Step advances the simulation by one full cycle: hooks and failures
	// first, then the overlay round, then the exchange loop.
	Step()
	// N returns the (constant) number of node slots.
	N() int
	// Dim returns the state-vector dimension (0 in scalar mode).
	Dim() int
	// AliveCount returns the number of currently live nodes.
	AliveCount() int
	// Alive reports whether node is currently live.
	Alive(node int) bool
	// Participating reports whether node is live and part of the current
	// epoch.
	Participating(node int) bool
	// ParticipantCount returns the number of live nodes taking part in
	// the current epoch.
	ParticipantCount() int
	// ParticipantMoments returns streaming moments of the participants'
	// scalar estimates.
	ParticipantMoments() stats.Moments
	// Value returns node's scalar estimate (scalar mode).
	Value(node int) float64
	// ForEachParticipant calls fn for every live, participating node with
	// its scalar estimate (scalar mode).
	ForEachParticipant(fn func(node int, value float64))
	// ForEachParticipantVec calls fn for every live, participating node
	// with a read-only view of its state vector (vector mode). The slice
	// must not be retained or modified.
	ForEachParticipantVec(fn func(node int, vec []float64))
	// SizeEstimateAt converts node's vector-mode state into a network-size
	// estimate with the §7.3 combiner (+Inf when the node holds no mass).
	SizeEstimateAt(node int) float64
	// SizeMoments aggregates the finite size estimates of all
	// participants (vector mode).
	SizeMoments() stats.Moments
	// Metrics returns the exchange counters accumulated so far.
	Metrics() Metrics
	// Kill marks a node as crashed.
	Kill(node int)
	// Replace substitutes the slot with a brand-new joiner identity.
	Replace(node int)
	// Restart begins a new epoch in place (§4.1 automatic restart).
	Restart(init func(node int) float64)
	// RestartVec begins a new epoch in vector mode, reinitializing
	// component d of node i from init (the §5 COUNT lifecycle's restart).
	RestartVec(init func(node, dim int) float64)
	// SetScalar overwrites node's scalar estimate.
	SetScalar(node int, v float64)
	// SetExchangeFilter installs (or removes, with nil) the partition
	// veto on exchanges — aggregation and overlay gossip alike.
	SetExchangeFilter(filter func(i, j int) bool)
	// SetMessageLoss changes the per-message drop probability mid-run.
	SetMessageLoss(p float64)
	// SetLinkFailure changes the per-exchange drop probability mid-run.
	SetLinkFailure(p float64)
	// RandomAlive returns a uniformly random live node, or -1 when none.
	RandomAlive() int
	// ReseedOverlay refreshes node's overlay view from a random sample of
	// the whole network, as an out-of-band rendezvous (seed lists, DNS)
	// would after a partition heals.
	ReseedOverlay(node int)
}

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
