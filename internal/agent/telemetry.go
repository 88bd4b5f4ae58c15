package agent

import "antientropy/internal/obs"

// RegisterMetrics exposes one aggregated agent counter set on reg under
// the canonical agg_* names. snap is called at scrape time and should
// return the summed Metrics of whatever population the process hosts —
// a single node, a live fleet plus its retired crash victims, or a UDP
// supervisor's merged worker totals. Registering funcs (rather than
// having nodes increment registry counters directly) keeps the per-node
// counters authoritative, which crash retirement requires, and keeps
// the hot path at exactly one atomic add per event. Next to the counters
// it exports what the process has one of: the size of the shared address
// book, the peer sessions its nodes hold and have recycled, and the
// scheduler's node count and cycle lateness.
func RegisterMetrics(reg *obs.Registry, snap func() Metrics) {
	if reg == nil || snap == nil {
		return
	}
	counter := func(name, help string, read func(Metrics) int64) {
		reg.CounterFunc(name, help, func() int64 { return read(snap()) })
	}
	counter("agg_exchanges_initiated_total",
		"Active-thread exchange attempts.",
		func(m Metrics) int64 { return m.ExchangesInitiated })
	counter("agg_exchanges_completed_total",
		"Exchange replies applied by the initiator.",
		func(m Metrics) int64 { return m.ExchangesCompleted })
	counter("agg_exchanges_served_total",
		"Passive-thread exchange replies sent.",
		func(m Metrics) int64 { return m.ExchangesServed })
	counter("agg_exchange_timeouts_total",
		"Exchange replies that never arrived in time.",
		func(m Metrics) int64 { return m.Timeouts })
	counter("agg_exchanges_refused_busy_total",
		"Incoming exchange requests NACKed while an exchange was outstanding.",
		func(m Metrics) int64 { return m.RefusedBusy })
	counter("agg_exchanges_declined_total",
		"Own exchange requests NACKed by a busy or joining peer.",
		func(m Metrics) int64 { return m.PeerDeclined })
	counter("agg_exchanges_refused_joining_total",
		"Incoming exchange requests NACKed while waiting to join (§4.2).",
		func(m Metrics) int64 { return m.RefusedJoining })
	counter("agg_stale_dropped_total",
		"Messages dropped for belonging to an older epoch.",
		func(m Metrics) int64 { return m.StaleDropped })
	counter("agg_epoch_jumps_total",
		"Jump-forward epoch synchronizations (§4.3).",
		func(m Metrics) int64 { return m.EpochJumps })
	counter("agg_decode_errors_total",
		"Undecodable datagrams received.",
		func(m Metrics) int64 { return m.DecodeErrors })
	counter("agg_gossip_frames_full_total",
		"Outgoing membership frames carrying the whole view.",
		func(m Metrics) int64 { return m.GossipFramesFull })
	counter("agg_gossip_frames_delta_total",
		"Outgoing delta-encoded membership frames.",
		func(m Metrics) int64 { return m.GossipFramesDelta })
	counter("agg_gossip_entries_sent_total",
		"Descriptors sent across all outgoing membership frames.",
		func(m Metrics) int64 { return m.GossipEntriesSent })
	counter("agg_adversary_lies_total",
		"Corrupted wire reports emitted by Byzantine nodes.",
		func(m Metrics) int64 { return m.AdversaryLies })
	counter("agg_adversary_rejected_total",
		"Peer-reported samples the merge-guard defense rejected or clamped.",
		func(m Metrics) int64 { return m.DefenseRejected })
	// Not part of snap: the book is one per process, not one per node. A
	// process that hosts no nodes (the UDP supervisor) reads its own,
	// empty one.
	reg.GaugeFunc("agg_address_book_size",
		"Distinct addresses interned in this process's address book (it only grows).",
		func() float64 { return float64(book.Len()) })
	reg.GaugeFunc("agg_peer_sessions",
		"Per-peer sessions (delta-gossip codec state) held by this process's running nodes; each node keeps at most two views' worth.",
		func() float64 { return float64(peerSessions.Load()) })
	reg.CounterFunc("agg_session_evictions_total",
		"Sessions taken from the peer idle longest and recycled for a peer not among a node's most recent; the evicted peer is met again as a first contact.",
		sessionEvictions.Load)
	reg.GaugeFunc("agg_scheduler_nodes",
		"Started nodes whose cycles and exchange deadlines this process's scheduler serves.",
		func() float64 { return float64(sched.size()) })
	reg.HistogramFunc("agg_tick_lag_seconds",
		"How late after its due time a node's cycle started: one goroutine runs every node, so a slow cycle delays the ones behind it.",
		sched.lag.Snapshot)
}
