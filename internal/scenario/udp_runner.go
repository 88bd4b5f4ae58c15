package scenario

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"antientropy/internal/agent"
	"antientropy/internal/core"
	"antientropy/internal/obs"
	"antientropy/internal/stats"
	"antientropy/internal/transport"
)

// FleetOptions tune the fleet executors, RunLive and RunUDP.
type FleetOptions struct {
	// Workers is the number of UDP muxes RunUDP spreads the fleet's
	// endpoints over (default 3, capped at the scenario's initial size),
	// one socket set each; one drop filter serves them all. Slot i binds
	// on mux i mod Workers whenever it (re)joins. RunLive runs the whole
	// fleet on one in-memory network and ignores it.
	Workers int
	// CycleLen is δ, the wall-clock length of one protocol cycle. The
	// default scales with the fleet size and the machine's cores so that
	// every node can complete its exchange within a cycle — a too-short δ
	// starves the fleet and convergence stalls.
	CycleLen time.Duration
	// Logger receives node debug events, supervisor progress, drop
	// accounting and health alert transitions (default: discard).
	Logger *slog.Logger
	// Obs, when set, exposes the whole fleet on one metrics registry: the
	// nodes' cumulative protocol counters, the fleet's RTT histogram and
	// the networks' transport series, merged at every sample, alongside the
	// per-cycle scenario gauges and the convergence watch.
	Obs *obs.Registry
	// Trace, when set, receives the exchange-trace events of every node:
	// events sharing an exchange identifier stitch into causal spans
	// across muxes (see obs.StitchSpans).
	Trace *obs.TraceRing
	// Timeline, when set, receives one flight-recorder snapshot per
	// sampled cycle (see obs.Timeline). Health rules are evaluated
	// whenever Obs or Timeline is set, logging alert transitions to
	// Logger.
	Timeline *obs.Timeline
}

// withDefaults fills the zero fields for the scenario's fleet on a
// network where a node costs nodeCost of single-core compute per cycle:
// the default cycle spreads that budget for every slot across the cores,
// with floor as its least length, for timer accuracy.
func (o FleetOptions) withDefaults(sc Scenario, nodeCost, floor time.Duration) FleetOptions {
	if o.Workers <= 0 {
		o.Workers = 3
	}
	o.Workers = min(o.Workers, sc.N)
	if o.CycleLen <= 0 {
		perCore := nodeCost / time.Duration(runtime.GOMAXPROCS(0))
		o.CycleLen = max(time.Duration(sc.MaxSlots())*perCore, floor)
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// RunUDP executes the scenario against a fleet of real agent nodes over
// UDP loopback sockets: the paper's runtime on a real network stack, with
// kernel scheduling, packet reordering and socket-buffer pressure in the
// loop. The fleet's endpoints are spread over Workers batched UDP muxes
// in this process; the supervisor acts on the fleet directly as the
// script decides, and injects partitions and loss through the one
// UDPFilter every mux applies — the userspace stand-in for the iptables
// rules a privileged supervisor would install. The run is wall-clock
// driven and therefore not bit-for-bit deterministic, but it chases the
// identical scripted value signal, so its metric stream is directly
// comparable to the other executors'.
func RunUDP(ctx context.Context, sc Scenario, opts FleetOptions) (*RunResult, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// A node's cycle costs the live executor's 150µs plus UDP syscalls
	// and reader wakeups; real sockets also want a higher floor.
	opts = opts.withDefaults(sc, 250*time.Microsecond, 25*time.Millisecond)
	return newSupervisor(ctx, sc, opts, "udp", newSocketNet).run()
}

// supervisor hosts a scenario fleet of real agent nodes and is the fleet
// the script acts on: a crash, join, split, heal, loss or delay takes
// effect the moment the script decides it, as on the simulator. It owns
// the script interpreter, the roster, a slot-indexed node table and the
// one value program, Byzantine schedule, drop filter and cycle clock the
// whole fleet shares; the nodes' endpoints come from its workers'
// networks, slot i from worker i mod Workers. Its cycle loop is the one
// wall-clock loop both fleet executors share.
type supervisor struct {
	sc       Scenario
	executor string
	opts     FleetOptions
	ctx      context.Context
	roster   *fleetRoster
	script   *script
	log      *runLog

	// workers hold the networks; every one applies filter, which carries
	// the scripted partitions and loss.
	workers []*udpWorker
	filter  *transport.UDPFilter

	// sched is the fleet's schedule, anchored at start. cycleNow is the
	// script's cycle clock; node value suppliers and wire hooks read it,
	// so epoch restarts sample the scripted signal at the current cycle.
	sched    core.Schedule
	cycleNow atomic.Int64
	prog     *ValueProgram
	// adv is the run's Byzantine plan: the script marks sybil joins on it
	// and the nodes read it. advStale carries the replay-stale attackers'
	// lagged snapshots from the per-node output subscriptions to the wire
	// hooks; combiner is the defense's merge policy handed to every node.
	adv      *advSchedule
	advStale []liveStaleState
	combiner core.Combiner
	// rtt is the fleet's exchange round-trip histogram, fed by every node.
	rtt *obs.Histogram

	// nodes holds a node on exactly the roster's live slots (a founder
	// has only its endpoint until start).
	nodes []fleetNode
	// retired keeps the counters of crashed nodes, so the cumulative
	// fleet metrics stay monotonic.
	retired fleetTelemetry
	// err is the first failed join, which runCycle reports.
	err      error
	stopping sync.WaitGroup
	stopped  bool

	// tel is the fleet telemetry of the last sample, which the registry's
	// scrape-time funcs read under telMu (the HTTP scrape goroutine is
	// concurrent with the control loop).
	telMu sync.Mutex
	tel   fleetTelemetry
}

// fleetNode is one slot of the node table.
type fleetNode struct {
	node *agent.Node
	ep   nodeEndpoint
}

// fleetTelemetry is the fleet's merged telemetry at one sample.
type fleetTelemetry struct {
	totals      agent.Metrics
	rtt         obs.HistSnapshot
	queueDrops  int64
	filterDrops int64
	queueDepth  int64
	batch       obs.HistSnapshot
}

// fleetSample is the fleet's state at one sample. est summarizes the
// honest participants' estimates as (n, mean, M2 = Σ(x − mean)², min,
// max), which stays exact where raw sums (n, Σx, Σx²) cancel once the
// fleet has converged to a spread far below its mean.
type fleetSample struct {
	alive, participating int
	est                  stats.Moments
	fleetTelemetry
}

// newSupervisor builds the supervisor of a validated scenario with
// opts.Workers networks from newNet.
func newSupervisor(ctx context.Context, sc Scenario, opts FleetOptions, executor string, newNet netBuilder) *supervisor {
	slots := sc.MaxSlots()
	adv := newAdvSchedule(sc, slots)
	prog := NewValueProgram(sc, slots)
	sobs := newScenarioObs(opts.Obs, opts.Timeline, opts.Logger)
	d := &supervisor{
		sc:       sc,
		executor: executor,
		opts:     opts,
		ctx:      ctx,
		roster:   newFleetRoster(slots),
		script:   newScript(sc, slots, stats.NewRNG(sc.Seed^0x666c6565742d72), adv, opts.Logger), // "fleet-r"
		log:      newRunLog(sc, executor, prog, adv, sobs),
		filter:   transport.NewUDPFilter(int64(sc.Seed) + 2),
		prog:     prog,
		adv:      adv,
		rtt:      obs.NewHistogram(obs.RTTBuckets),
		nodes:    make([]fleetNode, slots),
	}
	// The baseline loss applies from the founding on, exactly as in the
	// simulator; loss bursts override it cycle by cycle.
	d.filter.SetLoss(sc.MessageLoss)
	if adv != nil {
		d.advStale = make([]liveStaleState, slots)
	}
	if c, err := sc.Defense.combiner(); err == nil {
		d.combiner = c // err pre-screened by Validate
	}
	for range opts.Workers {
		d.workers = append(d.workers, &udpWorker{newNet: newNet})
	}
	sobs.bindScript(d.script)
	d.bindObs(opts.Obs)
	return d
}

// telemetry returns the last sampled fleet telemetry.
func (d *supervisor) telemetry() fleetTelemetry {
	d.telMu.Lock()
	defer d.telMu.Unlock()
	return d.tel
}

// bindObs registers the fleet aggregates on the supervisor's registry.
// The funcs read the telemetry refreshed at every sample, so scrapes
// between samples see the last consistent fleet snapshot. Lie and
// rejection counters ride the merged agent totals.
func (d *supervisor) bindObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	agent.RegisterMetrics(reg, func() agent.Metrics { return d.telemetry().totals })
	reg.HistogramFunc("agg_exchange_rtt_seconds",
		"Exchange round-trip latency, initiate to reply, in seconds.",
		func() obs.HistSnapshot { return d.telemetry().rtt })
	reg.CounterFunc("agg_transport_queue_drops_total",
		"Datagrams dropped at full endpoint inbound queues.",
		func() int64 { return d.telemetry().queueDrops })
	reg.CounterFunc("agg_transport_filter_drops_total",
		"Datagrams dropped by the scripted loss/partition filter.",
		func() int64 { return d.telemetry().filterDrops })
	reg.GaugeFunc("agg_transport_queue_depth",
		"High watermark of the transport's internal queue depth.",
		func() float64 { return float64(d.telemetry().queueDepth) })
	reg.HistogramFunc("agg_transport_batch_size",
		"Datagrams moved per batched socket operation.",
		func() obs.HistSnapshot { return d.telemetry().batch })
}

// run founds the fleet, plays the script against it on the wall clock and
// winds it down. Every exit path stops the whole fleet.
func (d *supervisor) run() (*RunResult, error) {
	defer d.stop()
	if err := d.init(); err != nil {
		return nil, err
	}
	if err := d.start(); err != nil {
		return nil, err
	}

	// Scenario cycle 1 is the fleet's first epoch restart after founding,
	// so scripted cycles line up exactly with the fleet's epoch restarts;
	// every event/sample instant derives from it — a free-running ticker
	// would slowly drift into the restart edges.
	cycleLen := d.opts.CycleLen
	base := d.sched.StartOf(d.sched.EpochAt(time.Now()) + 1)

	if err := sleepUntil(d.ctx, base.Add(-cycleLen/2)); err != nil {
		return nil, err
	}
	d.sample(0)
	for cycle := 1; cycle <= d.sc.Cycles; cycle++ {
		edge := base.Add(time.Duration(cycle-1) * cycleLen)
		if err := sleepUntil(d.ctx, edge); err != nil {
			return nil, err
		}
		if err := d.runCycle(cycle); err != nil {
			return nil, err
		}
		// Sample halfway into the cycle: node epochs flip at the cycle
		// edges (staggered by their random phases), and sampling during
		// the flip would mix estimates from two epochs.
		if err := sleepUntil(d.ctx, edge.Add(cycleLen/2)); err != nil {
			return nil, err
		}
		d.sample(cycle)
	}
	tel := d.telemetry()
	d.opts.Logger.Info(d.executor+" executor finished",
		"scenario", d.sc.Name, "workers", len(d.workers),
		"queueDrops", tel.queueDrops, "filterDrops", tel.filterDrops,
		"decodeErrors", tel.totals.DecodeErrors)
	return d.log.result, nil
}

// sleepUntil blocks until the wall-clock instant t or ctx cancellation.
func sleepUntil(ctx context.Context, t time.Time) error {
	wait := time.Until(t)
	if wait <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// init builds the workers' networks and binds one endpoint per founding
// slot.
func (d *supervisor) init() error {
	for i, w := range d.workers {
		net, err := w.newNet(d.sc, d.filter)
		if err != nil {
			return fmt.Errorf("scenario %s: worker %d: network: %w", d.sc.Name, i, err)
		}
		w.net = net
	}
	for slot := range d.sc.N {
		if err := d.bind(slot); err != nil {
			return err
		}
	}
	return nil
}

// bind attaches the slot to a fresh endpoint on its worker's network and
// records it alive at the new address — in the slot's component, while
// a partition is on.
func (d *supervisor) bind(slot int) error {
	ep, err := d.workers[slot%len(d.workers)].net.endpoint()
	if err != nil {
		return fmt.Errorf("scenario %s: slot %d: %w", d.sc.Name, slot, err)
	}
	d.nodes[slot].ep = ep
	d.roster.alive[slot], d.roster.addr[slot] = true, ep.Addr()
	if d.script.part.on {
		d.filter.AssignGroup(ep.Addr(), d.script.part.groupOf[slot])
	}
	return nil
}

// start anchors the fleet's schedule and starts the founding nodes,
// NEWSCAST-bootstrapped from the founding address book. The schedule's
// next epoch restarts one cycle from now: founding a node costs ~30µs of
// single-core compute (2.1 GHz Xeon-class vCPU), a small part of the
// default cycle's 150–250µs budget a node, so the first restart after
// founding — scenario cycle 1 — follows the last founder's start within a
// cycle instead of most of an epoch later.
func (d *supervisor) start() error {
	delta := time.Duration(d.sc.EpochLen) * d.opts.CycleLen
	d.sched = core.Schedule{
		Start:    time.Now().Add(d.opts.CycleLen - delta),
		Delta:    delta,
		CycleLen: d.opts.CycleLen,
		Gamma:    d.sc.EpochLen,
	}
	bootstrap := slices.Clone(d.roster.addr[:d.sc.N])
	seen := make(map[int]struct{})
	for slot := range d.sc.N {
		node, err := d.newNode(slot, nil, bootstrapSubset(bootstrap, d.sc.Seed, slot, seen))
		if err != nil {
			return err
		}
		d.nodes[slot].node = node
	}
	for slot := range d.sc.N {
		if err := d.nodes[slot].node.Start(d.ctx); err != nil {
			return fmt.Errorf("starting node %d: %w", slot, err)
		}
	}
	return nil
}

// runCycle lets the script act on the fleet for one cycle.
func (d *supervisor) runCycle(cycle int) error {
	d.cycleNow.Store(int64(cycle))
	d.script.step(cycle, d)
	return d.err
}

func (d *supervisor) aliveCount() int { return d.roster.aliveCount() }
func (d *supervisor) pickAlive() int  { return d.roster.randomAlive(d.script.rng) }

func (d *supervisor) setLoss(p float64) { d.filter.SetLoss(p) }

func (d *supervisor) setDelay(min, max time.Duration) bool {
	ok := true
	for _, w := range d.workers {
		ok = w.net.setLatency(min, max) && ok
	}
	return ok
}

// crash stops a node ungracefully: its endpoint closes mid-protocol and
// peers time out, exactly as a process crash looks from the network. The
// stop completes in the background, so one cycle can crash many nodes
// without stalling the fleet clock.
func (d *supervisor) crash(slot int) {
	n := d.nodes[slot]
	d.nodes[slot] = fleetNode{}
	d.roster.alive[slot] = false
	d.retired.totals.Accumulate(n.node.Metrics())
	d.retired.queueDrops += n.ep.QueueDrops()
	d.retired.filterDrops += n.ep.FilterDrops()
	d.stopping.Add(1)
	go func() {
		defer d.stopping.Done()
		_ = n.node.Stop()
	}()
}

// joinAs brings the slot up as a brand-new identity performing the §4.2
// join: a fresh endpoint (new address), seed contacts among the live
// nodes, participation from the next epoch on. A sybil slot is already
// marked on the shared schedule, so its node reports the attacker's value
// from its first epoch restart on.
func (d *supervisor) joinAs(slot, _ int) {
	seeds := d.roster.seedAddrs(d.script.rng, 3)
	err := d.bind(slot)
	if err == nil {
		d.nodes[slot].node, err = d.newNode(slot, seeds, nil)
	}
	if err == nil {
		err = d.nodes[slot].node.Start(d.ctx)
	}
	if err != nil && d.err == nil {
		d.err = fmt.Errorf("joiner %d: %w", slot, err)
	}
}

// split installs the partition on the filter every network applies:
// datagrams between live addresses in different components are dropped
// on both the send and the receive path.
func (d *supervisor) split(groupOf []int) {
	groups := make(map[string]int, len(d.roster.alive))
	for _, slot := range d.roster.liveSlots() {
		groups[d.roster.addr[slot]] = groupOf[slot]
	}
	d.filter.PartitionGroups(groups)
}

// heal clears the partition and, when one was active, hands the bridge
// slots their rendezvous contacts (see bridgeContacts).
func (d *supervisor) heal(groupOf []int, wasActive bool) {
	d.filter.HealGroups()
	if !wasActive {
		return
	}
	for _, bc := range bridgeContacts(d.script.rng, d.roster, groupOf) {
		d.nodes[bc.slot].node.AddContacts(bc.addrs)
	}
}

// sample records one metrics row from the fleet's state.
func (d *supervisor) sample(cycle int) {
	s := d.gather()
	d.telMu.Lock()
	d.tel = s.fleetTelemetry
	d.telMu.Unlock()
	d.log.record(cycle, s.alive, s.participating, s.est,
		func(slot int) bool { return d.roster.alive[slot] },
		protoTotals{
			Initiated: s.totals.ExchangesInitiated,
			Completed: s.totals.ExchangesCompleted,
			Timeouts:  s.totals.Timeouts,
			Declined:  s.totals.PeerDeclined,
			Drops:     s.queueDrops + s.filterDrops,
		})
}

// gather sums the fleet's state: node counts, the honest participants'
// estimates, the cumulative protocol counters (live nodes plus
// crash-retired ones) and the networks' transport telemetry.
func (d *supervisor) gather() fleetSample {
	s := fleetSample{fleetTelemetry: d.retired}
	for slot, n := range d.nodes {
		if n.node == nil {
			continue
		}
		s.alive++
		s.totals.Accumulate(n.node.Metrics())
		s.queueDrops += n.ep.QueueDrops()
		s.filterDrops += n.ep.FilterDrops()
		if !n.node.Participating() {
			continue
		}
		s.participating++
		// Honest participants only; see runLog.record.
		if d.adv != nil && d.adv.hostile(slot) {
			continue
		}
		if v, ok := n.node.Estimate(); ok {
			s.est.Add(v)
		}
	}
	for _, w := range d.workers {
		s.queueDepth = max(s.queueDepth, w.net.QueueDepthHighWatermark())
		if b := w.net.BatchSizes(); s.batch.Counts == nil {
			s.batch = b
		} else {
			s.batch = s.batch.Merge(b)
		}
	}
	s.rtt = d.rtt.Snapshot()
	return s
}

// stop stops every node, closes every network and waits for the
// background stops. It is safe on a fleet whose init failed or never
// ran, and idempotent.
func (d *supervisor) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	for slot, n := range d.nodes {
		switch {
		case n.node != nil:
			_ = n.node.Stop()
		case n.ep != nil:
			_ = n.ep.Close()
		}
		d.nodes[slot] = fleetNode{}
	}
	for _, w := range d.workers {
		if w.net != nil {
			w.net.close()
		}
	}
	d.stopping.Wait()
}
