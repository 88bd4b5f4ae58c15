package scenario

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"time"

	"antientropy/internal/agent"
	"antientropy/internal/obs"
	"antientropy/internal/stats"
)

// UDPOptions tune the UDP executor.
type UDPOptions struct {
	// Workers is the number of UDP muxes the fleet is sliced across
	// (default 3, capped at the scenario's initial size), one socket set
	// and one drop filter each. Slot i lives in worker i mod Workers for
	// the whole run.
	Workers int
	// CycleLen is δ, the wall-clock length of one protocol cycle. The
	// default scales with the fleet size and the machine's cores like the
	// live executor's, with a higher floor: real sockets add syscall and
	// reader-wakeup cost per exchange.
	CycleLen time.Duration
	// CacheSize is the NEWSCAST cache capacity (default 30).
	CacheSize int
	// QueueLen sizes each endpoint's inbound buffer (default 1024).
	QueueLen int
	// Logger receives node debug events, supervisor progress and drop
	// accounting (default: discard).
	Logger *slog.Logger
	// Obs, when set, exposes the whole fleet on one metrics registry: the
	// workers' cumulative protocol counters, the fleet's RTT histogram and
	// the transport series, merged at every sample, alongside the
	// per-cycle scenario gauges and the convergence watch.
	Obs *obs.Registry
	// Trace, when set, receives the exchange-trace events of every node
	// of every worker: events sharing an exchange identifier stitch into
	// causal spans across workers (see obs.StitchSpans).
	Trace *obs.TraceRing
	// Timeline, when set, receives one flight-recorder snapshot per
	// sampled cycle (see obs.Timeline). Health rules are evaluated
	// whenever Obs or Timeline is set, logging alert transitions to
	// Logger.
	Timeline *obs.Timeline
}

func (o UDPOptions) withDefaults(fleet int) UDPOptions {
	if o.Workers <= 0 {
		o.Workers = 3
	}
	if o.CycleLen <= 0 {
		// Budget ~250µs of single-core compute per node per cycle (the
		// live executor's 150µs plus UDP syscalls and reader wakeups),
		// spread across the cores, with a 25ms floor for timer accuracy.
		perCore := 250 * time.Microsecond / time.Duration(runtime.GOMAXPROCS(0))
		o.CycleLen = time.Duration(fleet) * perCore
		if o.CycleLen < 25*time.Millisecond {
			o.CycleLen = 25 * time.Millisecond
		}
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 30
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 1024
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// RunUDP executes the scenario against a fleet of real agent nodes over
// UDP loopback sockets: the paper's runtime on a real network stack, with
// kernel scheduling, packet reordering and socket-buffer pressure in the
// loop. The fleet is sliced across Workers in-process workers, each on
// its own batched UDP mux; the supervisor coordinates cycle barriers and
// scripted events by direct calls, and injects partitions and loss
// through each worker's UDPFilter — the userspace stand-in for the
// iptables rules a privileged supervisor would install. The run is
// wall-clock driven and therefore not bit-for-bit deterministic, but it
// chases the identical scripted value signal, so its metric stream is
// directly comparable to the other executors'.
func RunUDP(ctx context.Context, sc Scenario, opts UDPOptions) (*RunResult, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(sc.MaxSlots())
	opts.Workers = min(opts.Workers, sc.N)
	return newSupervisor(ctx, sc, opts, "udp", newSocketNet).run()
}

// supervisor hosts a scenario fleet of real agent nodes: it owns the
// script interpreter and the roster, is the fleet the script acts on —
// each action becomes part of the cycle's command batch — and runs the
// one wall-clock loop both fleet executors share. The nodes themselves
// live in its workers, which it calls in turn at every barrier: init
// (bind the founding slots), start (anchor and bootstrap), cycle (the
// scripted interventions) and sample (the partial aggregates), then stop.
// The calls are sequential, so the supervisor's cycle loop doubles as the
// barrier: no worker applies cycle c+1 events before every worker has
// applied cycle c.
type supervisor struct {
	sc       Scenario
	executor string
	opts     UDPOptions
	ctx      context.Context
	roster   *fleetRoster
	script   *script
	log      *runLog

	workers []*udpWorker
	// canDelay tells whether the workers' network can inject latency.
	canDelay bool
	// rtt is the fleet's exchange round-trip histogram, fed by every node.
	rtt *obs.Histogram

	// cmds is the command batch of the cycle being scripted, one command
	// per worker.
	cmds []cycleCmd
	// pendingJoin tracks joins commanded this cycle whose addresses are
	// still unknown (the worker reports them at the barrier); a crash of
	// such a slot in the same cycle cancels the join instead of racing
	// it on the worker.
	pendingJoin map[int]bool
	// pendingAssign broadcasts mid-partition joiner addresses to every
	// worker's drop rules on the next barrier (the owner already knows).
	pendingAssign map[string]int

	// tel is the fleet telemetry of the last sample barrier, which the
	// registry's scrape-time funcs read under telMu (the HTTP scrape
	// goroutine is concurrent with the control loop).
	telMu sync.Mutex
	tel   fleetTelemetry
}

// fleetTelemetry is the fleet's merged telemetry at one sample barrier.
type fleetTelemetry struct {
	totals      agent.Metrics
	rtt         obs.HistSnapshot
	queueDrops  int64
	filterDrops int64
	queueDepth  int64
	batch       obs.HistSnapshot
}

// fleetSample is the fleet's state at one sample barrier, which every
// worker adds its slice to. est summarizes the honest participants'
// estimates as (n, mean, M2 = Σ(x − mean)², min, max), which merges
// without the cancellation raw sums (n, Σx, Σx²) suffer once the fleet
// has converged to a spread far below its mean.
type fleetSample struct {
	alive, participating int
	est                  stats.Moments
	fleetTelemetry
}

// newSupervisor builds the supervisor of a validated scenario with
// opts.Workers workers, each on a network from newNet.
func newSupervisor(ctx context.Context, sc Scenario, opts UDPOptions, executor string, newNet netBuilder) *supervisor {
	slots := sc.MaxSlots()
	adv := newAdvSchedule(sc, slots)
	sobs := newScenarioObs(opts.Obs, opts.Timeline, opts.Logger)
	d := &supervisor{
		sc:       sc,
		executor: executor,
		opts:     opts,
		ctx:      ctx,
		roster:   newFleetRoster(slots),
		// Every worker builds the identical static Byzantine schedule
		// from the scenario; sybil slot assignment happens in the script
		// and rides the join commands.
		script: newScript(sc, slots, stats.NewRNG(sc.Seed^0x666c6565742d72), adv, opts.Logger), // "fleet-r"
		log:    newRunLog(sc, executor, NewValueProgram(sc, slots), adv, sobs),
		rtt:    obs.NewHistogram(obs.RTTBuckets),
	}
	for i := range opts.Workers {
		d.workers = append(d.workers, newUDPWorker(sc, i, opts, d.rtt, newNet))
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
// The funcs read the telemetry refreshed at every sample barrier, so
// scrapes between barriers see the last consistent fleet snapshot. Lie
// and rejection counters ride the merged agent totals.
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
// winds it down. Every exit path stops every worker.
func (d *supervisor) run() (*RunResult, error) {
	defer d.stop()
	if err := d.initWorkers(); err != nil {
		return nil, err
	}
	anchor, err := d.startFleet()
	if err != nil {
		return nil, err
	}

	// Founding a large fleet takes real time, during which the nodes'
	// wall-clock schedule has been running. Anchor scenario cycle 1 to
	// the next epoch boundary so scripted cycles line up exactly with the
	// fleet's epoch restarts, and derive every event/sample instant from
	// that anchor — a free-running ticker would slowly drift into the
	// restart edges.
	cycleLen := d.opts.CycleLen
	delta := time.Duration(d.sc.EpochLen) * cycleLen
	base := anchor.Add((time.Since(anchor)/delta + 1) * delta)

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

// owner returns the worker index a slot lives in.
func (d *supervisor) owner(slot int) int { return slot % len(d.workers) }

// each calls fn on every worker in turn, naming the worker in the first
// error.
func (d *supervisor) each(fn func(i int, w *udpWorker) error) error {
	for i, w := range d.workers {
		if err := fn(i, w); err != nil {
			return fmt.Errorf("scenario %s: worker %d: %w", d.sc.Name, i, err)
		}
	}
	return nil
}

// initWorkers hands every worker its founding slots and learns their
// bound addresses.
func (d *supervisor) initWorkers() error {
	return d.each(func(i int, w *udpWorker) error {
		var slots []int
		for slot := i; slot < d.sc.N; slot += len(d.workers) {
			slots = append(slots, slot)
		}
		addrs, err := w.init(slots)
		d.learnAddrs(addrs)
		return err
	})
}

// learnAddrs folds slot → address reports from init or a cycle into the
// roster.
func (d *supervisor) learnAddrs(addrs map[int]string) {
	for slot, addr := range addrs {
		d.roster.addr[slot] = addr
		d.roster.alive[slot] = true
		if d.script.part.on {
			if d.pendingAssign == nil {
				d.pendingAssign = make(map[string]int)
			}
			d.pendingAssign[addr] = d.script.part.groupOf[slot]
		}
	}
}

// startFleet anchors the shared schedule and starts every founding node.
func (d *supervisor) startFleet() (time.Time, error) {
	anchor := time.Now()
	bootstrap := slices.Clone(d.roster.addr[:d.sc.N])
	return anchor, d.each(func(_ int, w *udpWorker) error { return w.start(anchor, bootstrap) })
}

// runCycle scripts this cycle's command batch, runs the barrier, and
// folds the joiners' addresses back into the roster.
func (d *supervisor) runCycle(cycle int) error {
	cmds := d.plan(cycle, d)
	return d.each(func(i int, w *udpWorker) error {
		addrs, err := w.cycle(cmds[i])
		d.learnAddrs(addrs)
		return err
	})
}

// plan lets the script act for one cycle on f — the supervisor itself,
// or a test's recorder in front of it — and returns the resulting command
// batch.
func (d *supervisor) plan(cycle int, f fleet) []cycleCmd {
	d.cmds = make([]cycleCmd, len(d.workers))
	for i := range d.cmds {
		d.cmds[i] = cycleCmd{Cycle: cycle, Assign: d.pendingAssign}
	}
	d.pendingAssign = nil
	d.pendingJoin = nil
	d.script.step(cycle, f)
	return d.cmds
}

func (d *supervisor) aliveCount() int { return d.roster.aliveCount() }
func (d *supervisor) pickAlive() int  { return d.roster.randomAlive(d.script.rng) }

func (d *supervisor) setLoss(p float64) {
	for i := range d.cmds {
		d.cmds[i].Loss = p
	}
}

func (d *supervisor) setDelay(min, max time.Duration) bool {
	if !d.canDelay {
		return false
	}
	for i := range d.cmds {
		d.cmds[i].DelayMin, d.cmds[i].DelayMax = min, max
	}
	return true
}

// crash marks a slot dead and routes the stop command to its worker. A
// slot whose join was commanded earlier in the same cycle has no node on
// the worker yet, so the join is cancelled instead — the net effect
// (nothing running, slot available for restart) matches the simulator's
// sequential join-then-crash.
func (d *supervisor) crash(slot int) {
	d.roster.alive[slot] = false
	w := d.owner(slot)
	if d.pendingJoin[slot] {
		delete(d.pendingJoin, slot)
		d.cmds[w].Joins = slices.DeleteFunc(d.cmds[w].Joins, func(j udpJoin) bool { return j.Slot == slot })
		return
	}
	d.cmds[w].Crash = append(d.cmds[w].Crash, slot)
}

// joinAs routes a fresh-identity start command to the slot's worker. The
// new node performs the §4.2 join against live seed contacts; while a
// partition is active it lands in the slot's component. A sybil joiner's
// controlling adversary rides the command, so the owning worker marks the
// slot on its schedule too.
func (d *supervisor) joinAs(slot, sybil int) {
	group := -1
	if d.script.part.on {
		group = d.script.part.groupOf[slot]
	}
	w := d.owner(slot)
	d.cmds[w].Joins = append(d.cmds[w].Joins, udpJoin{
		Slot: slot, Seeds: d.roster.seedAddrs(d.script.rng, 3), Group: group, Sybil: sybil + 1,
	})
	if d.pendingJoin == nil {
		d.pendingJoin = make(map[int]bool)
	}
	d.pendingJoin[slot] = true
	d.roster.alive[slot] = true
	// The joiner's address is known only once the worker has brought it
	// up; blank it so seed sampling cannot hand out the stale address
	// meanwhile.
	d.roster.addr[slot] = ""
}

// split broadcasts the addr → component map, so every worker's network
// drops cross-component datagrams on both the send and the receive path.
func (d *supervisor) split(groupOf []int) {
	groups := make(map[string]int, len(d.roster.alive))
	for _, slot := range d.roster.liveSlots() {
		if d.roster.addr[slot] != "" {
			groups[d.roster.addr[slot]] = groupOf[slot]
		}
	}
	for i := range d.cmds {
		d.cmds[i].Groups = groups
	}
}

// heal clears the partition on every worker — joins commanded earlier in
// the cycle land in no component after all — and routes the rendezvous
// refresh (see bridgeContacts) to the bridge slots' owners.
func (d *supervisor) heal(groupOf []int, wasActive bool) {
	for i := range d.cmds {
		d.cmds[i].Heal = true
		d.cmds[i].Groups = nil
		for j := range d.cmds[i].Joins {
			d.cmds[i].Joins[j].Group = -1
		}
	}
	if !wasActive {
		return
	}
	for _, bc := range bridgeContacts(d.script.rng, d.roster, groupOf) {
		w := d.owner(bc.slot)
		d.cmds[w].Contacts = append(d.cmds[w].Contacts, udpContacts{Slot: bc.slot, Addrs: bc.addrs})
	}
}

// sample gathers the workers' partial aggregates into one metrics row.
func (d *supervisor) sample(cycle int) {
	var s fleetSample
	for _, w := range d.workers {
		w.sample(&s)
	}
	s.rtt = d.rtt.Snapshot()
	d.telMu.Lock()
	d.tel = s.fleetTelemetry
	d.telMu.Unlock()
	if s.alive != d.roster.aliveCount() {
		d.opts.Logger.Warn(d.executor+" executor: worker fleet drifted from script state",
			"cycle", cycle, "workersAlive", s.alive, "scriptAlive", d.roster.aliveCount())
	}
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

// stop stops every worker; a worker already stopped, or never
// initialized, is a no-op.
func (d *supervisor) stop() {
	for _, w := range d.workers {
		w.stop()
	}
}
