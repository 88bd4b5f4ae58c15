package scenario

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"antientropy/internal/agent"
	"antientropy/internal/core"
	"antientropy/internal/obs"
	"antientropy/internal/stats"
	"antientropy/internal/transport"
)

// LiveOptions tune the live-fleet executor.
type LiveOptions struct {
	// CycleLen is δ, the wall-clock length of one protocol cycle. The
	// default scales with the fleet size and the machine's cores so that
	// every node can complete its exchange within a cycle — a too-short δ
	// starves the fleet and convergence stalls.
	CycleLen time.Duration
	// CacheSize is the NEWSCAST cache capacity (default 30).
	CacheSize int
	// Logger receives node debug events (default: discard).
	Logger *slog.Logger
	// Obs, when set, exposes the fleet on a metrics registry: the
	// aggregated agent counters (agg_*_total, summed over live nodes plus
	// crash-retired ones), one shared agg_exchange_rtt_seconds histogram,
	// the per-cycle scenario gauges and the convergence watch. Scrapes
	// read atomics and never block the protocol.
	Obs *obs.Registry
	// Trace, when set, receives exchange-lifecycle events from every node
	// of the fleet (one shared bounded ring).
	Trace *obs.TraceRing
	// Timeline, when set, receives one flight-recorder snapshot per
	// sampled cycle (see obs.Timeline). Health rules are evaluated
	// whenever Obs or Timeline is set, logging alert transitions to
	// Logger.
	Timeline *obs.Timeline
}

func (o LiveOptions) withDefaults(fleet int) LiveOptions {
	if o.CycleLen <= 0 {
		// Budget ~150µs of single-core compute per node per cycle (two
		// goroutine wakeups, two piggybacked-gossip datagrams, timer
		// churn), spread across the available cores, with a 15ms floor
		// for timer accuracy. Measured on one core, a 1000-node fleet
		// converges cleanly at 150ms cycles and starves at 50ms.
		perCore := 150 * time.Microsecond / time.Duration(runtime.GOMAXPROCS(0))
		o.CycleLen = time.Duration(fleet) * perCore
		if o.CycleLen < 15*time.Millisecond {
			o.CycleLen = 15 * time.Millisecond
		}
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 30
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// RunLive executes the scenario against a fleet of real agent nodes over
// the in-memory transport: every node is the paper's active/passive pair
// on real time — cycles, timeouts, epochs and joins, run by the process's
// scheduler and the transport's deliveries; partitions, loss and delay
// bursts are injected at the transport layer. Unlike the simulator
// executor the run is wall-clock driven and therefore not bit-for-bit
// deterministic, but it chases the identical scripted value signal, so
// the two metric streams are directly comparable.
func RunLive(ctx context.Context, sc Scenario, opts LiveOptions) (*RunResult, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(sc.MaxSlots())

	slots := sc.MaxSlots()
	prog := NewValueProgram(sc, slots)
	rng := stats.NewRNG(sc.Seed ^ 0x6c6976652d72756e)
	net := transport.NewMemNetwork(transport.MemNetworkConfig{
		Loss: sc.MessageLoss,
		Seed: int64(sc.Seed) + 1,
	})
	defer net.Close()

	schedule := core.Schedule{
		Start:    time.Now(),
		Delta:    time.Duration(sc.EpochLen) * opts.CycleLen,
		CycleLen: opts.CycleLen,
		Gamma:    sc.EpochLen,
	}

	d := &liveDriver{
		sc:     sc,
		prog:   prog,
		roster: newFleetRoster(slots, sc.N),
		nodes:  make([]*agent.Node, slots),
		rng:    rng,
		net:    net,
		opts:   opts,
		sched:  schedule,
		ctx:    ctx,
		adv:    newAdvSchedule(sc, slots),
		sobs:   newScenarioObs(opts.Obs, opts.Timeline, opts.Logger),
	}
	if d.adv != nil {
		d.advStale = make([]liveStaleState, slots)
	}
	if c, err := sc.Defense.combiner(); err == nil {
		d.combiner = c // err pre-screened by Validate
	}
	if opts.Obs != nil && (d.adv != nil || sc.Defense.JoinCap > 0) {
		// Rebind the zero-valued adversary series newScenarioObs just
		// registered to this run's schedule. The lie and rejection counters
		// live in the per-node agent metrics; RegisterMetrics below rebinds
		// those to the fleet aggregation.
		adv := d.adv
		opts.Obs.GaugeFunc("agg_adversary_nodes", advNodesHelp, func() float64 {
			if adv == nil {
				return 0
			}
			return float64(adv.HostileCount())
		})
		opts.Obs.CounterFunc("agg_adversary_joins_refused_total", advRefusedHelp, func() int64 {
			return d.joinsRefused.Load()
		})
	}
	if opts.Obs != nil {
		d.rtt = opts.Obs.Histogram("agg_exchange_rtt_seconds",
			"Exchange round-trip latency, initiate to reply, in seconds.", obs.RTTBuckets)
		opts.Obs.GaugeFunc("agg_transport_queue_depth",
			"High watermark of the transport's internal queue depth.",
			func() float64 { return float64(net.QueueDepthHighWatermark()) })
		opts.Obs.HistogramFunc("agg_transport_batch_size",
			"Datagrams moved per batched socket operation.",
			func() obs.HistSnapshot { return net.BatchSizes() })
	}
	defer d.stopAll()

	// Found the deployment: the initial fleet bootstraps its NEWSCAST
	// caches from the full address list and starts in the first epoch.
	endpoints := make([]*transport.MemEndpoint, sc.N)
	bootstrap := make([]string, sc.N)
	for slot := 0; slot < sc.N; slot++ {
		endpoints[slot] = net.Endpoint()
		bootstrap[slot] = endpoints[slot].Addr()
		d.roster.addr[slot] = bootstrap[slot]
	}
	for slot := 0; slot < sc.N; slot++ {
		node, err := d.newNode(slot, endpoints[slot], nil, bootstrap)
		if err != nil {
			return nil, err
		}
		d.nodes[slot] = node
	}
	for slot := 0; slot < sc.N; slot++ {
		if err := d.nodes[slot].Start(ctx); err != nil {
			return nil, fmt.Errorf("scenario %s: starting node %d: %w", sc.Name, slot, err)
		}
		d.roster.alive[slot] = true
	}
	// Bind the scrape-time aggregation only once the fleet exists; from
	// here on every roster mutation happens under d.mu, so a concurrent
	// scrape always sees a consistent node set.
	agent.RegisterMetrics(opts.Obs, d.fleetMetrics)

	result := &RunResult{
		Scenario: sc.Name, Executor: "live",
		N: sc.N, Slots: slots, Seed: sc.Seed,
		PerCycle: make([]CycleMetrics, 0, sc.Cycles+1),
	}

	// Founding a large fleet takes real time, during which the nodes'
	// wall-clock schedule has been running. Anchor scenario cycle 1 to
	// the next epoch boundary so scripted cycles line up exactly with the
	// fleet's epoch restarts, and derive every event/sample instant from
	// that anchor — a free-running ticker would slowly drift into the
	// restart edges.
	startEpoch := time.Since(schedule.Start)/schedule.Delta + 1
	base := schedule.Start.Add(startEpoch * schedule.Delta)

	if err := sleepUntil(ctx, base.Add(-opts.CycleLen/2)); err != nil {
		return nil, err
	}
	result.PerCycle = append(result.PerCycle, d.sample(0))
	for cycle := 1; cycle <= sc.Cycles; cycle++ {
		edge := base.Add(time.Duration(cycle-1) * opts.CycleLen)
		if err := sleepUntil(ctx, edge); err != nil {
			return nil, err
		}
		d.cycleNow.Store(int64(cycle))
		d.mu.Lock()
		err := d.applyEvents(cycle)
		d.mu.Unlock()
		if err != nil {
			return nil, err
		}
		// Sample halfway into the cycle: node epochs flip at the cycle
		// edges (staggered by their random phases), and sampling during
		// the flip would mix estimates from two epochs.
		if err := sleepUntil(ctx, edge.Add(opts.CycleLen/2)); err != nil {
			return nil, err
		}
		result.PerCycle = append(result.PerCycle, d.sample(cycle))
	}
	return result, nil
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

// liveDriver owns the fleet and the mutable script state.
type liveDriver struct {
	sc     Scenario
	prog   *ValueProgram
	roster *fleetRoster
	nodes  []*agent.Node
	rng    *stats.RNG
	net    *transport.MemNetwork
	opts   LiveOptions
	sched  core.Schedule
	ctx    context.Context

	// cycleNow is the driver's cycle clock; node Value suppliers read it
	// so epoch restarts sample the scripted signal at the current cycle.
	cycleNow atomic.Int64

	// mu guards roster, nodes and retired against the telemetry scrape
	// goroutine: the driver mutates them while applying events and
	// sampling, fleetMetrics reads them from HTTP handlers.
	mu sync.Mutex

	part partitionState

	// retired preserves the counters of stopped nodes so the fleet
	// aggregates (and the per-cycle message metric) stay monotonic.
	retired      agent.Metrics
	prevMessages int64

	// rtt is the process-wide exchange round-trip histogram every node
	// feeds; sobs publishes the per-cycle gauges. Both nil without Obs.
	rtt  *obs.Histogram
	sobs *scenarioObs

	// adv is the run's Byzantine plan (nil for honest scenarios) — the
	// same seed-derived schedule the simulator executors materialize, so
	// the executors attack identical slots. advStale carries the
	// replay-stale attackers' lagged snapshots from the per-node output
	// subscriptions to the wire hooks; combiner is the defense's merge
	// policy handed to every node.
	adv      *advSchedule
	advStale []liveStaleState
	combiner core.Combiner

	// Epoch-scoped join-cap bookkeeping (the sybil-flood defense).
	// Honest script joins and sybil joins consume the same budget.
	joinEpoch      int
	joinsThisEpoch int
	joinsRefused   atomic.Int64

	stopping sync.WaitGroup
}

// fleetMetrics sums the live nodes' counters plus the retired totals —
// the scrape-time aggregation hook bound by RegisterMetrics.
func (d *liveDriver) fleetMetrics() agent.Metrics {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := d.retired
	for _, slot := range d.roster.liveSlots() {
		total.Accumulate(d.nodes[slot].Metrics())
	}
	return total
}

// newNode builds (but does not start) the agent for a slot. Slot-based
// adversary wiring happens here so a Byzantine slot that churns stays
// Byzantine, mirroring the simulator's slot-indexed schedule.
func (d *liveDriver) newNode(slot int, ep transport.Endpoint, seeds, bootstrap []string) (*agent.Node, error) {
	var hook func(uint64, float64) (float64, uint64, bool)
	if d.adv != nil {
		hook = d.adv.wireHook(slot, &d.advStale[slot], &d.cycleNow)
	}
	node, err := agent.New(agent.Config{
		Endpoint:     ep,
		Schedule:     d.sched,
		Function:     core.Average,
		Value:        liveValueSupplier(d.adv, d.prog, slot, &d.cycleNow),
		CacheSize:    d.opts.CacheSize,
		Seeds:        seeds,
		Bootstrap:    bootstrap,
		Seed:         d.sc.Seed + uint64(slot)*0x9e3779b97f4a7c15 + 1,
		Logger:       d.opts.Logger,
		RTT:          d.rtt,
		Trace:        d.opts.Trace,
		MaxViewBytes: d.sc.ViewCapBytes,
		Adversary:    hook,
		Combiner:     d.combiner,
		CombinerK:    d.sc.Defense.Samples,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: building node %d: %w", d.sc.Name, slot, err)
	}
	if d.adv != nil {
		if lag := d.adv.replayLag(slot); lag > 0 {
			replayWatch(node, &d.advStale[slot], lag, &d.stopping)
		}
	}
	return node, nil
}

// admitJoin applies the defense's epoch-scoped join cap. The cap cannot
// tell an honest joiner from an attacker: both draw from one budget.
func (d *liveDriver) admitJoin() bool {
	if cap := d.sc.Defense.JoinCap; cap > 0 && d.joinsThisEpoch >= cap {
		d.joinsRefused.Add(1)
		return false
	}
	d.joinsThisEpoch++
	return true
}

// sybilJoins lands the active sybil-flood attackers' joiners for the
// cycle. Each lands as a real joining node whose value supplier reports
// the configured sybil value; marking the slot before the node starts
// makes the supplier see it from the first restart.
func (d *liveDriver) sybilJoins(cycle int) error {
	if d.adv == nil {
		return nil
	}
	for ai, a := range d.sc.Adversaries {
		if a.Behavior != BehaviorSybilFlood || !a.activeAt(cycle, d.sc.Cycles) {
			continue
		}
		for k := 0; k < a.Rate; k++ {
			if !d.admitJoin() {
				continue
			}
			slot, ok := d.roster.takeJoinSlot()
			if !ok {
				return nil
			}
			d.adv.markSybil(slot, ai)
			if err := d.startJoiner(slot); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyEvents runs the script for one wall-clock cycle.
func (d *liveDriver) applyEvents(cycle int) error {
	if epoch := (cycle - 1) / d.sc.EpochLen; epoch != d.joinEpoch {
		d.joinEpoch, d.joinsThisEpoch = epoch, 0
	}
	if d.part.expired(cycle) {
		d.heal()
	}
	d.net.SetLoss(d.sc.effectiveLoss(cycle))
	d.applyDelay(cycle)
	for _, ev := range d.sc.Events {
		if !ev.activeAt(cycle, d.sc.Cycles) {
			continue
		}
		switch ev.Kind {
		case KindCrash:
			count := ev.resolveCount(d.roster.aliveCount())
			for k := 0; k < count && d.roster.aliveCount() > 1; k++ {
				d.crash(d.roster.randomAlive(d.rng))
			}
		case KindChurn:
			count := ev.resolveCount(d.roster.aliveCount())
			for k := 0; k < count && d.roster.aliveCount() > 1; k++ {
				slot := d.roster.randomAlive(d.rng)
				d.crash(slot)
				if err := d.startJoiner(slot); err != nil {
					return err
				}
				d.roster.popCrashed() // slot reused, not available for restarts
			}
		case KindJoin:
			count := ev.resolveCount(d.sc.N)
			for k := 0; k < count; k++ {
				if !d.admitJoin() {
					continue
				}
				slot, ok := d.roster.takeJoinSlot()
				if !ok {
					break
				}
				if err := d.startJoiner(slot); err != nil {
					return err
				}
			}
		case KindRestart:
			count := ev.resolveCount(d.roster.aliveCount())
			for k := 0; k < count; k++ {
				slot, ok := d.roster.popCrashed()
				if !ok {
					break
				}
				if err := d.startJoiner(slot); err != nil {
					return err
				}
			}
		case KindPartition:
			// Fire once at At (see the sim executor): re-splitting every
			// cycle of the [At, Until] window would re-randomize the
			// components.
			if cycle == ev.At {
				d.partition(ev)
			}
		case KindHeal:
			d.heal()
		}
	}
	return d.sybilJoins(cycle)
}

// crash stops a node ungracefully (its endpoint vanishes; peers time
// out). The stop completes in the background so one tick can crash many
// nodes without stalling the clock.
func (d *liveDriver) crash(slot int) {
	if !d.roster.alive[slot] {
		return
	}
	d.roster.markCrashed(slot)
	d.retired.Accumulate(d.nodes[slot].Metrics())
	node := d.nodes[slot]
	d.stopping.Add(1)
	go func() {
		defer d.stopping.Done()
		_ = node.Stop()
	}()
}

// startJoiner brings a slot up as a brand-new identity performing the
// §4.2 join: it seeds from live contacts and participates from the next
// epoch on.
func (d *liveDriver) startJoiner(slot int) error {
	ep := d.net.Endpoint()
	seeds := d.roster.seedAddrs(d.rng, 3)
	node, err := d.newNode(slot, ep, seeds, nil)
	if err != nil {
		return err
	}
	if err := node.Start(d.ctx); err != nil {
		return fmt.Errorf("scenario %s: starting joiner %d: %w", d.sc.Name, slot, err)
	}
	d.nodes[slot] = node
	d.roster.addr[slot] = ep.Addr()
	d.roster.alive[slot] = true
	if d.part.on {
		d.net.AssignGroup(ep.Addr(), d.part.groupOf[slot])
	}
	return nil
}

// applyDelay raises transport latency while a delay burst is active.
func (d *liveDriver) applyDelay(cycle int) {
	var min, max time.Duration
	for _, ev := range d.sc.Events {
		if ev.Kind != KindDelay {
			continue
		}
		if from, to := ev.window(d.sc.Cycles); cycle >= from && cycle <= to {
			min = time.Duration(ev.MinDelayMs) * time.Millisecond
			max = time.Duration(ev.MaxDelayMs) * time.Millisecond
		}
	}
	d.net.SetLatency(min, max)
}

// partition splits the fleet at the transport layer: every slot gets a
// component, live addresses are registered, and cross-component
// datagrams drop until the heal.
func (d *liveDriver) partition(ev Event) {
	d.part.activate(partitionComponents(d.rng, len(d.roster.alive), ev.Groups), ev.Until)
	groups := make(map[string]int, len(d.roster.alive))
	for _, slot := range d.roster.liveSlots() {
		groups[d.roster.addr[slot]] = d.part.groupOf[slot]
	}
	d.net.PartitionGroups(groups)
}

// heal removes the partition and performs the rendezvous refresh (see
// bridgeContacts): a few bridge nodes per component learn contacts from
// the other components out-of-band, and gossip remerges the overlay.
func (d *liveDriver) heal() {
	wasOn := d.part.clear()
	d.net.HealGroups()
	if !wasOn {
		return
	}
	for _, bc := range bridgeContacts(d.rng, d.roster, d.part.groupOf) {
		d.nodes[bc.slot].AddContacts(bc.addrs)
	}
}

// sample builds one cycle's metrics row from the fleet.
func (d *liveDriver) sample(cycle int) CycleMetrics {
	d.mu.Lock()
	var est, truth stats.Moments
	alive, participating := 0, 0
	totals := d.retired
	// Under an adversary the estimate and truth moments cover the honest
	// population only (matching the simulator executors): the attack's
	// impact is what leaks into honest estimates, and the value signal
	// attacker-controlled slots would contribute is fake. Alive and
	// participating still count everyone — hostile nodes are real nodes.
	for _, slot := range d.roster.liveSlots() {
		node := d.nodes[slot]
		alive++
		totals.Accumulate(node.Metrics())
		hostile := d.adv != nil && d.adv.hostile(slot)
		if !hostile {
			truth.Add(d.prog.Value(slot, cycle))
		}
		if !node.Participating() {
			continue
		}
		participating++
		if hostile {
			continue
		}
		if v, ok := node.Estimate(); ok {
			est.Add(v)
		}
	}
	d.mu.Unlock()
	messages := totals.ExchangesInitiated
	delta := messages - d.prevMessages
	d.prevMessages = messages
	epoch := 0
	if cycle > 0 {
		epoch = (cycle - 1) / d.sc.EpochLen
	}
	row := CycleMetrics{
		Cycle:          cycle,
		Epoch:          epoch,
		Alive:          alive,
		Participating:  participating,
		TrueMean:       truth.Mean(),
		MeanEstimate:   est.Mean(),
		EstimateStdDev: est.StdDev(),
		RelError:       relError(est.Mean(), truth.Mean()),
		Messages:       delta,
	}
	d.sobs.observe(row, protoTotals{
		Initiated: totals.ExchangesInitiated,
		Completed: totals.ExchangesCompleted,
		Timeouts:  totals.Timeouts,
		Declined:  totals.PeerDeclined,
	})
	return row
}

// stopAll terminates every live node and waits for background stops.
// The final counters are folded into retired first, so a scrape after
// the run still reports the complete fleet totals.
func (d *liveDriver) stopAll() {
	d.mu.Lock()
	var stopping []*agent.Node
	for _, slot := range d.roster.liveSlots() {
		d.roster.alive[slot] = false
		d.retired.Accumulate(d.nodes[slot].Metrics())
		stopping = append(stopping, d.nodes[slot])
	}
	d.mu.Unlock()
	for _, node := range stopping {
		_ = node.Stop()
	}
	d.stopping.Wait()
}
