package scenario

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sync"
	"time"

	"antientropy/internal/agent"
	"antientropy/internal/obs"
	"antientropy/internal/stats"
)

// UDPOptions tune the multi-process UDP executor.
type UDPOptions struct {
	// Workers is the number of worker processes the fleet is sliced
	// across (default 3, capped at the scenario's initial size). Slot i
	// lives in worker i mod Workers for the whole run.
	Workers int
	// CycleLen is δ, the wall-clock length of one protocol cycle. The
	// default scales with the fleet size and the machine's cores like the
	// live executor's, with a higher floor: real sockets add syscall and
	// cross-process scheduling cost per exchange.
	CycleLen time.Duration
	// CacheSize is the NEWSCAST cache capacity (default 30).
	CacheSize int
	// QueueLen sizes each endpoint's inbound buffer (default 1024).
	QueueLen int
	// WorkerCmd is the argv that launches one worker process speaking the
	// control protocol on stdin/stdout (a program calling RunUDPWorker).
	// Default: the current executable with a single -worker argument —
	// what cmd/aggscen implements.
	WorkerCmd []string
	// WorkerEnv appends to the inherited environment of every worker.
	WorkerEnv []string
	// ControlTimeout bounds every wait for a worker reply (default 60s).
	ControlTimeout time.Duration
	// Logger receives supervisor progress and worker-drop accounting
	// (default: discard).
	Logger *slog.Logger
	// Obs, when set, exposes the whole fleet on the supervisor's metrics
	// registry: workers forward their cumulative protocol counters and
	// RTT histogram snapshots over the control channel at every sample,
	// and the supervisor exports the merged totals alongside the
	// per-cycle scenario gauges and the convergence watch — one
	// aggregated /metrics endpoint for a multi-process run.
	Obs *obs.Registry
	// TraceCap > 0 makes every worker keep an exchange trace ring of
	// that capacity, drained incrementally over the control channel at
	// every sample. Defaults to Trace's capacity hint (1024) when only
	// Trace is set.
	TraceCap int
	// Trace, when set, receives the merged exchange-trace events of
	// every worker: events sharing an exchange identifier stitch into
	// cross-process causal spans (see obs.StitchSpans), the supervisor's
	// fleet-wide /debug/trace view of a multi-process run.
	Trace *obs.TraceRing
	// Timeline, when set, receives one flight-recorder snapshot per
	// sampled cycle (see obs.Timeline). Health rules are evaluated
	// whenever Obs or Timeline is set, logging alert transitions to
	// Logger.
	Timeline *obs.Timeline
}

func (o UDPOptions) withDefaults(fleet int) (UDPOptions, error) {
	if o.Workers <= 0 {
		o.Workers = 3
	}
	if o.CycleLen <= 0 {
		// Budget ~250µs of single-core compute per node per cycle (the
		// live executor's 150µs plus UDP syscalls and cross-process
		// wakeups), spread across the cores, with a 25ms floor for timer
		// accuracy across process boundaries.
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
	if o.ControlTimeout <= 0 {
		o.ControlTimeout = 60 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.Trace != nil && o.TraceCap <= 0 {
		o.TraceCap = 1024
	}
	if len(o.WorkerCmd) == 0 {
		self, err := os.Executable()
		if err != nil {
			return o, fmt.Errorf("scenario: resolving worker executable: %w", err)
		}
		o.WorkerCmd = []string{self, "-worker"}
	}
	return o, nil
}

// RunUDP executes the scenario against a fleet of real agent nodes over
// UDP loopback sockets, sliced across worker processes: the paper's
// runtime on a real network stack, with kernel scheduling, packet
// reordering and socket-buffer pressure in the loop. The supervisor forks
// Workers processes (see UDPOptions.WorkerCmd), coordinates cycle
// barriers and scripted events over stdin/stdout JSON, and injects
// partitions and loss through each worker's UDPFilter — the userspace
// stand-in for the iptables rules a privileged supervisor would install.
// The run is wall-clock driven and therefore not bit-for-bit
// deterministic, but it chases the identical scripted value signal, so
// its metric stream is directly comparable to the other executors'.
func RunUDP(ctx context.Context, sc Scenario, opts UDPOptions) (*RunResult, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	opts, err := opts.withDefaults(sc.MaxSlots())
	if err != nil {
		return nil, err
	}
	if opts.Workers > sc.N {
		opts.Workers = sc.N
	}
	d := newSupervisor(ctx, sc, opts, "udp")
	defer d.teardown()
	for i := 0; i < opts.Workers; i++ {
		p, err := spawnWorkerProc(ctx, opts)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: worker %d: %w", sc.Name, i, err)
		}
		// Append only fully wired handles: teardown walks d.workers on
		// every exit path, including a failure earlier in this loop.
		d.workers = append(d.workers, p)
	}
	return d.run()
}

// workerHandle is the supervisor's end of one worker's conversation:
// strictly one reply per command.
type workerHandle interface {
	// send delivers a command.
	send(m udpMsg) error
	// recv returns the reply to the last command, waiting at most timeout.
	recv(ctx context.Context, timeout time.Duration) (udpMsg, error)
	// release lets go of the worker: after its bye (graceful) it waits for
	// the worker to wind down and reports how that went; otherwise it
	// stops the worker by force.
	release(graceful bool) error
}

// workerProc is a worker in a forked process, spoken to as JSON lines
// over its stdin/stdout.
type workerProc struct {
	cmd   *exec.Cmd
	conn  *udpConn
	stdin io.WriteCloser

	// inbox carries decoded replies; the pump goroutine closes it at EOF
	// or error (readErr is set first).
	inbox   chan udpMsg
	readErr error
}

// spawnWorkerProc forks one worker process and wires its pipes.
func spawnWorkerProc(ctx context.Context, opts UDPOptions) (*workerProc, error) {
	cmd := exec.CommandContext(ctx, opts.WorkerCmd[0], opts.WorkerCmd[1:]...)
	cmd.Env = append(os.Environ(), opts.WorkerEnv...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %q: %w", opts.WorkerCmd[0], err)
	}
	p := &workerProc{
		cmd:   cmd,
		conn:  newUDPConn(stdout, stdin),
		stdin: stdin,
		inbox: make(chan udpMsg, 16),
	}
	go func() {
		for {
			m, err := p.conn.recv()
			if err != nil {
				if err != io.EOF {
					p.readErr = err
				}
				close(p.inbox)
				return
			}
			p.inbox <- m
		}
	}()
	return p, nil
}

func (p *workerProc) send(m udpMsg) error { return p.conn.send(m) }

func (p *workerProc) recv(ctx context.Context, timeout time.Duration) (udpMsg, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return udpMsg{}, ctx.Err()
	case <-timer.C:
		return udpMsg{}, fmt.Errorf("no reply within %v", timeout)
	case m, ok := <-p.inbox:
		if !ok {
			if p.readErr != nil {
				return udpMsg{}, p.readErr
			}
			return udpMsg{}, fmt.Errorf("exited mid-run")
		}
		return m, nil
	}
}

func (p *workerProc) release(graceful bool) error {
	_ = p.stdin.Close()
	if !graceful && p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
	// Drain the pump goroutine so it can exit, then reap the process.
	for range p.inbox {
	}
	if err := p.cmd.Wait(); err != nil && graceful {
		return fmt.Errorf("exit: %w", err)
	}
	return nil
}

// localWorker is a worker in this process: a command is a direct call,
// with no encoding and no goroutine in between.
type localWorker struct {
	w     *udpWorker
	reply udpMsg
}

func (l *localWorker) send(m udpMsg) error {
	reply, err := l.w.handle(m)
	if err != nil {
		reply = udpMsg{Op: udpOpFatal, Err: err.Error()}
	}
	l.reply = reply
	return nil
}

func (l *localWorker) recv(context.Context, time.Duration) (udpMsg, error) { return l.reply, nil }

func (l *localWorker) release(bool) error {
	l.w.stopAll()
	return nil
}

// supervisor hosts a scenario fleet of real agent nodes: it owns the
// script interpreter and the roster, is the fleet the script acts on —
// each action becomes part of the cycle's command batch — and runs the
// one wall-clock loop both fleet executors share. The nodes themselves
// live in its workers.
type supervisor struct {
	sc       Scenario
	executor string
	opts     UDPOptions
	ctx      context.Context
	roster   *fleetRoster
	script   *script
	log      *runLog

	workers []workerHandle
	// canDelay tells whether the workers' network can inject latency.
	canDelay bool

	// msgs is the command batch of the cycle being scripted, one message
	// per worker.
	msgs []udpMsg
	// pendingJoin tracks joins commanded this cycle whose addresses are
	// still unknown (the worker acks them at the barrier); a crash of
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

// fleetTelemetry is the workers' merged telemetry at one sample barrier.
type fleetTelemetry struct {
	totals      agent.Metrics
	rtt         obs.HistSnapshot
	queueDrops  int64
	filterDrops int64
	queueDepth  int64
	batch       obs.HistSnapshot
}

func newSupervisor(ctx context.Context, sc Scenario, opts UDPOptions, executor string) *supervisor {
	slots := sc.MaxSlots()
	adv := newAdvSchedule(sc, slots)
	sobs := newScenarioObs(opts.Obs, opts.Timeline, opts.Logger)
	d := &supervisor{
		sc:       sc,
		executor: executor,
		opts:     opts,
		ctx:      ctx,
		roster:   newFleetRoster(slots),
		// The workers rebuild the identical static Byzantine schedule from
		// the scenario in their init message; sybil slot assignment happens
		// in the script and rides the join commands.
		script: newScript(sc, slots, stats.NewRNG(sc.Seed^0x666c6565742d72), adv, opts.Logger), // "fleet-r"
		log:    newRunLog(sc, executor, NewValueProgram(sc, slots), adv, sobs),
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
// winds it down.
func (d *supervisor) run() (*RunResult, error) {
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
	if err := d.sample(0); err != nil {
		return nil, err
	}
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
		if err := d.sample(cycle); err != nil {
			return nil, err
		}
	}
	workers := len(d.workers)
	if err := d.shutdownWorkers(); err != nil {
		return nil, err
	}
	tel := d.telemetry()
	d.opts.Logger.Info(d.executor+" executor finished",
		"scenario", d.sc.Name, "workers", workers,
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

// broadcast sends per-worker messages and gathers one reply of the
// wanted op from each, returning the replies indexed by worker.
func (d *supervisor) broadcast(msgs []udpMsg, want string) ([]udpMsg, error) {
	for i, w := range d.workers {
		if err := w.send(msgs[i]); err != nil {
			return nil, fmt.Errorf("scenario %s: worker %d: %w", d.sc.Name, i, err)
		}
	}
	replies := make([]udpMsg, len(d.workers))
	for i, w := range d.workers {
		m, err := w.recv(d.ctx, d.opts.ControlTimeout)
		switch {
		case err != nil:
			return nil, fmt.Errorf("scenario %s: worker %d: awaiting %s: %w", d.sc.Name, i, want, err)
		case m.Op == udpOpFatal:
			return nil, fmt.Errorf("scenario %s: worker %d failed: %s", d.sc.Name, i, m.Err)
		case m.Op != want:
			return nil, fmt.Errorf("scenario %s: worker %d replied %q, want %q", d.sc.Name, i, m.Op, want)
		}
		replies[i] = m
	}
	return replies, nil
}

// batch makes one message per worker from a template.
func (d *supervisor) batch(m udpMsg) []udpMsg {
	msgs := make([]udpMsg, len(d.workers))
	for i := range msgs {
		msgs[i] = m
	}
	return msgs
}

// initWorkers distributes the founding slot assignment and collects the
// bound addresses.
func (d *supervisor) initWorkers() error {
	msgs := d.batch(udpMsg{
		Op:         udpOpInit,
		Scenario:   &d.sc,
		CacheSize:  d.opts.CacheSize,
		CycleLenUS: d.opts.CycleLen.Microseconds(),
		QueueLen:   d.opts.QueueLen,
		TraceCap:   d.opts.TraceCap,
	})
	for i := range msgs {
		msgs[i].Worker = i
		for slot := i; slot < d.sc.N; slot += len(msgs) {
			msgs[i].Slots = append(msgs[i].Slots, slot)
		}
	}
	replies, err := d.broadcast(msgs, udpOpReady)
	if err != nil {
		return err
	}
	for i, m := range replies {
		if err := d.learnAddrs(i, m.Addrs, d.sc.N); err != nil {
			return err
		}
	}
	for slot := 0; slot < d.sc.N; slot++ {
		if !d.roster.alive[slot] {
			return fmt.Errorf("scenario %s: slot %d has no endpoint after init", d.sc.Name, slot)
		}
	}
	return nil
}

// learnAddrs folds the slot → address map of a ready or ack reply into
// the roster, refusing slots the worker does not own.
func (d *supervisor) learnAddrs(worker int, addrs map[int]string, limit int) error {
	for slot, addr := range addrs {
		if slot < 0 || slot >= limit || d.owner(slot) != worker {
			return fmt.Errorf("scenario %s: worker %d reported foreign slot %d", d.sc.Name, worker, slot)
		}
		d.roster.addr[slot] = addr
		d.roster.alive[slot] = true
		if d.script.part.on {
			if d.pendingAssign == nil {
				d.pendingAssign = make(map[string]int)
			}
			d.pendingAssign[addr] = d.script.part.groupOf[slot]
		}
	}
	return nil
}

// startFleet anchors the shared schedule and starts every founding node.
func (d *supervisor) startFleet() (time.Time, error) {
	anchor := time.Now()
	msgs := d.batch(udpMsg{
		Op:             udpOpStart,
		AnchorUnixNano: anchor.UnixNano(),
		Bootstrap:      slices.Clone(d.roster.addr[:d.sc.N]),
	})
	if _, err := d.broadcast(msgs, udpOpStarted); err != nil {
		return time.Time{}, err
	}
	return anchor, nil
}

// runCycle scripts this cycle's command batch, runs the barrier, and
// folds reported joiner addresses back into the roster.
func (d *supervisor) runCycle(cycle int) error {
	acks, err := d.broadcast(d.plan(cycle, d), udpOpAck)
	if err != nil {
		return err
	}
	for i, ack := range acks {
		if ack.Cycle != cycle {
			return fmt.Errorf("scenario %s: worker %d acked cycle %d, want %d",
				d.sc.Name, i, ack.Cycle, cycle)
		}
		if err := d.learnAddrs(i, ack.Addrs, len(d.roster.alive)); err != nil {
			return err
		}
	}
	return nil
}

// plan lets the script act for one cycle on f — the supervisor itself,
// or a test's recorder in front of it — and returns the resulting command
// batch.
func (d *supervisor) plan(cycle int, f fleet) []udpMsg {
	d.msgs = d.batch(udpMsg{Op: udpOpCycle, Cycle: cycle, Assign: d.pendingAssign})
	d.pendingAssign = nil
	d.pendingJoin = nil
	d.script.step(cycle, f)
	return d.msgs
}

func (d *supervisor) aliveCount() int { return d.roster.aliveCount() }
func (d *supervisor) pickAlive() int  { return d.roster.randomAlive(d.script.rng) }

func (d *supervisor) setLoss(p float64) {
	for i := range d.msgs {
		d.msgs[i].Loss = p
	}
}

func (d *supervisor) setDelay(min, max time.Duration) bool {
	if !d.canDelay {
		return false
	}
	for i := range d.msgs {
		d.msgs[i].DelayMinMs = int(min / time.Millisecond)
		d.msgs[i].DelayMaxMs = int(max / time.Millisecond)
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
		joins := d.msgs[w].Joins
		for i := range joins {
			if joins[i].Slot == slot {
				d.msgs[w].Joins = append(joins[:i], joins[i+1:]...)
				break
			}
		}
		return
	}
	d.msgs[w].Crash = append(d.msgs[w].Crash, slot)
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
	d.msgs[w].Joins = append(d.msgs[w].Joins, udpJoin{
		Slot: slot, Seeds: d.roster.seedAddrs(d.script.rng, 3), Group: group, Sybil: sybil + 1,
	})
	if d.pendingJoin == nil {
		d.pendingJoin = make(map[int]bool)
	}
	d.pendingJoin[slot] = true
	d.roster.alive[slot] = true
	// The joiner's address is known only after the worker acks; blank it
	// so seed sampling cannot hand out the stale address meanwhile.
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
	for i := range d.msgs {
		d.msgs[i].Groups = groups
	}
}

// heal clears the partition on every worker — joins commanded earlier in
// the cycle land in no component after all — and routes the rendezvous
// refresh (see bridgeContacts) to the bridge slots' owners.
func (d *supervisor) heal(groupOf []int, wasActive bool) {
	for i := range d.msgs {
		d.msgs[i].Heal = true
		d.msgs[i].Groups = nil
		for j := range d.msgs[i].Joins {
			d.msgs[i].Joins[j].Group = -1
		}
	}
	if !wasActive {
		return
	}
	for _, bc := range bridgeContacts(d.script.rng, d.roster, groupOf) {
		w := d.owner(bc.slot)
		d.msgs[w].Contacts = append(d.msgs[w].Contacts, udpContacts{Slot: bc.slot, Addrs: bc.addrs})
	}
}

// sample gathers the workers' partial aggregates into one metrics row.
func (d *supervisor) sample(cycle int) error {
	replies, err := d.broadcast(d.batch(udpMsg{Op: udpOpSample, Cycle: cycle}), udpOpMetrics)
	if err != nil {
		return err
	}
	d.mergeTraces(replies)
	var alive, participating int
	var est stats.Moments
	var tel fleetTelemetry
	for _, m := range replies {
		alive += m.Alive
		participating += m.Participating
		est.Merge(m.Est)
		tel.queueDrops += m.QueueDrops
		tel.filterDrops += m.FilterDrops
		tel.queueDepth = max(tel.queueDepth, m.TransportQueueDepth)
		if m.AgentTotals != nil {
			tel.totals.Accumulate(*m.AgentTotals)
		}
		tel.rtt = mergeHist(tel.rtt, m.RTTHist)
		tel.batch = mergeHist(tel.batch, m.BatchHist)
	}
	d.telMu.Lock()
	d.tel = tel
	d.telMu.Unlock()
	if alive != d.roster.aliveCount() {
		d.opts.Logger.Warn(d.executor+" executor: worker fleet drifted from script state",
			"cycle", cycle, "workersAlive", alive, "scriptAlive", d.roster.aliveCount())
	}
	d.log.record(cycle, alive, participating, est,
		func(slot int) bool { return d.roster.alive[slot] },
		protoTotals{
			Initiated: tel.totals.ExchangesInitiated,
			Completed: tel.totals.ExchangesCompleted,
			Timeouts:  tel.totals.Timeouts,
			Declined:  tel.totals.PeerDeclined,
			Drops:     tel.queueDrops + tel.filterDrops,
		})
	return nil
}

// mergeHist folds one worker's histogram snapshot (nil: none) into acc.
func mergeHist(acc obs.HistSnapshot, h *obs.HistSnapshot) obs.HistSnapshot {
	switch {
	case h == nil:
		return acc
	case acc.Counts == nil:
		return *h
	}
	return acc.Merge(*h)
}

// mergeTraces folds the workers' exchange-trace increments into the
// supervisor's fleet-wide ring. Events keep their worker-side
// timestamps — all workers run on this machine's clock — so the merged
// ring stitches cross-process spans exactly like a single-process one.
func (d *supervisor) mergeTraces(replies []udpMsg) {
	if d.opts.Trace == nil {
		return
	}
	for _, m := range replies {
		for _, ev := range m.Trace {
			d.opts.Trace.Record(ev)
		}
	}
}

// shutdownWorkers winds the fleet down cleanly: shutdown/bye handshake,
// then worker exit.
func (d *supervisor) shutdownWorkers() error {
	replies, err := d.broadcast(d.batch(udpMsg{Op: udpOpShutdown}), udpOpBye)
	if err != nil {
		return err
	}
	d.mergeTraces(replies)
	var firstErr error
	for i, w := range d.workers {
		if err := w.release(true); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("scenario %s: worker %d %w", d.sc.Name, i, err)
		}
	}
	d.workers = nil
	return firstErr
}

// teardown stops by force any workers still held (error paths; the happy
// path already released them in shutdownWorkers).
func (d *supervisor) teardown() {
	for _, w := range d.workers {
		_ = w.release(false)
	}
	d.workers = nil
}
