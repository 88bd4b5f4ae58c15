package scenario

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"antientropy/internal/agent"
	"antientropy/internal/core"
	"antientropy/internal/obs"
	"antientropy/internal/transport"
)

// A worker hosts one slice of a scenario fleet: real agent nodes on real
// endpoints, built, crashed, joined, sampled and stopped by the commands
// of a supervisor (see udp_proto.go). The same worker serves both fleet
// executors; what differs is where it lives and what network its
// endpoints attach to — a forked process on a shared UDP mux for udp, a
// value in the supervisor's process on an in-memory network for live.

// RunUDPWorker is the worker half of the UDP multi-process executor: it
// runs one fleet slice of live agent nodes on real UDP endpoints, driven
// by a supervisor (RunUDP) over the line-delimited JSON control channel
// on in/out (normally the process's stdin/stdout). It returns when the
// supervisor sends shutdown or closes the channel; a non-nil error means
// the worker died mid-run (after reporting a fatal message upstream).
//
// cmd/aggscen exposes it as the hidden -worker mode; embedders whose
// binary cannot be re-executed with that flag point UDPOptions.WorkerCmd
// at any program that calls this function.
func RunUDPWorker(in io.Reader, out io.Writer) error {
	w := newUDPWorker(newSocketNet)
	conn := newUDPConn(in, out)
	defer w.stopAll()
	for {
		msg, err := conn.recv()
		if err != nil {
			if err == io.EOF {
				// Supervisor went away: wind the fleet slice down quietly.
				return nil
			}
			return err
		}
		reply, err := w.handle(msg)
		if err != nil {
			_ = conn.send(udpMsg{Op: udpOpFatal, Err: err.Error()})
			return err
		}
		if err := conn.send(reply); err != nil {
			return err
		}
		if reply.Op == udpOpBye {
			return nil
		}
	}
}

// nodeEndpoint is the transport attachment a worker slot runs on.
type nodeEndpoint interface {
	transport.Endpoint
	QueueDrops() int64
	FilterDrops() int64
}

// fleetNet is the network a worker's endpoints attach to. The scripted
// drop rules live in the worker's filter, which the network applies;
// transport.MemNetwork and transport.UDPMux already offer the telemetry
// under the same names, and the adapters below add what differs.
type fleetNet interface {
	QueueDepthHighWatermark() int64
	BatchSizes() obs.HistSnapshot

	endpoint() (nodeEndpoint, error)
	// setLatency sets the one-way delivery delay bounds where the network
	// can inject one; the supervisor knows which fleets can.
	setLatency(min, max time.Duration)
	close()
}

// socketNet is a worker process's network: one shared batched UDP mux on
// loopback, every endpoint behind the worker's filter — the userspace
// stand-in for the iptables rules a privileged supervisor would install.
// It cannot delay a datagram.
type socketNet struct{ *transport.UDPMux }

func newSocketNet(_ Scenario, queueLen int, filter *transport.UDPFilter) (fleetNet, error) {
	mux, err := transport.NewUDPMux(transport.UDPMuxConfig{QueueLen: queueLen})
	if err != nil {
		return nil, err
	}
	mux.SetFilter(filter)
	return socketNet{mux}, nil
}

func (n socketNet) endpoint() (nodeEndpoint, error) {
	ep, err := n.UDPMux.Endpoint()
	if err != nil {
		return nil, err
	}
	return ep, nil
}
func (n socketNet) setLatency(_, _ time.Duration) {}
func (n socketNet) close()                        { _ = n.UDPMux.Close() }

// memNet is the in-process worker's network: the in-memory transport,
// which delays datagrams itself and loses them through the worker's
// filter.
type memNet struct{ *transport.MemNetwork }

func newMemNet(sc Scenario, queueLen int, filter *transport.UDPFilter) (fleetNet, error) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{
		Seed: int64(sc.Seed) + 1, QueueLen: queueLen,
	})
	net.SetFilter(filter)
	return memNet{net}, nil
}

func (n memNet) endpoint() (nodeEndpoint, error)   { return memEndpoint{n.MemNetwork.Endpoint()}, nil }
func (n memNet) setLatency(min, max time.Duration) { n.SetLatency(min, max) }
func (n memNet) close()                            { n.Close() }

// memEndpoint reports an in-memory endpoint's inbound-buffer drops in the
// shape the UDP endpoints do.
type memEndpoint struct{ *transport.MemEndpoint }

func (e memEndpoint) QueueDrops() int64 { return int64(e.Dropped()) }

// udpWorkerSlot is one live node of this worker's fleet slice.
type udpWorkerSlot struct {
	node *agent.Node
	ep   nodeEndpoint
}

// udpWorker executes control messages against its slice of the fleet.
type udpWorker struct {
	sc        Scenario
	prog      *ValueProgram
	index     int
	cacheSize int
	cycleLen  time.Duration
	sched     core.Schedule

	// newNet builds net, the slice's network, once the init message has
	// named the scenario; the network applies filter, which carries the
	// scripted partitions and loss. logger receives the nodes' debug
	// events.
	newNet func(sc Scenario, queueLen int, filter *transport.UDPFilter) (fleetNet, error)
	net    fleetNet
	filter *transport.UDPFilter
	logger *slog.Logger

	// cycleNow is the supervisor's cycle clock, advanced by every cycle
	// message; node Value suppliers read it so epoch restarts sample the
	// scripted signal at the current cycle.
	cycleNow atomic.Int64

	// adv is the worker's copy of the run's Byzantine plan, rebuilt from
	// the scenario in the init message — a pure function of the seed, so
	// it matches the supervisor's and the simulator's. Sybil slot
	// assignment arrives on the join commands. advStale carries the
	// replay-stale attackers' lagged snapshots from the per-node output
	// subscriptions to the wire hooks; combiner is the defense's merge
	// policy handed to every node.
	adv      *advSchedule
	advStale []liveStaleState
	combiner core.Combiner

	// rtt is the worker-wide exchange round-trip histogram every node of
	// this slice feeds. trace is the ring the nodes record exchange events
	// into (nil: tracing off); drain is that ring when the supervisor has
	// to fetch it over the control channel — a worker process's own ring,
	// made on a TraceCap — and nil for the in-process worker, whose nodes
	// record straight into the caller's ring. traceCursor marks how far
	// the supervisor has drained (see TraceRing.EventsSince).
	rtt         *obs.Histogram
	trace       *obs.TraceRing
	drain       *obs.TraceRing
	traceCursor uint64

	nodes map[int]*udpWorkerSlot

	// retired* preserve the counters of crashed nodes so the cumulative
	// per-worker metrics stay monotonic.
	retiredAgent       agent.Metrics
	retiredQueueDrops  int64
	retiredFilterDrops int64

	ctx      context.Context
	cancel   context.CancelFunc
	stopping sync.WaitGroup
	stopped  bool
}

func newUDPWorker(newNet func(Scenario, int, *transport.UDPFilter) (fleetNet, error)) *udpWorker {
	return &udpWorker{
		newNet: newNet,
		logger: slog.New(slog.DiscardHandler),
		nodes:  make(map[int]*udpWorkerSlot),
	}
}

// handle dispatches one control message and builds the reply.
func (w *udpWorker) handle(msg udpMsg) (udpMsg, error) {
	switch msg.Op {
	case udpOpInit:
		return w.handleInit(msg)
	case udpOpStart:
		return w.handleStart(msg)
	case udpOpCycle:
		return w.handleCycle(msg)
	case udpOpSample:
		return w.handleSample(msg)
	case udpOpShutdown:
		// Stop the fleet slice first, then drain the trace tail: the
		// bye reply carries every event recorded since the last sample,
		// so the supervisor's merged ring sees the run's final cycles.
		w.stopAll()
		bye := udpMsg{Op: udpOpBye}
		bye.Trace, w.traceCursor = w.drain.EventsSince(w.traceCursor)
		return bye, nil
	default:
		return udpMsg{}, fmt.Errorf("worker: unexpected op %q", msg.Op)
	}
}

// handleInit builds the slice's network and binds one endpoint per
// assigned founding slot.
func (w *udpWorker) handleInit(msg udpMsg) (udpMsg, error) {
	if msg.Scenario == nil {
		return udpMsg{}, fmt.Errorf("worker: init without scenario")
	}
	w.sc = msg.Scenario.WithDefaults()
	if err := w.sc.Validate(); err != nil {
		return udpMsg{}, err
	}
	w.index = msg.Worker
	w.cacheSize = msg.CacheSize
	w.cycleLen = time.Duration(msg.CycleLenUS) * time.Microsecond
	if w.cycleLen <= 0 {
		return udpMsg{}, fmt.Errorf("worker: non-positive cycle length")
	}
	w.prog = NewValueProgram(w.sc, w.sc.MaxSlots())
	w.adv = newAdvSchedule(w.sc, w.sc.MaxSlots())
	if w.adv != nil {
		w.advStale = make([]liveStaleState, w.sc.MaxSlots())
	}
	if c, err := w.sc.Defense.combiner(); err == nil {
		w.combiner = c // err pre-screened by Validate
	}
	w.rtt = obs.NewHistogram(obs.RTTBuckets)
	if msg.TraceCap > 0 {
		w.drain = obs.NewTraceRing(msg.TraceCap)
		w.trace = w.drain
	}
	w.ctx, w.cancel = context.WithCancel(context.Background())

	// The baseline loss applies from the founding on, exactly as in the
	// simulator; loss bursts override it cycle by cycle.
	w.filter = transport.NewUDPFilter(int64(w.sc.Seed) + int64(w.index) + 2)
	w.filter.SetLoss(w.sc.MessageLoss)
	net, err := w.newNet(w.sc, msg.QueueLen, w.filter)
	if err != nil {
		return udpMsg{}, fmt.Errorf("worker %d: network: %w", w.index, err)
	}
	w.net = net

	addrs := make(map[int]string, len(msg.Slots))
	for _, slot := range msg.Slots {
		ep, err := w.net.endpoint()
		if err != nil {
			return udpMsg{}, fmt.Errorf("worker %d: slot %d: %w", w.index, slot, err)
		}
		w.nodes[slot] = &udpWorkerSlot{ep: ep}
		addrs[slot] = ep.Addr()
	}
	return udpMsg{Op: udpOpReady, Addrs: addrs}, nil
}

// sortedSlots returns the live slot indices in ascending order, so every
// iteration-order-dependent path (metric merge, node start) is
// deterministic and -compare runs are byte-stable.
func (w *udpWorker) sortedSlots() []int {
	slots := make([]int, 0, len(w.nodes))
	for slot := range w.nodes {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	return slots
}

// handleStart builds and starts the founding nodes on the shared
// schedule, NEWSCAST-bootstrapped from the full founding address book.
func (w *udpWorker) handleStart(msg udpMsg) (udpMsg, error) {
	w.sched = core.Schedule{
		Start:    time.Unix(0, msg.AnchorUnixNano),
		Delta:    time.Duration(w.sc.EpochLen) * w.cycleLen,
		CycleLen: w.cycleLen,
		Gamma:    w.sc.EpochLen,
	}
	slots := w.sortedSlots()
	for _, slot := range slots {
		s := w.nodes[slot]
		node, err := w.newNode(slot, s.ep, nil, bootstrapSubset(msg.Bootstrap, w.sc.Seed, slot, w.cacheSize))
		if err != nil {
			return udpMsg{}, err
		}
		s.node = node
	}
	for _, slot := range slots {
		if err := w.nodes[slot].node.Start(w.ctx); err != nil {
			return udpMsg{}, fmt.Errorf("worker %d: starting node %d: %w", w.index, slot, err)
		}
	}
	return udpMsg{Op: udpOpStarted}, nil
}

// bootstrapSubset deterministically samples one node's founding contacts
// from the fleet address list. Seeding every node with the whole fleet is
// quadratic in fleet size — each node interns every address only to keep
// cache-size descriptors — and at 10⁴ nodes that alone blows the start
// barrier. A random subset a few times the cache size produces the same
// random out-degree-c overlay the paper assumes (§4). Small fleets pass
// through unchanged, so CI-scale divergence comparisons are unaffected.
func bootstrapSubset(all []string, seed uint64, slot, cacheSize int) []string {
	want := 4 * cacheSize
	if len(all) <= want+1 {
		return all
	}
	rng := rand.New(rand.NewPCG(seed, uint64(slot)*0x9e3779b97f4a7c15+0x6c62272e07bb0142))
	out := make([]string, 0, want)
	seen := make(map[int]struct{}, want)
	for len(out) < want {
		i := rng.IntN(len(all))
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		out = append(out, all[i])
	}
	return out
}

// newNode builds (but does not start) the agent for a slot — the one
// place a scenario fleet's node is configured. Slot-based adversary wiring
// happens here, so a Byzantine slot that churns stays Byzantine,
// mirroring the simulator's slot-indexed schedule.
func (w *udpWorker) newNode(slot int, ep transport.Endpoint, seeds, bootstrap []string) (*agent.Node, error) {
	var hook func(uint64, float64) (float64, uint64, bool)
	if w.adv != nil {
		hook = w.adv.wireHook(slot, &w.advStale[slot], &w.cycleNow)
	}
	node, err := agent.New(agent.Config{
		Endpoint:     ep,
		Schedule:     w.sched,
		Function:     core.Average,
		Value:        liveValueSupplier(w.adv, w.prog, slot, &w.cycleNow),
		CacheSize:    w.cacheSize,
		Seeds:        seeds,
		Bootstrap:    bootstrap,
		Seed:         w.sc.Seed + uint64(slot)*0x9e3779b97f4a7c15 + 1,
		Logger:       w.logger,
		RTT:          w.rtt,
		Trace:        w.trace,
		MaxViewBytes: w.sc.ViewCapBytes,
		Adversary:    hook,
		Combiner:     w.combiner,
		CombinerK:    w.sc.Defense.Samples,
	})
	if err != nil {
		return nil, fmt.Errorf("worker %d: building node %d: %w", w.index, slot, err)
	}
	if w.adv != nil {
		if lag := w.adv.replayLag(slot); lag > 0 {
			replayWatch(node, &w.advStale[slot], lag, &w.stopping)
		}
	}
	return node, nil
}

// handleCycle applies one cycle's scripted interventions to this slice.
func (w *udpWorker) handleCycle(msg udpMsg) (udpMsg, error) {
	w.cycleNow.Store(int64(msg.Cycle))
	for addr, g := range msg.Assign {
		w.filter.AssignGroup(addr, g)
	}
	if msg.Heal {
		w.filter.HealGroups()
	}
	if msg.Groups != nil {
		w.filter.PartitionGroups(msg.Groups)
	}
	w.filter.SetLoss(msg.Loss)
	w.net.setLatency(time.Duration(msg.DelayMinMs)*time.Millisecond, time.Duration(msg.DelayMaxMs)*time.Millisecond)
	for _, slot := range msg.Crash {
		w.crash(slot)
	}
	var addrs map[int]string
	for _, j := range msg.Joins {
		addr, err := w.join(j)
		if err != nil {
			return udpMsg{}, err
		}
		if addrs == nil {
			addrs = make(map[int]string, len(msg.Joins))
		}
		addrs[j.Slot] = addr
	}
	for _, c := range msg.Contacts {
		if s, ok := w.nodes[c.Slot]; ok {
			s.node.AddContacts(c.Addrs)
		}
	}
	return udpMsg{Op: udpOpAck, Cycle: msg.Cycle, Addrs: addrs}, nil
}

// crash stops a node ungracefully: its endpoint closes mid-protocol and
// peers time out, exactly as a process crash looks from the network. The
// stop completes in the background so one barrier tick can crash many
// nodes without stalling the fleet clock.
func (w *udpWorker) crash(slot int) {
	s, ok := w.nodes[slot]
	if !ok {
		return
	}
	delete(w.nodes, slot)
	w.retiredAgent.Accumulate(s.node.Metrics())
	w.retiredQueueDrops += s.ep.QueueDrops()
	w.retiredFilterDrops += s.ep.FilterDrops()
	node := s.node
	w.stopping.Add(1)
	go func() {
		defer w.stopping.Done()
		_ = node.Stop()
	}()
}

// join brings a slot up as a brand-new identity performing the §4.2 join:
// fresh endpoint (new address), seed contacts, participation from the
// next epoch on. A non-negative group places it into the active partition.
func (w *udpWorker) join(j udpJoin) (string, error) {
	ep, err := w.net.endpoint()
	if err != nil {
		return "", fmt.Errorf("worker %d: joiner %d: %w", w.index, j.Slot, err)
	}
	if j.Group >= 0 {
		w.filter.AssignGroup(ep.Addr(), j.Group)
	}
	if j.Sybil > 0 && w.adv != nil {
		// Mark before the node is built so its value supplier reports the
		// sybil value from the first epoch restart on.
		w.adv.markSybil(j.Slot, j.Sybil-1)
	}
	node, err := w.newNode(j.Slot, ep, j.Seeds, nil)
	if err != nil {
		_ = ep.Close()
		return "", err
	}
	if err := node.Start(w.ctx); err != nil {
		return "", fmt.Errorf("worker %d: starting joiner %d: %w", w.index, j.Slot, err)
	}
	w.nodes[j.Slot] = &udpWorkerSlot{node: node, ep: ep}
	return ep.Addr(), nil
}

// handleSample reports this slice's partial metric aggregates. The
// estimates travel as a stats.Moments the supervisor merges; the full
// protocol-counter totals and the RTT histogram snapshot ride along so
// the supervisor's /metrics endpoint exports the whole fleet.
func (w *udpWorker) handleSample(msg udpMsg) (udpMsg, error) {
	reply := udpMsg{
		Op:          udpOpMetrics,
		Cycle:       msg.Cycle,
		Alive:       len(w.nodes),
		QueueDrops:  w.retiredQueueDrops,
		FilterDrops: w.retiredFilterDrops,
	}
	totals := w.retiredAgent
	for _, slot := range w.sortedSlots() {
		s := w.nodes[slot]
		totals.Accumulate(s.node.Metrics())
		reply.QueueDrops += s.ep.QueueDrops()
		reply.FilterDrops += s.ep.FilterDrops()
		if !s.node.Participating() {
			continue
		}
		reply.Participating++
		// Honest participants only; see runLog.record.
		if w.adv != nil && w.adv.hostile(slot) {
			continue
		}
		if v, ok := s.node.Estimate(); ok {
			reply.Est.Add(v)
		}
	}
	reply.AgentTotals = &totals
	rttSnap := w.rtt.Snapshot()
	reply.RTTHist = &rttSnap
	reply.TransportQueueDepth = w.net.QueueDepthHighWatermark()
	batch := w.net.BatchSizes()
	reply.BatchHist = &batch
	reply.Trace, w.traceCursor = w.drain.EventsSince(w.traceCursor)
	return reply, nil
}

// stopAll terminates the fleet slice and waits for background stops.
func (w *udpWorker) stopAll() {
	if w.stopped {
		return
	}
	w.stopped = true
	if w.cancel != nil {
		w.cancel()
	}
	for slot, s := range w.nodes {
		delete(w.nodes, slot)
		if s.node != nil {
			_ = s.node.Stop()
		} else {
			_ = s.ep.Close()
		}
	}
	if w.net != nil {
		w.net.close()
	}
	w.stopping.Wait()
}
