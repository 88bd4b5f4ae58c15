package scenario

import (
	"context"
	"fmt"
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
// endpoints, built, crashed, joined, sampled and stopped by direct calls
// from the supervisor, which lives in the same process. The same worker
// serves both fleet executors; what differs is the network its endpoints
// attach to — a UDP mux of its own for udp, the in-memory network for
// live.

// cycleCmd is one worker's share of a cycle's scripted interventions,
// which the script fills in before the barrier. Loss is always set (the
// effective rate for the cycle); Groups non-nil installs a partition,
// Heal clears it, Assign patches single addresses in (joiners created
// while a partition is active). The delay bounds are set only for a
// worker whose network can inject latency.
type cycleCmd struct {
	Cycle              int
	Loss               float64
	DelayMin, DelayMax time.Duration
	Groups, Assign     map[string]int
	Heal               bool
	Crash              []int
	Joins              []udpJoin
	Contacts           []udpContacts
}

// udpJoin commands one slot to come up as a brand-new identity performing
// the §4.2 join against the given seed addresses. Group places the new
// endpoint into an active partition component (-1: none).
type udpJoin struct {
	Slot  int
	Seeds []string
	Group int
	// Sybil marks an attacker join: the controlling adversary's index
	// plus one (0 = honest joiner). Sybil slot assignment is runtime
	// state only the script knows, so it rides the join command; the
	// worker's own schedule covers the static Byzantine picks.
	Sybil int
}

// udpContacts hands one slot out-of-band contact addresses (the post-heal
// rendezvous refresh; see bridgeContacts).
type udpContacts struct {
	Slot  int
	Addrs []string
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

// netBuilder builds a worker's network around its filter.
type netBuilder func(sc Scenario, queueLen int, filter *transport.UDPFilter) (fleetNet, error)

// socketNet is a udp worker's network: its own batched UDP mux on
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

// memNet is the live worker's network: the in-memory transport, which
// delays datagrams itself and loses them through the worker's filter.
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

// udpWorker runs the supervisor's commands against its slice of the
// fleet: init, start, cycle and sample, then stop.
type udpWorker struct {
	sc    Scenario
	prog  *ValueProgram
	index int
	// opts carries the fleet-wide tuning the supervisor resolved: cache
	// size, cycle length, queue length, and the logger and trace ring the
	// nodes write into.
	opts  UDPOptions
	sched core.Schedule

	// newNet builds net, the slice's network, at init; the network
	// applies filter, which carries the scripted partitions and loss.
	newNet netBuilder
	net    fleetNet
	filter *transport.UDPFilter

	// cycleNow is the supervisor's cycle clock, advanced by every cycle
	// command; node Value suppliers read it so epoch restarts sample the
	// scripted signal at the current cycle.
	cycleNow atomic.Int64

	// adv is the worker's own copy of the run's Byzantine plan — a pure
	// function of the seed, so it matches the supervisor's and the
	// simulator's, while its nodes read it without sharing the script's.
	// Sybil slot assignment arrives on the join commands. advStale
	// carries the replay-stale attackers' lagged snapshots from the
	// per-node output subscriptions to the wire hooks; combiner is the
	// defense's merge policy handed to every node.
	adv      *advSchedule
	advStale []liveStaleState
	combiner core.Combiner

	// rtt is the exchange round-trip histogram every node feeds.
	rtt *obs.Histogram

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

func newUDPWorker(sc Scenario, index int, opts UDPOptions, rtt *obs.Histogram, newNet netBuilder) *udpWorker {
	slots := sc.MaxSlots()
	w := &udpWorker{
		sc:     sc,
		prog:   NewValueProgram(sc, slots),
		index:  index,
		opts:   opts,
		newNet: newNet,
		adv:    newAdvSchedule(sc, slots),
		rtt:    rtt,
		nodes:  make(map[int]*udpWorkerSlot),
	}
	if w.adv != nil {
		w.advStale = make([]liveStaleState, slots)
	}
	if c, err := sc.Defense.combiner(); err == nil {
		w.combiner = c // err pre-screened by Validate
	}
	return w
}

// init builds the slice's network and binds one endpoint per founding
// slot, returning slot → bound address.
func (w *udpWorker) init(slots []int) (map[int]string, error) {
	w.ctx, w.cancel = context.WithCancel(context.Background())
	// The baseline loss applies from the founding on, exactly as in the
	// simulator; loss bursts override it cycle by cycle.
	w.filter = transport.NewUDPFilter(int64(w.sc.Seed) + int64(w.index) + 2)
	w.filter.SetLoss(w.sc.MessageLoss)
	net, err := w.newNet(w.sc, w.opts.QueueLen, w.filter)
	if err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	w.net = net

	addrs := make(map[int]string, len(slots))
	for _, slot := range slots {
		ep, err := w.net.endpoint()
		if err != nil {
			return nil, fmt.Errorf("slot %d: %w", slot, err)
		}
		w.nodes[slot] = &udpWorkerSlot{ep: ep}
		addrs[slot] = ep.Addr()
	}
	return addrs, nil
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

// start builds and starts the founding nodes on the shared schedule
// anchored at anchor, NEWSCAST-bootstrapped from the founding address
// book.
func (w *udpWorker) start(anchor time.Time, bootstrap []string) error {
	w.sched = core.Schedule{
		Start:    anchor,
		Delta:    time.Duration(w.sc.EpochLen) * w.opts.CycleLen,
		CycleLen: w.opts.CycleLen,
		Gamma:    w.sc.EpochLen,
	}
	slots := w.sortedSlots()
	for _, slot := range slots {
		s := w.nodes[slot]
		node, err := w.newNode(slot, s.ep, nil, bootstrapSubset(bootstrap, w.sc.Seed, slot, w.opts.CacheSize))
		if err != nil {
			return err
		}
		s.node = node
	}
	for _, slot := range slots {
		if err := w.nodes[slot].node.Start(w.ctx); err != nil {
			return fmt.Errorf("starting node %d: %w", slot, err)
		}
	}
	return nil
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
		CacheSize:    w.opts.CacheSize,
		Seeds:        seeds,
		Bootstrap:    bootstrap,
		Seed:         w.sc.Seed + uint64(slot)*0x9e3779b97f4a7c15 + 1,
		Logger:       w.opts.Logger,
		RTT:          w.rtt,
		Trace:        w.opts.Trace,
		MaxViewBytes: w.sc.ViewCapBytes,
		Adversary:    hook,
		Combiner:     w.combiner,
		CombinerK:    w.sc.Defense.Samples,
	})
	if err != nil {
		return nil, fmt.Errorf("building node %d: %w", slot, err)
	}
	if w.adv != nil {
		if lag := w.adv.replayLag(slot); lag > 0 {
			replayWatch(node, &w.advStale[slot], lag, &w.stopping)
		}
	}
	return node, nil
}

// cycle applies one cycle's scripted interventions to this slice and
// returns slot → address of the joiners it brought up.
func (w *udpWorker) cycle(cmd cycleCmd) (map[int]string, error) {
	w.cycleNow.Store(int64(cmd.Cycle))
	for addr, g := range cmd.Assign {
		w.filter.AssignGroup(addr, g)
	}
	if cmd.Heal {
		w.filter.HealGroups()
	}
	if cmd.Groups != nil {
		w.filter.PartitionGroups(cmd.Groups)
	}
	w.filter.SetLoss(cmd.Loss)
	w.net.setLatency(cmd.DelayMin, cmd.DelayMax)
	for _, slot := range cmd.Crash {
		w.crash(slot)
	}
	addrs := make(map[int]string, len(cmd.Joins))
	for _, j := range cmd.Joins {
		addr, err := w.join(j)
		if err != nil {
			return nil, err
		}
		addrs[j.Slot] = addr
	}
	for _, c := range cmd.Contacts {
		if s, ok := w.nodes[c.Slot]; ok {
			s.node.AddContacts(c.Addrs)
		}
	}
	return addrs, nil
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
		return "", fmt.Errorf("joiner %d: %w", j.Slot, err)
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
		return "", fmt.Errorf("starting joiner %d: %w", j.Slot, err)
	}
	w.nodes[j.Slot] = &udpWorkerSlot{node: node, ep: ep}
	return ep.Addr(), nil
}

// sample adds this slice's share of the fleet's state to s: node counts,
// the honest participants' estimates, the cumulative protocol counters
// (live nodes plus crash-retired ones) and the transport telemetry.
func (w *udpWorker) sample(s *fleetSample) {
	s.alive += len(w.nodes)
	s.totals.Accumulate(w.retiredAgent)
	s.queueDrops += w.retiredQueueDrops
	s.filterDrops += w.retiredFilterDrops
	for _, slot := range w.sortedSlots() {
		n := w.nodes[slot]
		s.totals.Accumulate(n.node.Metrics())
		s.queueDrops += n.ep.QueueDrops()
		s.filterDrops += n.ep.FilterDrops()
		if !n.node.Participating() {
			continue
		}
		s.participating++
		// Honest participants only; see runLog.record.
		if w.adv != nil && w.adv.hostile(slot) {
			continue
		}
		if v, ok := n.node.Estimate(); ok {
			s.est.Add(v)
		}
	}
	s.queueDepth = max(s.queueDepth, w.net.QueueDepthHighWatermark())
	if b := w.net.BatchSizes(); s.batch.Counts == nil {
		s.batch = b
	} else {
		s.batch = s.batch.Merge(b)
	}
}

// stop terminates the fleet slice and waits for background stops. It is
// safe on a worker whose init failed or never ran, and idempotent.
func (w *udpWorker) stop() {
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
