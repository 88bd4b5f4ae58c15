package agent

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/race"
	"antientropy/internal/transport"
	"antientropy/internal/wire"
)

// startFleet builds and starts n scalar nodes over a fresh zero-latency
// mem network, every node bootstrapped with every address. The caller
// stops them.
func startFleet(t testing.TB, ctx context.Context, n int, schedule core.Schedule, wrap func(i int, ep *transport.MemEndpoint) transport.Endpoint) ([]*Node, *transport.MemNetwork) {
	t.Helper()
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 7})
	eps := make([]*transport.MemEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		eps[i] = net.Endpoint()
		addrs[i] = eps[i].Addr()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		var ep transport.Endpoint = eps[i]
		if wrap != nil {
			ep = wrap(i, eps[i])
		}
		v := float64(i)
		node, err := New(Config{
			Endpoint: ep, Schedule: schedule, Value: func() float64 { return v },
			Bootstrap: addrs, Seed: uint64(i + 1), Logger: quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for _, node := range nodes {
		if err := node.Start(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return nodes, net
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSchedulerOwnsOneGoroutine: a running 200-node mem fleet costs the
// process the scheduler goroutine and nothing per node; stopping it leaves
// no goroutine, no heap entry and no reference to a node behind.
func TestSchedulerOwnsOneGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var freed atomic.Int64
	func() {
		// A node sits in reference cycles (its endpoint's handler points
		// back at it), and a finalizer on an object in a cycle never runs:
		// the finalizers go on tags only the nodes' endpoints refer to.
		type tagged struct {
			*transport.MemEndpoint
			tag *[16]byte
		}
		nodes, net := startFleet(t, context.Background(), 200, testSchedule(), func(i int, ep *transport.MemEndpoint) transport.Endpoint {
			tag := new([16]byte)
			runtime.SetFinalizer(tag, func(*[16]byte) { freed.Add(1) })
			return tagged{ep, tag}
		})
		defer net.Close()
		waitFor(t, "the fleet to exchange", func() bool { return nodes[0].Metrics().ExchangesCompleted > 3 })
		if got := runtime.NumGoroutine(); got > baseline+3 {
			t.Errorf("%d goroutines with a 200-node fleet running, baseline %d: want at most 3 more", got, baseline)
		}
		if got := sched.size(); got != 200 {
			t.Errorf("the scheduler serves %d nodes, want 200", got)
		}
		for _, node := range nodes {
			if err := node.Stop(); err != nil {
				t.Error(err)
			}
		}
	}()
	if got := sched.size(); got != 0 {
		t.Fatalf("the scheduler still serves %d nodes after every Stop", got)
	}
	waitFor(t, "the scheduler goroutine to exit", func() bool { return runtime.NumGoroutine() <= baseline })
	runtime.GC()
	runtime.GC()
	deadline := time.Now().Add(5 * time.Second) // finalizers run on a goroutine of their own
	for freed.Load() != 200 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 200 stopped nodes are still referenced after two GCs", 200-freed.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// blockingEndpoint is a mem endpoint whose sends wait while gate is set.
type blockingEndpoint struct {
	*transport.MemEndpoint
	gate    atomic.Pointer[chan struct{}]
	entered chan struct{}
}

func (e *blockingEndpoint) Send(to string, data []byte) error {
	if gate := e.gate.Load(); gate != nil {
		select {
		case e.entered <- struct{}{}:
		default:
		}
		<-*gate
	}
	return e.MemEndpoint.Send(to, data)
}

// TestStopWaitsOutOwnCycle: Stop called while the scheduler is inside the
// node's cycle returns only when that cycle has ended, and no cycle of
// the node follows.
func TestStopWaitsOutOwnCycle(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 3})
	defer net.Close()
	silent := net.Endpoint() // never answers: every send is the node's own cycle's
	gate := make(chan struct{})
	blocked := &blockingEndpoint{MemEndpoint: net.Endpoint(), entered: make(chan struct{}, 1)}
	blocked.gate.Store(&gate)
	node, err := New(Config{
		Endpoint: blocked, Schedule: testSchedule(), Value: func() float64 { return 1 },
		Bootstrap: []string{silent.Addr()}, Seed: 9, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the node never sent")
	}
	// The scheduler goroutine is now inside the node's cycle, in Send.
	stopped := make(chan struct{})
	go func() {
		_ = node.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while the node's cycle was still running")
	case <-time.After(50 * time.Millisecond):
	}
	blocked.gate.Store(nil)
	close(gate)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop never returned")
	}
	initiated := node.Metrics().ExchangesInitiated
	time.Sleep(10 * testSchedule().CycleLen)
	if got := node.Metrics().ExchangesInitiated; got != initiated {
		t.Fatalf("a stopped node initiated %d more exchanges", got-initiated)
	}
}

// TestContextCancelStopsCycles: cancelling Start's context takes the node
// off the scheduler without Stop.
func TestContextCancelStopsCycles(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	nodes, net := startFleet(t, ctx, 4, testSchedule(), nil)
	defer func() {
		for _, node := range nodes {
			_ = node.Stop()
		}
		net.Close()
	}()
	waitFor(t, "the fleet to exchange", func() bool { return nodes[0].Metrics().ExchangesInitiated > 2 })
	cancel()
	waitFor(t, "the scheduler to drop the fleet", func() bool { return sched.size() == 0 })
	var before int64
	for _, node := range nodes {
		before += node.Metrics().ExchangesInitiated
	}
	time.Sleep(10 * testSchedule().CycleLen)
	var after int64
	for _, node := range nodes {
		after += node.Metrics().ExchangesInitiated
	}
	if after != before {
		t.Fatalf("%d exchanges initiated after the context was cancelled", after-before)
	}
}

// sendClock is a mem endpoint that notes when each send happened, on the
// scheduler's clock.
type sendClock struct {
	*transport.MemEndpoint
	mu    sync.Mutex
	times []int64
}

func (e *sendClock) Send(to string, data []byte) error {
	e.mu.Lock()
	e.times = append(e.times, schedClock(time.Now()))
	e.mu.Unlock()
	return e.MemEndpoint.Send(to, data)
}

// TestCyclesDoNotDrift: every cycle of a node is due a whole number of δ
// after its first, whatever the cycles before it took, and runs near its
// due time: up to δ/64 early, and on a box that is not starved not much
// later.
func TestCyclesDoNotDrift(t *testing.T) {
	const cycles = 40
	delta := 10 * time.Millisecond
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 3})
	defer net.Close()
	silent := net.Endpoint() // never read: the node's requests time out
	clock := &sendClock{MemEndpoint: net.Endpoint()}
	node, err := New(Config{
		Endpoint: clock, Value: func() float64 { return 1 },
		Schedule:       core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: delta, Gamma: 1 << 20},
		Bootstrap:      []string{silent.Addr()},
		RequestTimeout: delta / 4, // every cycle finds the node free again
		Seed:           9, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	sched.mu.Lock()
	first := node.sched.nextCycle
	sched.mu.Unlock()
	if first-schedClock(time.Now()) < int64(delta)/2 {
		t.Skip("the test was held up between Start and reading the first due time")
	}
	waitFor(t, "40 cycles", func() bool {
		clock.mu.Lock()
		defer clock.mu.Unlock()
		return len(clock.times) >= cycles
	})
	sched.mu.Lock()
	next := node.sched.nextCycle
	sched.mu.Unlock()
	if (next-first)%int64(delta) != 0 {
		t.Fatalf("the node's phase moved: first cycle due at %d, a later one at %d, δ = %d", first, next, int64(delta))
	}
	clock.mu.Lock()
	times := append([]int64(nil), clock.times[:cycles]...)
	clock.mu.Unlock()
	// Where in its δ each cycle actually ran: at its due time or up to
	// δ/64 before it, give or take the box. Measured against the nearest
	// due time, not the k-th, because a starved loop skips whole cycles.
	offPhase := 0
	for _, at := range times {
		after := ((at-first)%int64(delta) + int64(delta)) % int64(delta)
		if after > int64(delta/2) && after < int64(delta-delta/64) {
			offPhase++
		}
	}
	if offPhase > cycles/4 {
		t.Errorf("%d of %d cycles ran more than δ/2 after, or more than δ/64 before, a due time", offPhase, cycles)
	}
}

// cycleClock is a mem endpoint that notes every exchange request its
// node sends: when, when the cycle sending it was due, and in which
// epoch. Requests sent before node is set go unrecorded.
type cycleClock struct {
	*transport.MemEndpoint
	node  atomic.Pointer[Node]
	mu    sync.Mutex
	sends []cycleSend
}

// cycleSend is one recorded request; at and due are on the scheduler's
// clock.
type cycleSend struct {
	at, due int64
	epoch   uint64
}

func (e *cycleClock) Send(to string, data []byte) error {
	if n := e.node.Load(); n != nil {
		if m, err := wire.Decode(data); err == nil {
			if req, ok := m.(*wire.ExchangeRequest); ok {
				at := schedClock(time.Now())
				sched.mu.Lock()
				due := n.sched.nextCycle // moved on only once the cycle has ended
				sched.mu.Unlock()
				e.mu.Lock()
				e.sends = append(e.sends, cycleSend{at: at, due: due, epoch: req.Epoch})
				e.mu.Unlock()
			}
		}
	}
	return e.MemEndpoint.Send(to, data)
}

func (e *cycleClock) recorded() []cycleSend {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]cycleSend(nil), e.sends...)
}

// startClockedFleet is startFleet with every endpoint a cycleClock.
func startClockedFleet(t testing.TB, n int, schedule core.Schedule) ([]*Node, []*cycleClock, func()) {
	t.Helper()
	clocks := make([]*cycleClock, n)
	nodes, net := startFleet(t, context.Background(), n, schedule, func(i int, ep *transport.MemEndpoint) transport.Endpoint {
		clocks[i] = &cycleClock{MemEndpoint: ep}
		return clocks[i]
	})
	for i, node := range nodes {
		clocks[i].node.Store(node)
	}
	return nodes, clocks, func() {
		for _, node := range nodes {
			_ = node.Stop()
		}
		net.Close()
	}
}

// TestInlineCyclesLeadAtMostSixteenth is TestCyclesDoNotDrift for nodes
// whose exchanges complete inside Send: every cycle is due a whole number
// of δ after the node's first, runs at most δ/16 before it is due, and on
// a box that is not starved not much later; and the node is queued with
// the inline lead.
func TestInlineCyclesLeadAtMostSixteenth(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector slows the fleet past its cycle length")
	}
	const cycles = 40
	delta := 16 * time.Millisecond
	nodes, clocks, stop := startClockedFleet(t, 16, core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: delta, Gamma: 1 << 20})
	defer stop()
	waitFor(t, "40 cycles", func() bool { return len(clocks[0].recorded()) >= cycles })
	sends := clocks[0].recorded()[:cycles]
	late := 0
	for _, s := range sends {
		if (s.due-sends[0].due)%int64(delta) != 0 {
			t.Fatalf("the node's phase moved: a cycle due at %d, the first at %d, δ = %d", s.due, sends[0].due, int64(delta))
		}
		if early := s.due - s.at; early > int64(delta/inlineLead) {
			t.Errorf("a cycle ran %v before it was due, more than δ/16 = %v", time.Duration(early), delta/inlineLead)
		}
		if s.at-s.due > int64(delta/2) {
			late++
		}
	}
	if late > cycles/4 {
		t.Errorf("%d of %d cycles ran more than δ/2 after they were due", late, cycles)
	}
	sched.mu.Lock()
	inline := nodes[0].sched.inline
	sched.mu.Unlock()
	if !inline {
		t.Error("a node whose exchanges complete inline is not queued with the inline lead")
	}
}

// TestIdleCycleKeepsTheLead: a cycle that sends no exchange request —
// here a node idling past γ, which gossips membership only — leaves the
// node's lead as its last exchange set it, either way. On a mem network
// the membership reply arrives inline, which on a socket it would not.
func TestIdleCycleKeepsTheLead(t *testing.T) {
	postGamma := core.Schedule{Start: time.Now().Add(-90 * time.Minute), Delta: 10 * time.Hour, CycleLen: time.Hour, Gamma: 1}
	nodes, _ := launchCluster(t, 2, postGamma, func(i int) float64 { return float64(i) })
	for _, inline := range []bool{false, true} {
		sched.mu.Lock()
		nodes[0].sched.inline = inline
		sched.mu.Unlock()
		cycleOnScheduler(nodes[0])
		sched.mu.Lock()
		got := nodes[0].sched.inline
		sched.mu.Unlock()
		if got != inline {
			t.Errorf("a membership-only cycle turned inline %v into %v", inline, got)
		}
	}
	if m := nodes[0].Metrics(); m.ExchangesInitiated != 0 {
		t.Fatalf("the node initiated %d exchanges past γ", m.ExchangesInitiated)
	}
}

// TestInlineFleetWakeCount: the scheduler serving 256 inline nodes wakes
// about 16 times per δ — each wake serves every cycle due within δ/16 —
// not the ~50 a δ/64 lead costs.
func TestInlineFleetWakeCount(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector slows the fleet past its cycle length")
	}
	const cycles = 20
	delta := 50 * time.Millisecond
	nodes, net := startFleet(t, context.Background(), 256, core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: delta, Gamma: 1 << 20}, nil)
	defer func() {
		for _, node := range nodes {
			_ = node.Stop()
		}
		net.Close()
	}()
	// Every first cycle is due within 2δ of Start and queued with the
	// outstanding lead; from the second on every node is inline.
	time.Sleep(3 * delta)
	wakes := func() int64 {
		sched.mu.Lock()
		defer sched.mu.Unlock()
		return sched.wakes
	}
	before, from := wakes(), time.Now()
	time.Sleep(cycles * delta)
	perCycle := float64(wakes()-before) / (float64(time.Since(from)) / float64(delta))
	t.Logf("%.1f scheduler wakes per δ", perCycle)
	if perCycle > inlineLead+4 {
		t.Errorf("the scheduler woke %.1f times per δ for an inline fleet, want at most about %d", perCycle, inlineLead)
	}
}

// TestInlineFleetCrossesEpochEdges: a 256-node inline fleet, its cycles
// served up to δ/16 early, crosses four epoch edges without a timeout or
// a stale drop (as with the δ/64 lead), and no request is sent in an
// epoch the wall clock has not reached: a cycle served early before an
// edge runs in the epoch that is ending.
func TestInlineFleetCrossesEpochEdges(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector slows the fleet past its cycle length")
	}
	const (
		gamma = 8
		edges = 4
	)
	cycle := 20 * time.Millisecond
	schedule := core.Schedule{Start: time.Now(), Delta: gamma * cycle, CycleLen: cycle, Gamma: gamma}
	nodes, clocks, stop := startClockedFleet(t, 256, schedule)
	defer stop()
	time.Sleep(time.Until(schedule.StartOf(edges).Add(2 * cycle)))
	var m Metrics
	for i, node := range nodes {
		m.Accumulate(node.Metrics())
		if e := node.Epoch(); e < edges {
			t.Errorf("node %d is in epoch %d two cycles after epoch %d began", i, e, edges)
		}
	}
	t.Logf("%d exchanges, %d epoch jumps", m.ExchangesCompleted, m.EpochJumps)
	if m.Timeouts != 0 || m.StaleDropped != 0 {
		t.Errorf("%d timeouts and %d stale drops across %d epoch edges, want none", m.Timeouts, m.StaleDropped, edges)
	}
	for i, c := range clocks {
		for _, s := range c.recorded() {
			if begun := schedule.EpochAt(schedBase.Add(time.Duration(s.at))); s.epoch > begun {
				t.Fatalf("node %d sent a request of epoch %d in epoch %d", i, s.epoch, begun)
			}
		}
	}
}

// cycleOnScheduler runs the node's cycle the way the scheduler goroutine
// does — pop, serve, queue again — on the caller's goroutine. The node's
// own cycle must be far from due.
func cycleOnScheduler(n *Node) {
	now := time.Now()
	sched.mu.Lock()
	sched.removeAt(n.sched.slot)
	sched.serve(n, now, schedClock(now))
	sched.mu.Unlock()
}

// TestCycleAllocs gates the whole steady-state cycle next to the
// per-layer gates: the scheduler's pop and push, the request, the peer's
// merge and reply and the initiator's merge, inline on one goroutine
// between two nodes that know each other, allocate nothing.
func TestCycleAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	idle := core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: time.Hour, Gamma: 1 << 20}
	nodes, _ := launchCluster(t, 2, idle, func(i int) float64 { return float64(i) })
	for i := 0; i < 4; i++ { // sessions, codec state, scratch growth
		cycleOnScheduler(nodes[0])
		cycleOnScheduler(nodes[1])
	}
	before := nodes[0].Metrics().ExchangesCompleted
	if n := testing.AllocsPerRun(200, func() { cycleOnScheduler(nodes[0]) }); n != 0 {
		t.Fatalf("one cycle with an inline exchange allocates %.1f times, want 0", n)
	}
	if done := nodes[0].Metrics().ExchangesCompleted - before; done < 200 {
		t.Fatalf("only %d of the measured cycles completed an exchange", done)
	}
}

// TestSlowValueShowsAsTickLag: one node whose Value callback takes 20 ms
// at every epoch restart holds up the cycles queued behind it, and the
// lag histogram says so.
func TestSlowValueShowsAsTickLag(t *testing.T) {
	schedule := testSchedule()
	schedule.Delta = 5 * schedule.CycleLen // an epoch restart every 50 ms
	schedule.Gamma = 5
	over5ms := func() int64 {
		s := sched.lag.Snapshot()
		var n int64
		for i, c := range s.Counts {
			if i >= len(s.Bounds) || s.Bounds[i] > 0.005 {
				n += c
			}
		}
		return n
	}
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 5})
	defer net.Close()
	eps := make([]*transport.MemEndpoint, 8)
	addrs := make([]string, len(eps))
	for i := range eps {
		eps[i] = net.Endpoint()
		addrs[i] = eps[i].Addr()
	}
	var started atomic.Bool
	before := over5ms()
	for i, ep := range eps {
		value := func() float64 { return 1 }
		if i == 0 {
			value = func() float64 {
				if started.Load() {
					time.Sleep(20 * time.Millisecond)
				}
				return 1
			}
		}
		node, err := New(Config{
			Endpoint: ep, Schedule: schedule, Value: value,
			Bootstrap: addrs, Seed: uint64(i + 1), Logger: quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer node.Stop()
	}
	started.Store(true)
	waitFor(t, "cycles delayed by the slow Value to be recorded", func() bool { return over5ms() >= before+5 })
}
