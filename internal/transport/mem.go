package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"antientropy/internal/obs"
)

// MemNetworkConfig tunes the simulated network conditions.
type MemNetworkConfig struct {
	// MinLatency and MaxLatency bound the uniformly distributed one-way
	// delivery delay. Zero values mean synchronous delivery: before Send
	// returns the datagram has been handled by the destination's handler,
	// on the sender's goroutine, or sits in the destination's inbound
	// buffer when it has no handler (see MemEndpoint). A delayed datagram
	// is delivered the same way from the goroutine of its timer.
	MinLatency time.Duration
	MaxLatency time.Duration
	// Loss is the probability that a datagram silently disappears.
	Loss float64
	// Seed drives the loss/latency randomness (0 picks a time seed).
	Seed int64
	// QueueLen is the inbound buffer of an endpoint read through Recv;
	// datagrams arriving at a full buffer are dropped, as a congested
	// socket would. Default 1024. Handler-mode endpoints have no buffer.
	QueueLen int
}

// MemNetwork is an in-memory datagram network connecting MemEndpoints.
// It is safe for concurrent use.
type MemNetwork struct {
	// mu guards cfg's loss and latency and the routing state below. A
	// send holds it for reading; only reconfiguration excludes sends.
	mu        sync.RWMutex
	cfg       MemNetworkConfig
	endpoints map[string]*MemEndpoint
	// partitioned[a][b] marks one-way link cuts a -> b.
	partitioned map[string]map[string]bool
	// groups assigns addresses to partition groups: datagrams between
	// addresses in different groups are dropped. Addresses absent from the
	// map communicate freely. Group-based partitions compose with the
	// pairwise cuts above and cost O(1) per send instead of O(N²) state.
	groups   map[string]int
	nextAddr int
	wg       sync.WaitGroup
	closed   bool

	// rngMu guards rng, the source of the loss and latency draws.
	rngMu sync.Mutex
	rng   *rand.Rand

	// queueDepth is the high watermark across all endpoints' inbound
	// buffers; delivered counts datagrams enqueued network-wide. Both
	// feed the same transport telemetry series the UDP executors export.
	queueDepth atomic.Int64
	delivered  atomic.Int64
}

// NewMemNetwork creates an empty in-memory network.
func NewMemNetwork(cfg MemNetworkConfig) *MemNetwork {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &MemNetwork{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(seed)),
		endpoints:   make(map[string]*MemEndpoint),
		partitioned: make(map[string]map[string]bool),
	}
}

// Endpoint registers and returns a new endpoint with a generated address
// of the form "mem-N".
func (n *MemNetwork) Endpoint() *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr := fmt.Sprintf("mem-%d", n.nextAddr)
	n.nextAddr++
	ep := &MemEndpoint{net: n, addr: addr, queueLen: n.cfg.QueueLen}
	ep.idle.L = &ep.mu
	n.endpoints[addr] = ep
	return ep
}

// Partition cuts the one-way link from a to b (datagrams silently
// dropped). Heal restores it.
func (n *MemNetwork) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitioned[a] == nil {
		n.partitioned[a] = make(map[string]bool)
	}
	n.partitioned[a][b] = true
}

// Heal restores the one-way link from a to b.
func (n *MemNetwork) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned[a], b)
}

// PartitionBoth cuts the link in both directions.
func (n *MemNetwork) PartitionBoth(a, b string) {
	n.Partition(a, b)
	n.Partition(b, a)
}

// HealBoth restores the link in both directions.
func (n *MemNetwork) HealBoth(a, b string) {
	n.Heal(a, b)
	n.Heal(b, a)
}

// PartitionGroups splits the network into groups: datagrams between
// addresses assigned to different groups are silently dropped, exactly as
// a network partition loses them. Addresses missing from the map are
// unrestricted. The assignment replaces any previous group partition; the
// map is copied.
func (n *MemNetwork) PartitionGroups(groups map[string]int) {
	cp := make(map[string]int, len(groups))
	for addr, g := range groups {
		cp[addr] = g
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = cp
}

// AssignGroup places one address into a partition group, creating the
// group partition if none is active (nodes joining mid-partition).
func (n *MemNetwork) AssignGroup(addr string, group int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.groups == nil {
		n.groups = make(map[string]int)
	}
	n.groups[addr] = group
}

// HealGroups removes the group partition: all groups can talk again.
func (n *MemNetwork) HealGroups() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups = nil
}

// SetLoss changes the datagram loss probability mid-run (scenario loss
// bursts). Values are clamped to [0, 1].
func (n *MemNetwork) SetLoss(p float64) {
	switch {
	case p < 0:
		p = 0
	case p > 1:
		p = 1
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.Loss = p
}

// SetLatency changes the one-way delivery delay bounds mid-run (scenario
// delay bursts). Negative values are treated as zero; when max < min, max
// is raised to min.
func (n *MemNetwork) SetLatency(min, max time.Duration) {
	if min < 0 {
		min = 0
	}
	if max < min {
		max = min
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.MinLatency, n.cfg.MaxLatency = min, max
}

// Close shuts down the network and every endpoint, waiting for delayed
// deliveries in flight to drain.
func (n *MemNetwork) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*MemEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	n.wg.Wait()
	for _, ep := range eps {
		ep.close(false)
	}
}

// route decides a datagram's fate: the endpoint to deliver it to and
// after what delay, or no endpoint and the error Send reports — nil when
// the network loses the datagram, as a partition or the loss rate does,
// because the sender cannot tell. It holds the read lock, so datagrams
// route in parallel; the draws for loss and latency take rngMu, and a
// network configured for neither takes no exclusive lock at all. A
// delayed delivery is counted into wg here, under the lock Close
// excludes before it waits.
func (n *MemNetwork) route(from, to string) (*MemEndpoint, time.Duration, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		return nil, 0, ErrClosed
	}
	dst, ok := n.endpoints[to]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	if n.partitioned[from][to] {
		return nil, 0, nil
	}
	if n.groups != nil {
		gf, okf := n.groups[from]
		gt, okt := n.groups[to]
		if okf && okt && gf != gt {
			return nil, 0, nil
		}
	}
	var delay, span time.Duration
	if n.cfg.MaxLatency > 0 {
		delay, span = n.cfg.MinLatency, n.cfg.MaxLatency-n.cfg.MinLatency
	}
	if loss := n.cfg.Loss; loss > 0 || span > 0 {
		n.rngMu.Lock()
		lost := loss > 0 && n.rng.Float64() < loss
		if !lost && span > 0 {
			delay += time.Duration(n.rng.Int63n(int64(span)))
		}
		n.rngMu.Unlock()
		if lost {
			return nil, 0, nil
		}
	}
	if delay > 0 {
		n.wg.Add(1)
	}
	return dst, delay, nil
}

// send routes a datagram, applying loss, latency and partitions.
func (n *MemNetwork) send(from, to string, data []byte) error {
	dst, delay, err := n.route(from, to)
	if dst == nil {
		return err
	}
	// Copy: the caller may reuse its buffer after Send returns. Gossip-sized
	// datagrams ride the pooled send buffers, which the receiver's
	// Packet.Release recycles; larger ones get an exact heap copy rather
	// than pinning a MaxDatagram buffer per queued packet.
	p := Packet{From: from}
	if len(data) <= sendBufSize {
		p.buf = getSendBuf(len(data))
		p.Data = (*p.buf)[:copy(*p.buf, data)]
	} else {
		p.Data = append([]byte(nil), data...)
	}
	if delay <= 0 {
		// Immediate delivery runs inline, holding no lock of the network
		// or of the sending endpoint: a channel-mode destination only
		// enqueues (never blocks — a full buffer drops), a handler-mode
		// one runs its handler here, and whatever that handler sends is
		// delivered the same way, nested inside this call.
		dst.deliver(p)
		return nil
	}
	time.AfterFunc(delay, func() {
		defer n.wg.Done()
		dst.deliver(p)
	})
	return nil
}

// MemEndpoint is one node's attachment to a MemNetwork. It delivers in one
// of two modes. Until SetHandler is called, inbound datagrams queue in a
// buffered channel read through Recv. After it, each datagram is passed to
// the handler on the goroutine that delivers it — the sender's own for a
// zero-latency network, the latency timer's otherwise — with no queue, no
// channel and no goroutine of the endpoint's.
type MemEndpoint struct {
	net      *MemNetwork
	addr     string
	queueLen int

	closed  atomic.Bool
	handler atomic.Pointer[func(Packet)]
	// inflight counts handler calls in progress. A delivery counts itself
	// before it checks closed and Close sets closed before it reads the
	// count, so either the delivery backs out or Close waits for it.
	inflight atomic.Int64

	// mu guards the channel mode: in, allocated on first use, and dropped.
	// A channel-mode delivery holds it; SetHandler takes it to switch
	// modes, so no datagram is queued behind the drain. idle, on mu, wakes
	// a Close waiting for inflight to reach zero.
	mu   sync.Mutex
	idle sync.Cond
	in   chan Packet
	// dropped counts datagrams discarded because the inbound buffer was
	// full.
	dropped int
}

var _ HandlerEndpoint = (*MemEndpoint)(nil)

// Addr returns the endpoint's address.
func (e *MemEndpoint) Addr() string { return e.addr }

// Send transmits a datagram through the network. With a zero-latency
// network and a handler-mode destination, the destination's handler has
// returned by the time Send does.
func (e *MemEndpoint) Send(to string, data []byte) error {
	if len(data) > MaxDatagram {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data))
	}
	if e.closed.Load() {
		return ErrClosed
	}
	return e.net.send(e.addr, to, data)
}

// queueLocked returns the inbound channel, allocating it on first use: a
// handler-mode endpoint never pays for a buffer it does not read.
func (e *MemEndpoint) queueLocked() chan Packet {
	if e.in == nil {
		e.in = make(chan Packet, e.queueLen)
		if e.closed.Load() {
			close(e.in)
		}
	}
	return e.in
}

// Recv returns the inbound channel; silent once a handler is set, closed
// when the endpoint closes.
func (e *MemEndpoint) Recv() <-chan Packet {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queueLocked()
}

// SetHandler switches the endpoint to handler-mode delivery and drains
// anything already buffered on the Recv channel through the handler. The
// handler may send, also to the endpoint that is delivering to it; it must
// not close its own endpoint.
func (e *MemEndpoint) SetHandler(fn func(Packet)) {
	e.mu.Lock()
	e.handler.Store(&fn)
	in := e.in
	e.mu.Unlock()
	if in == nil {
		return
	}
	for {
		select {
		case p, ok := <-in:
			if !ok {
				return
			}
			e.call(fn, p)
		default:
			return
		}
	}
}

// Close detaches the endpoint: subsequent sends fail and the receive
// channel is closed. It waits out handler calls in flight, so after Close
// returns the handler is not invoked again. Deliveries never wait for a
// Close — one that finds the endpoint closing returns at once — so
// concurrent Closes of endpoints whose handlers are sending to each other
// cannot wedge. Safe to call more than once.
func (e *MemEndpoint) Close() error {
	e.close(true)
	return nil
}

func (e *MemEndpoint) close(unregister bool) {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return
	}
	e.closed.Store(true)
	if e.in != nil {
		close(e.in)
	}
	for e.inflight.Load() != 0 {
		e.idle.Wait()
	}
	e.mu.Unlock()
	if unregister {
		e.net.mu.Lock()
		delete(e.net.endpoints, e.addr)
		e.net.mu.Unlock()
	}
}

// Dropped reports how many inbound datagrams were discarded due to a full
// buffer. A handler-mode endpoint has no buffer and reads 0.
func (e *MemEndpoint) Dropped() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// call runs one handler invocation under the Close barrier.
func (e *MemEndpoint) call(fn func(Packet), p Packet) {
	e.inflight.Add(1)
	if e.closed.Load() {
		p.Release()
	} else {
		e.net.delivered.Add(1)
		fn(p)
	}
	if e.inflight.Add(-1) == 0 && e.closed.Load() {
		e.mu.Lock()
		e.idle.Broadcast()
		e.mu.Unlock()
	}
}

func (e *MemEndpoint) deliver(p Packet) {
	h := e.handler.Load()
	if h == nil {
		e.mu.Lock()
		if h = e.handler.Load(); h == nil {
			// Channel mode, and SetHandler cannot switch it while mu is
			// held: nothing is queued behind its drain.
			e.enqueueLocked(p)
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
	}
	e.call(*h, p)
}

func (e *MemEndpoint) enqueueLocked(p Packet) {
	if e.closed.Load() {
		p.Release()
		return
	}
	in := e.queueLocked()
	select {
	case in <- p:
		e.net.delivered.Add(1)
		maxInt64(&e.net.queueDepth, int64(len(in)))
	default:
		e.dropped++
		p.Release()
	}
}

// QueueDepthHighWatermark reports the deepest any endpoint's inbound
// buffer has been across the network's lifetime (0 for a network of
// handler-mode endpoints: there is no queue).
func (n *MemNetwork) QueueDepthHighWatermark() int64 { return n.queueDepth.Load() }

// BatchSizes reports the network's datagram deliveries in the shape of
// the UDP transports' batch-size histogram: in-memory delivery moves one
// datagram at a time, so all mass sits in the first bucket. Keeping the
// series shape identical across executors lets dashboards compare them
// directly.
func (n *MemNetwork) BatchSizes() obs.HistSnapshot {
	d := n.delivered.Load()
	counts := make([]int64, len(BatchSizeBuckets)+1)
	counts[0] = d
	return obs.HistSnapshot{
		Bounds: BatchSizeBuckets,
		Counts: counts,
		Count:  d,
		Sum:    float64(d),
	}
}
