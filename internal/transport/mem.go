package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"antientropy/internal/obs"
)

// MemNetworkConfig tunes the simulated network. A new network delivers
// synchronously: before Send returns the datagram has been handled by the
// destination's handler, on the sender's goroutine, or sits in the
// destination's inbound buffer when it has no handler (see MemEndpoint).
// SetLatency adds a one-way delay; a delayed datagram is delivered the
// same way from the goroutine of its timer.
type MemNetworkConfig struct {
	// Seed drives the latency randomness (0 picks a time seed).
	Seed int64
	// QueueLen is the inbound buffer of an endpoint read through Recv;
	// datagrams arriving at a full buffer are dropped, as a congested
	// socket would. Default 1024. Handler-mode endpoints have no buffer.
	QueueLen int
}

// MemNetwork is an in-memory datagram network connecting MemEndpoints.
// It delays datagrams itself; which ones it loses — partitions, loss
// rates, custom rules — is decided by the UDPFilter installed with
// SetFilter, the same drop policy a UDPMux applies. It is safe for
// concurrent use.
type MemNetwork struct {
	// queueLen is MemNetworkConfig.QueueLen, fixed at construction.
	queueLen int

	// mu guards the latency bounds and the endpoint table. A send holds
	// it for reading; only reconfiguration excludes sends.
	mu                     sync.RWMutex
	minLatency, maxLatency time.Duration
	endpoints              map[string]*MemEndpoint
	nextAddr               int
	wg                     sync.WaitGroup
	closed                 bool

	// filter, when set, drops datagrams by its scripted rules.
	filter atomic.Pointer[UDPFilter]

	// rngMu guards rng, the source of the latency draws.
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
		queueLen:  cfg.QueueLen,
		rng:       rand.New(rand.NewSource(seed)),
		endpoints: make(map[string]*MemEndpoint),
	}
}

// SetFilter installs (or, with nil, removes) the drop-rule filter every
// send on the network passes through. A filter drop is counted on the
// sending endpoint (MemEndpoint.FilterDrops).
func (n *MemNetwork) SetFilter(f *UDPFilter) { n.filter.Store(f) }

// Endpoint registers and returns a new endpoint with a generated address
// of the form "mem-N".
func (n *MemNetwork) Endpoint() *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr := fmt.Sprintf("mem-%d", n.nextAddr)
	n.nextAddr++
	ep := &MemEndpoint{net: n}
	ep.init(addr, n.queueLen, &n.queueDepth)
	n.endpoints[addr] = ep
	return ep
}

// SetLatency sets the bounds of the uniformly distributed one-way
// delivery delay, at any time (scenario delay bursts change it mid-run);
// zero bounds restore synchronous delivery. Negative values are treated
// as zero; when max < min, max is raised to min.
func (n *MemNetwork) SetLatency(min, max time.Duration) {
	if min < 0 {
		min = 0
	}
	if max < min {
		max = min
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.minLatency, n.maxLatency = min, max
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
		ep.close()
	}
}

// route decides a datagram's fate: the endpoint to deliver it to and
// after what delay, or no endpoint and the error Send reports — nil when
// the filter drops the datagram, because the sender cannot tell. The
// filter is asked first, as on the mux, under no lock of the network's.
// Then route holds the read lock, so datagrams route in parallel; only
// the latency draw takes rngMu, and a network without latency takes no
// exclusive lock of its own. A delayed delivery is counted into wg here,
// under the lock Close excludes before it waits.
func (n *MemNetwork) route(from *MemEndpoint, to string) (*MemEndpoint, time.Duration, error) {
	if f := n.filter.Load(); f != nil && f.DropOutbound(from.addr, to) {
		from.filterDrops.Add(1)
		return nil, 0, nil
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.closed {
		return nil, 0, ErrClosed
	}
	dst, ok := n.endpoints[to]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	var delay time.Duration
	if n.maxLatency > 0 {
		delay = n.minLatency
		if span := n.maxLatency - delay; span > 0 {
			n.rngMu.Lock()
			delay += time.Duration(n.rng.Int63n(int64(span)))
			n.rngMu.Unlock()
		}
	}
	if delay > 0 {
		n.wg.Add(1)
	}
	return dst, delay, nil
}

// send routes a datagram, applying the filter and the latency.
func (n *MemNetwork) send(from *MemEndpoint, to string, data []byte) error {
	dst, delay, err := n.route(from, to)
	if dst == nil {
		return err
	}
	// Copy: the caller may reuse its buffer after Send returns. Gossip-sized
	// datagrams ride the pooled send buffers, which the receiver's
	// Packet.Release recycles; larger ones get an exact heap copy rather
	// than pinning a MaxDatagram buffer per queued packet.
	p := Packet{From: from.addr}
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
		n.deliver(dst, p)
		return nil
	}
	time.AfterFunc(delay, func() {
		defer n.wg.Done()
		n.deliver(dst, p)
	})
	return nil
}

// deliver hands p to dst, counting it or, when dst refuses it, releasing
// its buffer.
func (n *MemNetwork) deliver(dst *MemEndpoint, p Packet) {
	if dst.deliver(p) {
		n.delivered.Add(1)
	} else {
		p.Release()
	}
}

// MemEndpoint is one node's attachment to a MemNetwork. Until SetHandler
// is called, inbound datagrams queue in a buffered channel read through
// Recv. After it, each datagram is passed to the handler on the goroutine
// that delivers it — the sender's own for a zero-latency network, the
// latency timer's otherwise — with no queue, no channel and no goroutine
// of the endpoint's.
type MemEndpoint struct {
	inbox
	net *MemNetwork
}

var _ Endpoint = (*MemEndpoint)(nil)

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
	return e.net.send(e, to, data)
}

// Close detaches the endpoint: subsequent sends fail and the receive
// channel is closed. It waits out handler calls in flight, so after Close
// returns the handler is not invoked again. Safe to call more than once.
func (e *MemEndpoint) Close() error {
	if e.close() {
		e.net.mu.Lock()
		delete(e.net.endpoints, e.addr)
		e.net.mu.Unlock()
	}
	return nil
}

// Dropped reports QueueDrops as an int.
func (e *MemEndpoint) Dropped() int { return int(e.QueueDrops()) }

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
