// Package transport provides the point-to-point messaging substrate of
// the live aggregation runtime, matching the paper's system model (§2):
// unreliable, unordered datagram delivery with unpredictable delays.
//
// Two implementations are provided: an in-memory network with
// configurable latency (for tests, simulation of deployments and the
// fleets a serving daemon hosts), and for real networks a UDP mux
// (UDPMux), whose endpoints share a few batched sockets — a scenario
// fleet's thousands, or one for a single node. Both share one receive side
// (Endpoint's Recv, SetHandler and Close): the same buffering until a
// handler is set, the same drop counters and the same close barrier. Both
// lose datagrams through one UDPFilter: partitions, loss and custom drop
// rules are scripted once for either wire.
//
// The close barrier is a closed flag and an in-flight count, not a lock:
// a delivery to a closing endpoint returns at once, so endpoints whose
// handlers are nested in each other's inline sends close concurrently
// without wedging (internal/agent's TestMemFleetConcurrentStop).
package transport

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Packet is one received datagram.
type Packet struct {
	// From is the sender's address.
	From string
	// Data is the raw datagram content. It may alias a pooled receive
	// buffer: the consumer owns it until Release.
	Data []byte

	// buf is the pooled backing buffer, nil for packets whose Data was
	// heap-allocated (oversize in-memory datagrams, hand-built test
	// packets).
	buf *[]byte
}

// Release returns the packet's backing buffer to the receive pool.
// Optional: an unreleased buffer is simply collected by the GC, but the
// steady-state receive path stays allocation-free only when consumers
// release. Call at most once, and never touch Data afterwards.
func (p *Packet) Release() {
	if p.buf != nil {
		putBuf(p.buf)
		p.buf = nil
		p.Data = nil
	}
}

// bufPool recycles MaxDatagram-sized receive buffers across all
// endpoints and muxes of the process: one Get per datagram in flight,
// zero allocations in the steady state.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, MaxDatagram)
	return &b
}}

// sendBufSize is the small size class backing coalesced sends: gossip
// frames are a few hundred bytes, and thousands of them can sit in the
// outbound queues at once — parking MaxDatagram buffers there would
// balloon the heap and defeat the pools through GC churn.
const sendBufSize = 2048

var sendPool = sync.Pool{New: func() any {
	b := make([]byte, sendBufSize)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// getSendBuf returns a pooled buffer with capacity for n bytes, from
// the small class when the payload fits.
func getSendBuf(n int) *[]byte {
	if n <= sendBufSize {
		return sendPool.Get().(*[]byte)
	}
	return getBuf()
}

// putBuf returns a pooled buffer to its size class.
func putBuf(b *[]byte) {
	if cap(*b) >= MaxDatagram {
		bufPool.Put(b)
	} else {
		sendPool.Put(b)
	}
}

// Endpoint is one node's attachment to a network. Every implementation
// shares one receive side (see SetHandler and Close) and must be safe for
// concurrent use.
type Endpoint interface {
	// Addr returns this endpoint's address, usable as a Send target by
	// peers.
	Addr() string
	// Send transmits a datagram. Delivery is best-effort: an error means
	// the datagram was certainly not sent; no error means it may arrive.
	Send(to string, data []byte) error
	// Recv returns the inbound datagram channel, which buffers datagrams
	// until a handler is set and stays silent after. It is closed when
	// the endpoint is closed.
	Recv() <-chan Packet
	// SetHandler delivers inbound packets by calling fn on a goroutine the
	// transport already has: a UDPMux's shared readers; for a MemEndpoint
	// the goroutine that sent the datagram (zero latency — the handler
	// runs nested inside the sender's Send) or the latency timer's.
	// Anything buffered on Recv before is drained into fn. fn must be
	// safe for concurrent calls, must not close its own endpoint nor
	// hold, while it sends, a lock that a handler delivering to it would
	// take, and should Release the packet when done.
	SetHandler(fn func(Packet))
	// Close releases the endpoint. It waits out handler calls in flight,
	// so after it returns the handler is not called again; a handler's
	// Send never waits for a Close, so a handler sending while its
	// endpoint closes cannot wedge. Safe to call more than once.
	Close() error
}

// HandlerEndpoint is Endpoint under its older name: every endpoint
// delivers to handlers.
type HandlerEndpoint = Endpoint

// inbox is the receive side every endpoint embeds: the address, the Recv
// buffer, the handler and the Close barrier, and the drop counters. A
// network adds Send and Close and hands inbound packets to deliver.
type inbox struct {
	addr     string
	queueLen int
	// depth is the network-wide high watermark of inbound buffers.
	depth *atomic.Int64

	closed  atomic.Bool
	handler atomic.Pointer[func(Packet)]
	// inflight counts handler calls in progress. A delivery counts itself
	// before it checks closed and close sets closed before it reads the
	// count, so either the delivery backs out or close waits for it.
	inflight atomic.Int64

	// mu guards in, allocated on first use: QueueLen packets are 48 KiB
	// at the default, and a handler-mode endpoint never reads them. A
	// buffering delivery holds mu, and SetHandler takes it to install the
	// handler, so nothing is queued behind the drain. idle, on mu, wakes
	// a close waiting for inflight to reach zero.
	mu   sync.Mutex
	idle sync.Cond
	in   chan Packet

	// queueDrops counts datagrams lost at a full queue; filterDrops
	// counts datagrams the network's drop-rule filter consumed.
	queueDrops  atomic.Int64
	filterDrops atomic.Int64
}

func (b *inbox) init(addr string, queueLen int, depth *atomic.Int64) {
	b.addr, b.queueLen, b.depth = addr, queueLen, depth
	b.idle.L = &b.mu
}

// Addr returns the endpoint's address.
func (b *inbox) Addr() string { return b.addr }

// QueueDrops reports datagrams the endpoint lost at a full queue: its
// Recv buffer, and on a mux the shared outbound queue.
func (b *inbox) QueueDrops() int64 { return b.queueDrops.Load() }

// FilterDrops reports datagrams the network's drop-rule filter consumed
// for this endpoint.
func (b *inbox) FilterDrops() int64 { return b.filterDrops.Load() }

// Recv returns the inbound channel; silent once a handler is set, closed
// when the endpoint closes.
func (b *inbox) Recv() <-chan Packet {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queueLocked()
}

func (b *inbox) queueLocked() chan Packet {
	if b.in == nil {
		b.in = make(chan Packet, b.queueLen)
		if b.closed.Load() {
			close(b.in)
		}
	}
	return b.in
}

// SetHandler switches the endpoint to handler delivery and drains
// anything already buffered on the Recv channel through the handler.
func (b *inbox) SetHandler(fn func(Packet)) {
	b.mu.Lock()
	b.handler.Store(&fn)
	in := b.in
	b.mu.Unlock()
	if in == nil {
		return
	}
	for {
		select {
		case p, ok := <-in:
			if !ok {
				return
			}
			if !b.call(fn, p) {
				p.Release()
			}
		default:
			return
		}
	}
}

// deliver hands p to the handler, or buffers it for Recv while there is
// none, and reports whether it took p. A packet it refuses — the endpoint
// is closed or the buffer full — stays the caller's.
func (b *inbox) deliver(p Packet) bool {
	h := b.handler.Load()
	if h == nil {
		b.mu.Lock()
		if h = b.handler.Load(); h == nil {
			// SetHandler cannot install a handler while mu is held, so
			// nothing is queued behind its drain.
			ok := b.enqueueLocked(p)
			b.mu.Unlock()
			return ok
		}
		b.mu.Unlock()
	}
	return b.call(*h, p)
}

func (b *inbox) enqueueLocked(p Packet) bool {
	if b.closed.Load() {
		return false
	}
	in := b.queueLocked()
	select {
	case in <- p:
		maxInt64(b.depth, int64(len(in)))
		return true
	default:
		b.queueDrops.Add(1)
		return false
	}
}

// call runs one handler invocation under the close barrier.
func (b *inbox) call(fn func(Packet), p Packet) bool {
	b.inflight.Add(1)
	ok := !b.closed.Load()
	if ok {
		fn(p)
	}
	if b.inflight.Add(-1) == 0 && b.closed.Load() {
		b.mu.Lock()
		b.idle.Broadcast()
		b.mu.Unlock()
	}
	return ok
}

// close marks the endpoint closed, closes the Recv channel and waits out
// handler calls in flight. It reports whether this call closed it.
func (b *inbox) close() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed.Load() {
		return false
	}
	b.closed.Store(true)
	if b.in != nil {
		close(b.in)
	}
	for b.inflight.Load() != 0 {
		b.idle.Wait()
	}
	return true
}

// Errors shared by implementations.
var (
	// ErrClosed is returned by Send after Close.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnknownPeer is returned by the in-memory network when the
	// destination was never registered.
	ErrUnknownPeer = errors.New("transport: unknown peer")
	// ErrTooLarge is returned when a datagram exceeds the maximum size.
	ErrTooLarge = errors.New("transport: datagram too large")
)

// MaxDatagram is the largest accepted datagram; generous for our wire
// format yet within a safe UDP payload size after fragmentation.
const MaxDatagram = 60000
