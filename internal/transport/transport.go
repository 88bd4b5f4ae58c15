// Package transport provides the point-to-point messaging substrate of
// the live aggregation runtime, matching the paper's system model (§2):
// unreliable, unordered datagram delivery with unpredictable delays.
//
// Two implementations are provided: an in-memory network with
// configurable latency (for tests, simulation of deployments and the
// fleets a serving daemon hosts), and for real networks a UDP mux
// (UDPMux), whose endpoints share a few batched sockets — thousands per
// worker process, or one for a single node. Both deliver to handlers
// (HandlerEndpoint), and both lose datagrams through one UDPFilter:
// partitions, loss and custom drop rules are scripted once for either
// wire.
package transport

import (
	"errors"
	"sync"
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

// Endpoint is one node's attachment to a network. Implementations must be
// safe for concurrent use.
type Endpoint interface {
	// Addr returns this endpoint's address, usable as a Send target by
	// peers.
	Addr() string
	// Send transmits a datagram. Delivery is best-effort: an error means
	// the datagram was certainly not sent; no error means it may arrive.
	Send(to string, data []byte) error
	// Recv returns the inbound datagram channel. It is closed when the
	// endpoint is closed.
	Recv() <-chan Packet
	// Close releases the endpoint. Safe to call more than once.
	Close() error
}

// HandlerEndpoint is implemented by endpoints that can deliver inbound
// packets by calling a handler on a goroutine the transport already has
// instead of through the Recv channel: the shared reader goroutines of a
// UDPMux; for a MemEndpoint the goroutine that sent the datagram (zero
// latency — the handler runs nested inside the sender's Send) or the
// latency timer's. Once a handler is set the Recv channel stays silent;
// anything buffered there before the handler existed is drained into it.
// The handler must be safe for concurrent calls, must not hold, while it
// sends, a lock that a handler delivering to it would take, and should
// Release the packet when done. Close waits out handler calls in flight:
// after it returns the handler is not called again.
type HandlerEndpoint interface {
	Endpoint
	SetHandler(fn func(Packet))
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
