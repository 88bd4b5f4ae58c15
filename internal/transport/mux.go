package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"antientropy/internal/obs"
)

// UDPMux multiplexes many lightweight endpoints over a small fixed set
// of UDP sockets: one reader goroutine and one flusher goroutine per
// socket instead of one socket + goroutine per node. A scenario fleet
// of thousands of agent.Nodes shares the sockets, the receive
// buffers (pooled, no per-datagram copy) and one resolve/address cache.
//
// Every address is "host:port#id": the socket's address plus a per-mux
// endpoint id carried in a 10-byte frame header on every datagram (magic
// "MX", destination id, source id, all big-endian). A process with one
// node is a mux of one socket and one endpoint, "host:port#0".
//
// On linux/amd64 and linux/arm64 the sockets use recvmmsg/sendmmsg: a
// reader takes up to muxReadSlots datagrams per call and the flusher
// sends up to muxBatch; elsewhere a portable single-datagram fallback
// keeps identical semantics. Each reader parks one MaxDatagram buffer
// per slot, so a batched socket's receive memory is 8 × 60 000 B ≈
// 469 KiB, and a portable one's, one slot, 60 000 B.
type UDPMux struct {
	cfg   UDPMuxConfig
	socks []*muxSock
	done  chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	nextID uint32

	// eps routes inbound frames by destination id: read per-datagram,
	// written only on Endpoint/Close.
	eps sync.Map // uint32 -> *MuxEndpoint

	// filter, when set, applies scripted drop rules to every endpoint of
	// the mux; rules are keyed on the endpoints' "host:port#id" strings.
	filter atomic.Pointer[UDPFilter]

	// resolved caches Send-target resolution mux-wide; froms interns
	// Packet.From strings per (source socket, source id).
	resolved  sync.Map // string -> muxDst
	resolvedN atomic.Int64
	froms     sync.Map // fromKey -> string
	fromsN    atomic.Int64

	// queueDepth is the high watermark across the per-socket outbound
	// queues and the per-endpoint inbound buffers; unrouted counts
	// inbound datagrams with no parseable frame or no live endpoint.
	queueDepth atomic.Int64
	unrouted   atomic.Int64

	// batchSizes records datagrams moved per ReadBatch/WriteBatch call:
	// mass near 1 means the batching machinery is overhead, mass in the
	// high buckets means syscalls are being amortized. Reads top out at
	// muxReadSlots, so the buckets above it count send batches only.
	batchSizes *obs.Histogram
}

// UDPMuxConfig tunes a UDPMux. The zero value is usable: loopback
// sockets, CPU-scaled socket count.
type UDPMuxConfig struct {
	// Listen is the bind address for every socket ("host:port"; the
	// default "127.0.0.1:0" picks free ports).
	Listen string
	// Sockets is the number of sockets (and reader/flusher goroutine
	// pairs). Default min(GOMAXPROCS, 4), or 1 when Listen names a fixed
	// port: without SO_REUSEPORT one port binds one socket, so more than
	// one on a fixed port is an error.
	Sockets int
	// QueueLen sizes each endpoint's inbound buffer (channel mode only;
	// handler-mode endpoints bypass it). Default 1024.
	QueueLen int
	// ReadBuffer, when positive, sets SO_RCVBUF on each socket. Shared
	// sockets carry the traffic of a whole fleet, so the kernel
	// default is usually too small; 1 MiB is a reasonable floor.
	ReadBuffer int
}

func (c *UDPMuxConfig) withDefaults() error {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	_, port, err := net.SplitHostPort(c.Listen)
	fixed := err == nil && port != "0" && port != ""
	switch {
	case c.Sockets > 1 && fixed:
		return fmt.Errorf("transport: %d sockets on %q: a fixed port binds one socket; listen on port 0 for more", c.Sockets, c.Listen)
	case c.Sockets <= 0 && fixed:
		c.Sockets = 1
	case c.Sockets <= 0:
		c.Sockets = min(runtime.GOMAXPROCS(0), 4)
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	return nil
}

const (
	// muxBatch is the flush coalescing limit: the most queued datagrams
	// one sendmmsg moves. Send buffers are the 2 KiB class, so a wide
	// batch holds little.
	muxBatch = 64
	// muxReadSlots is the number of datagrams one recvmmsg can fill. Each
	// slot parks a MaxDatagram buffer for the life of the socket, and
	// agent traffic moves a mean of 3.5 datagrams per read (99.9 % of
	// datagrams arrive in reads of at most 22), so a wider reader holds
	// memory without saving measurable CPU: the kernel's per-datagram
	// work, not the call count, dominates.
	muxReadSlots = 8
	// muxOutQueueLen sizes each socket's outbound queue.
	muxOutQueueLen = 4096
)

// muxHeaderLen is the frame header: 2 magic bytes + dst id + src id.
const muxHeaderLen = 10

// BatchSizeBuckets are the histogram bounds for datagrams-per-syscall;
// the top bucket covers muxBatch.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// muxSock is one shared socket with its outbound queue.
type muxSock struct {
	conn *net.UDPConn
	bc   batchConn
	addr string
	out  chan outMsg
}

// outMsg is one queued outbound datagram; buf is pooled and holds the
// header and payload in (*buf)[:n].
type outMsg struct {
	buf  *[]byte
	n    int
	addr netip.AddrPort
}

// muxDst is a resolved Send target.
type muxDst struct {
	ap netip.AddrPort
	id uint32
}

// fromKey identifies a remote mux endpoint for From-string interning.
type fromKey struct {
	ap netip.AddrPort
	id uint32
}

// ioMsg is one datagram slot for the batched socket backends. For reads
// Buf is the capacity buffer and N/Addr are filled in; for writes Buf is
// the exact payload and Addr the destination.
type ioMsg struct {
	Buf  []byte
	N    int
	Addr netip.AddrPort
}

// batchConn moves datagrams in batches. ReadBatch blocks until at least
// one datagram arrived and returns how many slots it filled; WriteBatch
// sends a prefix of ms and returns how many it consumed. readSlots is the
// most slots one ReadBatch fills, which sizes the socket's reader.
type batchConn interface {
	ReadBatch(ms []ioMsg) (int, error)
	WriteBatch(ms []ioMsg) (int, error)
	readSlots() int
}

// NewUDPMux opens the shared sockets and starts the reader/flusher
// goroutine pairs.
func NewUDPMux(cfg UDPMuxConfig) (*UDPMux, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	m := &UDPMux{
		cfg:        cfg,
		done:       make(chan struct{}),
		batchSizes: obs.NewHistogram(BatchSizeBuckets),
	}
	for i := 0; i < cfg.Sockets; i++ {
		laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("transport: resolving %q: %w", cfg.Listen, err)
		}
		conn, err := net.ListenUDP("udp", laddr)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("transport: listening on %q: %w", cfg.Listen, err)
		}
		if cfg.ReadBuffer > 0 {
			// Best-effort: a small SO_RCVBUF shows up as QueueDrops-like
			// kernel drops, not an error.
			_ = conn.SetReadBuffer(cfg.ReadBuffer)
		}
		s := &muxSock{
			conn: conn,
			bc:   newBatchConn(conn),
			addr: addrPortString(conn.LocalAddr().(*net.UDPAddr).AddrPort()),
			out:  make(chan outMsg, muxOutQueueLen),
		}
		m.socks = append(m.socks, s)
	}
	m.wg.Add(2 * len(m.socks))
	for _, s := range m.socks {
		go m.readLoop(s)
		go m.flushLoop(s)
	}
	return m, nil
}

// Addr returns the first socket's address. Individual endpoints have
// their own "host:port#id" addresses.
func (m *UDPMux) Addr() string { return m.socks[0].addr }

// SetFilter installs (or, with nil, removes) the drop-rule filter shared
// by every endpoint of the mux.
func (m *UDPMux) SetFilter(f *UDPFilter) { m.filter.Store(f) }

// QueueDepthHighWatermark reports the deepest any outbound socket queue
// or inbound endpoint buffer has been: congestion becomes visible here
// before it becomes drops.
func (m *UDPMux) QueueDepthHighWatermark() int64 { return m.queueDepth.Load() }

// Unrouted reports inbound datagrams dropped for want of a frame header
// or a live destination endpoint (stale traffic for closed nodes).
func (m *UDPMux) Unrouted() int64 { return m.unrouted.Load() }

// BatchSizes snapshots the datagrams-per-syscall histogram.
func (m *UDPMux) BatchSizes() obs.HistSnapshot { return m.batchSizes.Snapshot() }

// Endpoint attaches a new endpoint to the mux. Ids are never reused, so
// late datagrams for a closed endpoint are dropped rather than
// misdelivered to a successor.
func (m *UDPMux) Endpoint() (*MuxEndpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	id := m.nextID
	m.nextID++
	s := m.socks[int(id)%len(m.socks)]
	ep := &MuxEndpoint{mux: m, id: id, sock: s}
	ep.init(s.addr+"#"+strconv.FormatUint(uint64(id), 10), m.cfg.QueueLen, &m.queueDepth)
	m.eps.Store(id, ep)
	return ep, nil
}

// Close closes every endpoint, then the sockets, and waits for the
// reader and flusher goroutines. Safe to call more than once.
func (m *UDPMux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.eps.Range(func(_, v any) bool {
		v.(*MuxEndpoint).Close()
		return true
	})
	close(m.done)
	var err error
	for _, s := range m.socks {
		if e := s.conn.Close(); e != nil && err == nil {
			err = e
		}
	}
	m.wg.Wait()
	return err
}

func (m *UDPMux) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// readLoop owns one socket's inbound side: batch-read, parse, route.
func (m *UDPMux) readLoop(s *muxSock) {
	defer m.wg.Done()
	ms := make([]ioMsg, s.bc.readSlots())
	bufs := make([]*[]byte, len(ms))
	for i := range ms {
		bufs[i] = getBuf()
		ms[i].Buf = *bufs[i]
	}
	release := func() {
		for _, b := range bufs {
			putBuf(b)
		}
	}
	for {
		n, err := s.bc.ReadBatch(ms)
		if err != nil {
			if errors.Is(err, net.ErrClosed) || m.isClosed() {
				release()
				return
			}
			// Transient read errors (an ICMP unreachable surfacing) are loss.
			continue
		}
		m.batchSizes.Observe(float64(n))
		for i := 0; i < n; i++ {
			if m.dispatch(ms[i].Buf[:ms[i].N], ms[i].Addr, bufs[i]) {
				// Buffer ownership moved to the consumer; restock the slot.
				bufs[i] = getBuf()
				ms[i].Buf = *bufs[i]
			}
		}
	}
}

// dispatch routes one inbound datagram and reports whether buffer
// ownership transferred to the destination endpoint.
func (m *UDPMux) dispatch(data []byte, src netip.AddrPort, buf *[]byte) bool {
	if len(data) < muxHeaderLen || data[0] != 'M' || data[1] != 'X' {
		m.unrouted.Add(1)
		return false
	}
	dstID := binary.BigEndian.Uint32(data[2:6])
	srcID := binary.BigEndian.Uint32(data[6:10])
	v, ok := m.eps.Load(dstID)
	if !ok {
		m.unrouted.Add(1)
		return false
	}
	ep := v.(*MuxEndpoint)
	from := m.fromString(src, srcID)
	if f := m.filter.Load(); f != nil && f.DropInbound(ep.addr, from) {
		ep.filterDrops.Add(1)
		return false
	}
	return ep.deliver(Packet{From: from, Data: data[muxHeaderLen:], buf: buf})
}

// flushLoop owns one socket's outbound side: block for the first queued
// datagram, coalesce whatever else is ready up to muxBatch, write.
func (m *UDPMux) flushLoop(s *muxSock) {
	defer m.wg.Done()
	ms := make([]ioMsg, 0, muxBatch)
	bufs := make([]*[]byte, 0, muxBatch)
	for {
		var first outMsg
		select {
		case first = <-s.out:
		case <-m.done:
			return
		}
		ms = append(ms[:0], ioMsg{Buf: (*first.buf)[:first.n], Addr: first.addr})
		bufs = append(bufs[:0], first.buf)
		for len(ms) < muxBatch {
			var om outMsg
			select {
			case om = <-s.out:
			default:
				om.buf = nil
			}
			if om.buf == nil {
				break
			}
			ms = append(ms, ioMsg{Buf: (*om.buf)[:om.n], Addr: om.addr})
			bufs = append(bufs, om.buf)
		}
		m.batchSizes.Observe(float64(len(ms)))
		closed := false
		for off := 0; off < len(ms); {
			n, err := s.bc.WriteBatch(ms[off:])
			off += n
			if err != nil {
				if errors.Is(err, net.ErrClosed) {
					closed = true
				} else if n == 0 {
					// Transient error with no progress: treat the head
					// datagram as lost so the flusher cannot spin.
					off++
				}
				if closed {
					break
				}
			}
		}
		for _, b := range bufs {
			putBuf(b)
		}
		if closed {
			return
		}
	}
}

// fromString interns the "host:port#id" From string for a remote mux
// endpoint, so receiving from a known peer does not allocate.
func (m *UDPMux) fromString(src netip.AddrPort, id uint32) string {
	k := fromKey{ap: src, id: id}
	if v, ok := m.froms.Load(k); ok {
		return v.(string)
	}
	s := addrPortString(src) + "#" + strconv.FormatUint(uint64(id), 10)
	if m.fromsN.Load() < 65536 {
		if _, loaded := m.froms.LoadOrStore(k, s); !loaded {
			m.fromsN.Add(1)
		}
	}
	return s
}

// resolve turns a "host:port#id" Send target into a wire destination,
// caching mux-wide.
func (m *UDPMux) resolve(to string) (muxDst, error) {
	if v, ok := m.resolved.Load(to); ok {
		return v.(muxDst), nil
	}
	i := strings.LastIndexByte(to, '#')
	if i < 0 {
		return muxDst{}, fmt.Errorf("transport: mux address %q has no #id", to)
	}
	id, err := strconv.ParseUint(to[i+1:], 10, 32)
	if err != nil {
		return muxDst{}, fmt.Errorf("transport: bad mux address %q: %w", to, err)
	}
	ap, err := resolveAddrPort(to[:i])
	if err != nil {
		return muxDst{}, err
	}
	d := muxDst{ap: ap, id: uint32(id)}
	// Bound the cache so a hostile peer list cannot grow it without
	// limit.
	if m.resolvedN.Load() < 65536 {
		if _, loaded := m.resolved.LoadOrStore(to, d); !loaded {
			m.resolvedN.Add(1)
		}
	}
	return d, nil
}

// resolveAddrPort turns a "host:port" peer string into a sendable
// netip.AddrPort, going through the resolver only for non-literal hosts.
func resolveAddrPort(to string) (netip.AddrPort, error) {
	if ap, err := netip.ParseAddrPort(to); err == nil {
		return unmapAddrPort(ap), nil
	}
	a, err := net.ResolveUDPAddr("udp", to)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("transport: resolving peer %q: %w", to, err)
	}
	return unmapAddrPort(a.AddrPort()), nil
}

// unmapAddrPort strips an IPv4-mapped IPv6 wrapper so equal peers
// compare equal as map keys regardless of which API produced them.
func unmapAddrPort(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// addrPortString renders an AddrPort the way net.UDPAddr.String renders
// the same peer, with IPv4-mapped IPv6 addresses unmapped first — Send
// targets and Packet.From values must agree for filter rules keyed on
// address strings.
func addrPortString(ap netip.AddrPort) string {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()).String()
}

// maxInt64 raises *w to at least v (atomic high-watermark update).
func maxInt64(w *atomic.Int64, v int64) {
	for {
		cur := w.Load()
		if v <= cur || w.CompareAndSwap(cur, v) {
			return
		}
	}
}

// MuxEndpoint is one node's attachment to a UDPMux. With SetHandler,
// inbound packets are delivered on the mux's shared reader goroutines,
// with no receive goroutine or channel hop of the endpoint's.
type MuxEndpoint struct {
	inbox
	mux  *UDPMux
	id   uint32
	sock *muxSock
}

var _ Endpoint = (*MuxEndpoint)(nil)

// Send frames one datagram for a "host:port#id" target and queues it. A
// full outbound queue behaves as loss (counted in QueueDrops), matching
// the transport's delivery contract.
func (ep *MuxEndpoint) Send(to string, data []byte) error {
	m := ep.mux
	if ep.closed.Load() {
		return ErrClosed
	}
	if f := m.filter.Load(); f != nil && f.DropOutbound(ep.addr, to) {
		ep.filterDrops.Add(1)
		return nil
	}
	dst, err := m.resolve(to)
	if err != nil {
		return err
	}
	if len(data) > MaxDatagram-muxHeaderLen {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data))
	}
	buf := getSendBuf(len(data) + muxHeaderLen)
	b := append((*buf)[:0], 'M', 'X')
	b = binary.BigEndian.AppendUint32(b, dst.id)
	b = binary.BigEndian.AppendUint32(b, ep.id)
	b = append(b, data...)
	select {
	case ep.sock.out <- outMsg{buf: buf, n: len(b), addr: dst.ap}:
		maxInt64(&m.queueDepth, int64(len(ep.sock.out)))
	default:
		ep.queueDrops.Add(1)
		putBuf(buf)
	}
	return nil
}

// Close detaches the endpoint from the mux. It waits out in-flight
// handler calls, so after Close returns the handler will not be invoked
// again. Safe to call more than once.
func (ep *MuxEndpoint) Close() error {
	if ep.close() {
		ep.mux.eps.Delete(ep.id)
	}
	return nil
}
