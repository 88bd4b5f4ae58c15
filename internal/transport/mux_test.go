package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"antientropy/internal/race"
)

func newTestMux(t *testing.T, cfg UDPMuxConfig) *UDPMux {
	t.Helper()
	m, err := NewUDPMux(cfg)
	if err != nil {
		t.Fatalf("NewUDPMux: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func muxEndpoint(t *testing.T, m *UDPMux) *MuxEndpoint {
	t.Helper()
	ep, err := m.Endpoint()
	if err != nil {
		t.Fatalf("mux.Endpoint: %v", err)
	}
	return ep
}

func muxRecvOne(t *testing.T, e Endpoint) Packet {
	t.Helper()
	select {
	case p, ok := <-e.Recv():
		if !ok {
			t.Fatalf("recv channel closed while waiting for a packet")
		}
		return p
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for a packet on %s", e.Addr())
	}
	panic("unreachable")
}

func TestMuxRoundTrip(t *testing.T) {
	m := newTestMux(t, UDPMuxConfig{Sockets: 2})
	a, b := muxEndpoint(t, m), muxEndpoint(t, m)

	if err := a.Send(b.Addr(), []byte("ping")); err != nil {
		t.Fatalf("send a->b: %v", err)
	}
	p := muxRecvOne(t, b)
	if string(p.Data) != "ping" {
		t.Fatalf("payload = %q, want %q", p.Data, "ping")
	}
	// From must equal the sender's advertised address so replies and
	// filter rules route symmetrically.
	if p.From != a.Addr() {
		t.Fatalf("From = %q, want sender addr %q", p.From, a.Addr())
	}
	if err := b.Send(p.From, []byte("pong")); err != nil {
		t.Fatalf("send b->a: %v", err)
	}
	q := muxRecvOne(t, a)
	if string(q.Data) != "pong" || q.From != b.Addr() {
		t.Fatalf("reply = %q from %q, want %q from %q", q.Data, q.From, "pong", b.Addr())
	}
	p.Release()
	q.Release()
}

func TestMuxDistinctAddresses(t *testing.T) {
	m := newTestMux(t, UDPMuxConfig{Sockets: 1})
	seen := make(map[string]bool)
	for i := 0; i < 8; i++ {
		ep := muxEndpoint(t, m)
		if seen[ep.Addr()] {
			t.Fatalf("duplicate endpoint address %q", ep.Addr())
		}
		seen[ep.Addr()] = true
	}
}

func TestMuxHandlerMode(t *testing.T) {
	m := newTestMux(t, UDPMuxConfig{Sockets: 1})
	a, b := muxEndpoint(t, m), muxEndpoint(t, m)

	// Datagrams arriving before SetHandler buffer on the channel and
	// must be drained into the handler, not lost.
	if err := a.Send(b.Addr(), []byte("early")); err != nil {
		t.Fatalf("send: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for len(b.Recv()) == 0 {
		select {
		case <-deadline:
			t.Fatalf("early datagram never buffered")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	got := make(chan string, 16)
	b.SetHandler(func(p Packet) {
		got <- string(p.Data)
		p.Release()
	})
	if err := a.Send(b.Addr(), []byte("late")); err != nil {
		t.Fatalf("send: %v", err)
	}
	want := map[string]bool{"early": true, "late": true}
	for i := 0; i < 2; i++ {
		select {
		case s := <-got:
			if !want[s] {
				t.Fatalf("unexpected payload %q", s)
			}
			delete(want, s)
		case <-time.After(5 * time.Second):
			t.Fatalf("missing handler deliveries, still waiting for %v", want)
		}
	}
}

// TestMuxCloseDuringHandlerSend pins the Close/deliver/Send ordering
// that used to wedge: a handler (holding the delivery read lock) sends
// while a Close is already queued for the write lock. Send must not
// re-enter the lock, and once Close returns the handler is not invoked
// again.
func TestMuxCloseDuringHandlerSend(t *testing.T) {
	m := newTestMux(t, UDPMuxConfig{Sockets: 1})
	a, b := muxEndpoint(t, m), muxEndpoint(t, m)

	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	sent := make(chan error, 16)
	var closeReturned atomic.Bool
	b.SetHandler(func(p Packet) {
		if closeReturned.Load() {
			t.Error("handler invoked after Close returned")
		}
		entered <- struct{}{}
		<-release
		sent <- b.Send(a.Addr(), []byte("reply"))
		p.Release()
	})
	if err := a.Send(b.Addr(), []byte("request")); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never invoked")
	}
	closed := make(chan struct{})
	go func() {
		_ = b.Close()
		closeReturned.Store(true)
		close(closed)
	}()
	// Nothing observable says "Close is now waiting for the lock"; the
	// pause only makes the old deadlock certain instead of likely.
	time.Sleep(50 * time.Millisecond)
	close(release)
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("Send inside the handler deadlocked against Close")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	// Late traffic for the closed endpoint must not reach the handler.
	if err := a.Send(b.Addr(), []byte("late")); err != nil {
		t.Fatalf("send: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
}

func TestMuxEndpointClose(t *testing.T) {
	m := newTestMux(t, UDPMuxConfig{Sockets: 1})
	a, b := muxEndpoint(t, m), muxEndpoint(t, m)

	if err := b.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, ok := <-b.Recv(); ok {
		t.Fatalf("recv channel still open after Close")
	}
	if err := b.Send(a.Addr(), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on closed endpoint = %v, want ErrClosed", err)
	}
	// Traffic for the closed id is dropped, not misdelivered; the next
	// endpoint gets a fresh id.
	if err := a.Send(b.Addr(), []byte("stale")); err != nil {
		t.Fatalf("send to closed endpoint: %v", err)
	}
	c := muxEndpoint(t, m)
	if c.Addr() == b.Addr() {
		t.Fatalf("endpoint id reused: %q", c.Addr())
	}
	deadline := time.After(5 * time.Second)
	for m.Unrouted() == 0 {
		select {
		case <-deadline:
			t.Fatalf("datagram for closed endpoint not counted as unrouted")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func TestMuxCloseAll(t *testing.T) {
	m, err := NewUDPMux(UDPMuxConfig{Sockets: 2})
	if err != nil {
		t.Fatalf("NewUDPMux: %v", err)
	}
	ep, err := m.Endpoint()
	if err != nil {
		t.Fatalf("endpoint: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := ep.Send("127.0.0.1:9", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after mux close = %v, want ErrClosed", err)
	}
	if _, err := m.Endpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Endpoint after close = %v, want ErrClosed", err)
	}
}

func TestMuxTooLarge(t *testing.T) {
	m := newTestMux(t, UDPMuxConfig{Sockets: 1})
	a, b := muxEndpoint(t, m), muxEndpoint(t, m)
	// Framed sends lose muxHeaderLen bytes of payload budget.
	big := make([]byte, MaxDatagram-muxHeaderLen+1)
	if err := a.Send(b.Addr(), big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("framed oversized send = %v, want ErrTooLarge", err)
	}
	if err := a.Send(b.Addr(), big[:MaxDatagram-muxHeaderLen]); err != nil {
		t.Fatalf("framed max-size send: %v", err)
	}
}

// TestMuxFullSizeDatagramsSurvive: a reader of muxReadSlots slots still
// takes every legal datagram whole. Windows of muxReadSlots + 4
// datagrams, two of them MaxDatagram-sized, reach a handler
// byte-identical; 40 small ones go through, five readers' worth. Each
// window stays inside a default 212 992-byte socket buffer, so loopback
// loses nothing.
func TestMuxFullSizeDatagramsSurvive(t *testing.T) {
	const windows, perWindow = 4, muxReadSlots + 4
	m := newTestMux(t, UDPMuxConfig{Sockets: 1, ReadBuffer: 1 << 20})
	a, b := muxEndpoint(t, m), muxEndpoint(t, m)
	got := make(chan []byte, perWindow)
	b.SetHandler(func(p Packet) {
		got <- bytes.Clone(p.Data)
		p.Release()
	})
	payload := func(i int) []byte {
		n := 16 + i
		if i%(perWindow/2) == perWindow/2-1 {
			n = MaxDatagram - muxHeaderLen
		}
		d := make([]byte, n)
		binary.BigEndian.PutUint32(d, uint32(i))
		for j := 4; j < n; j++ {
			d[j] = byte(i*31 + j)
		}
		return d
	}
	seen := make(map[int]bool)
	for w := 0; w < windows; w++ {
		for i := w * perWindow; i < (w+1)*perWindow; i++ {
			if err := a.Send(b.Addr(), payload(i)); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		for k := 0; k < perWindow; k++ {
			var d []byte
			select {
			case d = <-got:
			case <-time.After(5 * time.Second):
				t.Fatalf("window %d: %d of %d datagrams arrived", w, k, perWindow)
			}
			if len(d) < 4 {
				t.Fatalf("a %d-byte datagram arrived", len(d))
			}
			i := int(binary.BigEndian.Uint32(d))
			if i < w*perWindow || i >= (w+1)*perWindow || seen[i] {
				t.Fatalf("window %d: unexpected or repeated datagram %d", w, i)
			}
			seen[i] = true
			if want := payload(i); !bytes.Equal(d, want) {
				t.Fatalf("datagram %d: %d bytes arrived, %d sent, or the bytes differ", i, len(d), len(want))
			}
		}
	}
}

// TestMuxFilterPartition: a group split drops cross-group datagrams,
// counted on the sender, and lets same-group ones through — on the mux
// and, through the same filter, on the in-memory network.
func TestMuxFilterPartition(t *testing.T) {
	w := newFilterWires(t)
	w.replay(t, []filterStep{
		{func() { w.f.PartitionGroups(w.addrs(map[string]int{"a": 0, "b": 1, "c": 0})) }, "a>b a>c", "x."},
	})
}

// TestMuxPlainSendToLegacyEndpoint: every mux address is "host:port#id";
// a bare "host:port" target is an error, not an unframed datagram.
func TestMuxPlainSendToLegacyEndpoint(t *testing.T) {
	m := newTestMux(t, UDPMuxConfig{Sockets: 1})
	a := muxEndpoint(t, m)
	if err := a.Send(m.Addr(), []byte("raw")); err == nil {
		t.Fatalf("a send to %q without #id succeeded", m.Addr())
	}
}

// TestMuxFixedPort: a mux on a fixed port opens one socket on it, whatever
// GOMAXPROCS says, and asking for more than one socket there is refused
// up front.
func TestMuxFixedPort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	probe := newTestMux(t, UDPMuxConfig{Sockets: 1})
	listen := probe.Addr()
	probe.Close() // the port is free again
	m := newTestMux(t, UDPMuxConfig{Listen: listen})
	if ep := muxEndpoint(t, m); len(m.socks) != 1 || ep.Addr() != listen+"#0" {
		t.Fatalf("%d sockets, first endpoint %s; want 1 socket and %s#0", len(m.socks), ep.Addr(), listen)
	}
	if _, err := NewUDPMux(UDPMuxConfig{Listen: "127.0.0.1:1", Sockets: 2}); err == nil || !strings.Contains(err.Error(), "fixed port binds one socket") {
		t.Fatalf("two sockets on a fixed port: %v", err)
	}
}

// TestMuxSharedReaderRace hammers one mux from many goroutines — mixed
// handler and channel endpoints, filter churn, mid-run endpoint closes —
// so the race job exercises the shared reader/flusher pool.
func TestMuxSharedReaderRace(t *testing.T) {
	m := newTestMux(t, UDPMuxConfig{Sockets: 2, QueueLen: 64})
	const nEps = 16
	eps := make([]*MuxEndpoint, nEps)
	var received atomic.Int64
	for i := range eps {
		eps[i] = muxEndpoint(t, m)
		if i%2 == 0 {
			eps[i].SetHandler(func(p Packet) {
				received.Add(1)
				p.Release()
			})
		}
	}
	// Channel endpoints need consumers or their buffers just fill up.
	var consumers sync.WaitGroup
	for i := 1; i < nEps; i += 2 {
		consumers.Add(1)
		go func(ep *MuxEndpoint) {
			defer consumers.Done()
			for p := range ep.Recv() {
				received.Add(1)
				p.Release()
			}
		}(eps[i])
	}

	var senders sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		senders.Add(1)
		go func(seed int64) {
			defer senders.Done()
			rng := rand.New(rand.NewSource(seed))
			payload := []byte("race-payload")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				dst := eps[rng.Intn(nEps)]
				src := eps[rng.Intn(nEps)]
				_ = src.Send(dst.Addr(), payload)
				if i%64 == 0 {
					// Yield so single-CPU runners schedule the shared
					// reader goroutines under the send storm.
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(int64(g))
	}
	// Filter churn while traffic flows.
	senders.Add(1)
	go func() {
		defer senders.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				f := NewUDPFilter(int64(i))
				f.SetLoss(0.1)
				m.SetFilter(f)
			} else {
				m.SetFilter(nil)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Wait for traffic to actually flow before injecting the closes, so
	// slow single-CPU runners still exercise delivery.
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Close a handler endpoint and a channel endpoint mid-traffic.
	eps[0].Close()
	eps[1].Close()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	senders.Wait()
	if err := m.Close(); err != nil {
		t.Fatalf("mux close: %v", err)
	}
	consumers.Wait()
	if received.Load() == 0 {
		t.Fatalf("no datagrams delivered during the race run")
	}
	if m.BatchSizes().Count == 0 {
		t.Fatalf("batch-size histogram never observed a batch")
	}
}

func TestMuxQueueDepthWatermark(t *testing.T) {
	m := newTestMux(t, UDPMuxConfig{Sockets: 1, QueueLen: 8})
	a, b := muxEndpoint(t, m), muxEndpoint(t, m)
	for i := 0; i < 4; i++ {
		if err := a.Send(b.Addr(), []byte("fill")); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	deadline := time.After(5 * time.Second)
	for m.QueueDepthHighWatermark() == 0 {
		select {
		case <-deadline:
			t.Fatalf("queue depth watermark never rose")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestUDPEndpointRecvAllocs guards the pooled receive path of an
// endpoint read through its channel: once caches are warm, a
// send+recv+release round must not allocate per datagram.
func TestUDPEndpointRecvAllocs(t *testing.T) {
	eps := udpEndpoints(t, 2, 0)
	a, b := eps[0], eps[1]

	payload := []byte("steady-state datagram")
	// Warm the resolve and From-string caches.
	for i := 0; i < 3; i++ {
		if err := a.Send(b.Addr(), payload); err != nil {
			t.Fatalf("send: %v", err)
		}
		p := muxRecvOne(t, b)
		p.Release()
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := a.Send(b.Addr(), payload); err != nil {
			t.Fatalf("send: %v", err)
		}
		p := <-b.Recv()
		p.Release()
	})
	// Zero in the steady state; tolerate a stray pool refill after a GC.
	if avg > 2 {
		t.Fatalf("send+recv+release allocates %.1f times per datagram, want ~0", avg)
	}
}

// BenchmarkUDPMuxRoundTrip measures one framed request/reply pair
// between two handler-mode endpoints sharing a mux.
func BenchmarkUDPMuxRoundTrip(b *testing.B) {
	m, err := NewUDPMux(UDPMuxConfig{Sockets: 2, ReadBuffer: 1 << 20})
	if err != nil {
		b.Fatalf("NewUDPMux: %v", err)
	}
	defer m.Close()
	cli, err := m.Endpoint()
	if err != nil {
		b.Fatalf("endpoint: %v", err)
	}
	srv, err := m.Endpoint()
	if err != nil {
		b.Fatalf("endpoint: %v", err)
	}
	srv.SetHandler(func(p Packet) {
		_ = srv.Send(p.From, p.Data)
		p.Release()
	})
	done := make(chan struct{}, 1)
	cli.SetHandler(func(p Packet) {
		p.Release()
		select {
		case done <- struct{}{}:
		default:
		}
	})
	payload := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Send(srv.Addr(), payload); err != nil {
			b.Fatalf("send: %v", err)
		}
		select {
		case <-done:
		case <-time.After(time.Second):
			// UDP: a lost datagram must not hang the benchmark.
			i--
		}
	}
}

// BenchmarkUDPWorkerCycle is the worker-slice gate: one "cycle" has
// every node of a worker-sized slice fire one request at a fixed peer and
// the peer answer, i.e. 2·nodes datagrams through a handful of shared
// sockets and reader goroutines.
func BenchmarkUDPWorkerCycle(b *testing.B) {
	const nodes = 3000
	m, err := NewUDPMux(UDPMuxConfig{ReadBuffer: 1 << 22})
	if err != nil {
		b.Fatalf("NewUDPMux: %v", err)
	}
	defer m.Close()
	eps := make([]*MuxEndpoint, nodes)
	for i := range eps {
		if eps[i], err = m.Endpoint(); err != nil {
			b.Fatalf("endpoint %d: %v", i, err)
		}
	}
	var completed atomic.Int64
	for i := range eps {
		ep := eps[i]
		ep.SetHandler(func(p Packet) {
			if len(p.Data) > 0 && p.Data[0] == 0 {
				reply := []byte{1}
				_ = ep.Send(p.From, reply)
			} else {
				completed.Add(1)
			}
			p.Release()
		})
	}
	addrs := make([]string, nodes)
	for i, ep := range eps {
		addrs[i] = ep.Addr()
	}
	benchWorkerCycles(b, nodes, &completed, func(i int) {
		_ = eps[i].Send(addrs[(i+1)%nodes], []byte{0})
	})
}

// benchWorkerCycles drives b.N cycles: fan the per-node sends across
// GOMAXPROCS goroutines, then wait for ≥95% of round trips (UDP loss
// must not hang the run) or a timeout.
func benchWorkerCycles(b *testing.B, nodes int, completed *atomic.Int64, send func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		completed.Store(0)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < nodes; i += workers {
					send(i)
				}
			}(w)
		}
		wg.Wait()
		want := int64(nodes) * 95 / 100
		deadline := time.Now().Add(5 * time.Second)
		for completed.Load() < want {
			if time.Now().After(deadline) {
				b.Fatalf("cycle %d: only %d/%d round trips completed", iter, completed.Load(), nodes)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// TestMuxHandlerEndpointOwnsNoQueue: an endpoint that is given a handler
// before anything reads its channel never allocates the channel — 48 KiB
// at the default QueueLen, the largest thing a hosted node would own —
// and still closes cleanly, a late Recv finding a closed channel.
func TestMuxHandlerEndpointOwnsNoQueue(t *testing.T) {
	m := newTestMux(t, UDPMuxConfig{Sockets: 1})
	a, b := muxEndpoint(t, m), muxEndpoint(t, m)
	got := make(chan string, 1)
	b.SetHandler(func(p Packet) {
		got <- string(p.Data)
		p.Release()
	})
	if err := a.Send(b.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "ping" {
			t.Fatalf("handler got %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the handler was never called")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	in := b.in
	b.mu.Unlock()
	if in != nil {
		t.Fatalf("a handler-mode endpoint allocated a queue of %d packets", cap(in))
	}
	if _, ok := <-b.Recv(); ok {
		t.Fatal("Recv after Close returned an open channel")
	}
}

// TestMuxHeapAtRest bounds what a mux holds once every socket's reader
// has taken its slots: per socket, muxReadSlots MaxDatagram buffers and
// the outbound queue.
func TestMuxHeapAtRest(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const sockets = 4
	heap := func() int64 {
		// The second collection empties the buffer pools' victim caches.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	m := newTestMux(t, UDPMuxConfig{Sockets: sockets})
	got := make(chan struct{}, sockets)
	eps := make([]*MuxEndpoint, sockets)
	for i := range eps {
		eps[i] = muxEndpoint(t, m) // endpoint i lands on socket i
		eps[i].SetHandler(func(p Packet) {
			p.Release()
			got <- struct{}{}
		})
	}
	for _, ep := range eps {
		if err := eps[0].Send(ep.Addr(), []byte("rest")); err != nil {
			t.Fatalf("send to %s: %v", ep.Addr(), err)
		}
	}
	for k := range eps {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d datagrams arrived", k, sockets)
		}
	}
	grew := heap() - before
	perSocket := muxReadSlots*MaxDatagram + muxOutQueueLen*int(unsafe.Sizeof(outMsg{}))
	t.Logf("a %d-socket mux at rest holds %d bytes of heap", sockets, grew)
	if limit := int64(sockets*perSocket + 1<<20); grew > limit {
		t.Fatalf("a %d-socket mux at rest holds %d bytes of heap, want at most %d", sockets, grew, limit)
	}
	runtime.KeepAlive(m)
}
