package transport

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"antientropy/internal/race"
)

func recvOne(t *testing.T, ep Endpoint, timeout time.Duration) Packet {
	t.Helper()
	select {
	case p, ok := <-ep.Recv():
		if !ok {
			t.Fatal("receive channel closed")
		}
		return p
	case <-time.After(timeout):
		t.Fatal("timed out waiting for packet")
	}
	return Packet{}
}

// memModes runs a test of what the network does to datagrams once for
// each way a MemEndpoint delivers: inbox(ep) is where the endpoint's
// datagrams arrive — its Recv channel, or a channel a handler set on the
// endpoint forwards into.
func memModes(t *testing.T, test func(t *testing.T, inbox func(*MemEndpoint) <-chan Packet)) {
	t.Run("channel", func(t *testing.T) {
		test(t, func(ep *MemEndpoint) <-chan Packet { return ep.Recv() })
	})
	t.Run("handler", func(t *testing.T) {
		test(t, func(ep *MemEndpoint) <-chan Packet {
			// The buffer holds everything these tests send.
			got := make(chan Packet, 4096)
			ep.SetHandler(func(p Packet) { got <- p })
			return got
		})
	})
}

func recvFrom(t *testing.T, inbox <-chan Packet, timeout time.Duration) Packet {
	t.Helper()
	select {
	case p := <-inbox:
		return p
	case <-time.After(timeout):
		t.Fatal("timed out waiting for packet")
	}
	return Packet{}
}

func TestMemBasicDelivery(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Seed: 1})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()
	if a.Addr() == b.Addr() {
		t.Fatal("duplicate addresses")
	}
	if err := a.Send(b.Addr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, b, time.Second)
	if p.From != a.Addr() || string(p.Data) != "hello" {
		t.Fatalf("got %+v", p)
	}
}

func TestMemSendCopiesBuffer(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Seed: 1})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()
	buf := []byte("original")
	if err := a.Send(b.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBER!")
	p := recvOne(t, b, time.Second)
	if string(p.Data) != "original" {
		t.Fatalf("buffer aliasing: got %q", p.Data)
	}
}

// TestMemRoundTripAllocs gates the in-memory datagram path: with the
// consumer releasing its packets, send → recv → Release allocates
// nothing — datagrams ride the pooled send buffers.
func TestMemRoundTripAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	net := NewMemNetwork(MemNetworkConfig{Seed: 1})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()
	payload := make([]byte, 1000) // a full-view gossip frame
	if n := testing.AllocsPerRun(200, func() {
		if err := a.Send(b.Addr(), payload); err != nil {
			t.Fatal(err)
		}
		p := <-b.Recv()
		if err := b.Send(a.Addr(), p.Data); err != nil {
			t.Fatal(err)
		}
		p.Release()
		p = <-a.Recv()
		p.Release()
	}); n != 0 {
		t.Fatalf("mem round trip allocates %.1f times, want 0", n)
	}
}

// TestMemOversizeDatagram: datagrams beyond the pooled size class still
// arrive intact (as a plain copy; Release is then a no-op).
func TestMemOversizeDatagram(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Seed: 1})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()
	payload := make([]byte, sendBufSize+1)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := a.Send(b.Addr(), payload); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, b, time.Second)
	if !bytes.Equal(p.Data, payload) {
		t.Fatal("oversize datagram corrupted")
	}
	p.Release()
}

func TestMemUnknownPeer(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Seed: 1})
	defer net.Close()
	a := net.Endpoint()
	if err := a.Send("mem-99", []byte("x")); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v", err)
	}
}

func TestMemTooLarge(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Seed: 1})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()
	if err := a.Send(b.Addr(), make([]byte, MaxDatagram+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

// filteredMem opens an in-memory network behind a fresh drop-rule filter.
func filteredMem(t *testing.T, cfg MemNetworkConfig) (*MemNetwork, *UDPFilter) {
	net := NewMemNetwork(cfg)
	t.Cleanup(net.Close)
	f := NewUDPFilter(cfg.Seed)
	net.SetFilter(f)
	return net, f
}

func TestMemLoss(t *testing.T) {
	memModes(t, func(t *testing.T, inbox func(*MemEndpoint) <-chan Packet) {
		net, f := filteredMem(t, MemNetworkConfig{Seed: 1})
		f.SetLoss(1)
		a, b := net.Endpoint(), net.Endpoint()
		in := inbox(b)
		for i := 0; i < 50; i++ {
			if err := a.Send(b.Addr(), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case p := <-in:
			t.Fatalf("100%% loss delivered %+v", p)
		case <-time.After(50 * time.Millisecond):
		}
		if got := a.FilterDrops(); got != 50 {
			t.Fatalf("sender counted %d filter drops, want 50", got)
		}
	})
}

func TestMemPartialLossStatistics(t *testing.T) {
	memModes(t, func(t *testing.T, inbox func(*MemEndpoint) <-chan Packet) {
		net, f := filteredMem(t, MemNetworkConfig{Seed: 7, QueueLen: 4096})
		f.SetLoss(0.5)
		a, b := net.Endpoint(), net.Endpoint()
		in := inbox(b)
		const sends = 2000
		for i := 0; i < sends; i++ {
			if err := a.Send(b.Addr(), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		// Zero latency: everything that survived has arrived.
		if received := len(in); received < sends*35/100 || received > sends*65/100 {
			t.Fatalf("received %d of %d at 50%% loss", received, sends)
		}
	})
}

func TestMemLatency(t *testing.T) {
	memModes(t, func(t *testing.T, inbox func(*MemEndpoint) <-chan Packet) {
		net := NewMemNetwork(MemNetworkConfig{Seed: 1})
		net.SetLatency(20*time.Millisecond, 30*time.Millisecond)
		defer net.Close()
		a, b := net.Endpoint(), net.Endpoint()
		in := inbox(b)
		start := time.Now()
		if err := a.Send(b.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
		recvFrom(t, in, time.Second)
		if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
			t.Fatalf("delivered too fast: %v", elapsed)
		}
	})
}

// TestMemPartition: a drop predicate cuts one link both ways until removed.
func TestMemPartition(t *testing.T) {
	memModes(t, func(t *testing.T, inbox func(*MemEndpoint) <-chan Packet) {
		net, f := filteredMem(t, MemNetworkConfig{Seed: 1})
		a, b := net.Endpoint(), net.Endpoint()
		in := inbox(b)
		cut := map[string]bool{a.Addr(): true, b.Addr(): true}
		f.SetDrop(func(local, peer string) bool { return cut[local] && cut[peer] })
		if err := a.Send(b.Addr(), []byte("x")); err != nil {
			t.Fatal(err) // partition looks like loss, not like an error
		}
		select {
		case <-in:
			t.Fatal("partitioned message delivered")
		case <-time.After(50 * time.Millisecond):
		}
		f.SetDrop(nil)
		if err := a.Send(b.Addr(), []byte("y")); err != nil {
			t.Fatal(err)
		}
		if p := recvFrom(t, in, time.Second); string(p.Data) != "y" {
			t.Fatalf("after heal got %q", p.Data)
		}
	})
}

// TestMemPartitionGroups: datagrams cross group boundaries in neither
// direction, ungrouped addresses talk to everyone, AssignGroup moves one
// address, HealGroups ends it.
func TestMemPartitionGroups(t *testing.T) {
	memModes(t, func(t *testing.T, inbox func(*MemEndpoint) <-chan Packet) {
		net, f := filteredMem(t, MemNetworkConfig{Seed: 1})
		a, b, c, free := net.Endpoint(), net.Endpoint(), net.Endpoint(), net.Endpoint()
		ins := map[*MemEndpoint]<-chan Packet{a: inbox(a), b: inbox(b), c: inbox(c), free: inbox(free)}
		arrives := func(from, to *MemEndpoint) bool {
			t.Helper()
			if err := from.Send(to.Addr(), []byte("x")); err != nil {
				t.Fatal(err)
			}
			select {
			case <-ins[to]:
				return true
			default:
				return false
			}
		}
		f.PartitionGroups(map[string]int{a.Addr(): 0, b.Addr(): 1, c.Addr(): 0})
		if arrives(a, b) || arrives(b, a) || arrives(b, c) {
			t.Fatal("a datagram crossed the group partition")
		}
		if !arrives(a, c) || !arrives(free, b) || !arrives(a, free) {
			t.Fatal("a datagram inside a group, or of an ungrouped address, was lost")
		}
		f.AssignGroup(c.Addr(), 1)
		if arrives(a, c) || !arrives(b, c) {
			t.Fatal("AssignGroup did not move the address to the other side")
		}
		f.HealGroups()
		if !arrives(a, b) || !arrives(b, a) {
			t.Fatal("HealGroups left the partition in place")
		}
	})
}

func TestMemCloseEndpoint(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Seed: 1})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal("double close should be fine:", err)
	}
	if err := b.Send(a.Addr(), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	// Sending to a closed/unregistered endpoint errors as unknown.
	if err := a.Send(b.Addr(), []byte("x")); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to closed peer: %v", err)
	}
	// The receive channel must be closed.
	if _, ok := <-b.Recv(); ok {
		t.Fatal("receive channel still open")
	}
}

func TestMemQueueOverflowDrops(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Seed: 1, QueueLen: 4})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = a.Send(b.Addr(), []byte("x"))
		}()
	}
	wg.Wait()
	// Allow deliveries to finish.
	time.Sleep(50 * time.Millisecond)
	received := 0
drain:
	for {
		select {
		case <-b.Recv():
			received++
		default:
			break drain
		}
	}
	if received > 4 {
		t.Fatalf("queue of 4 held %d", received)
	}
	if b.Dropped() == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestMemConcurrentSends(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Seed: 1})
	defer net.Close()
	const peers = 8
	eps := make([]*MemEndpoint, peers)
	for i := range eps {
		eps[i] = net.Endpoint()
	}
	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = eps[i].Send(eps[(i+1)%peers].Addr(), []byte("m"))
			}
		}(i)
	}
	wg.Wait()
	time.Sleep(50 * time.Millisecond)
	total := 0
	for _, ep := range eps {
	drain:
		for {
			select {
			case <-ep.Recv():
				total++
			default:
				break drain
			}
		}
	}
	if total != peers*100 {
		t.Fatalf("delivered %d of %d", total, peers*100)
	}
}

// TestMemHandlerInlineDelivery: on a zero-latency network a handler-mode
// endpoint has handled the datagram, and whatever its handler sent has
// been handled too, by the time Send returns — all on the sender's
// goroutine, with no inbound buffer ever allocated.
func TestMemHandlerInlineDelivery(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Seed: 1})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()
	var log []string // no lock: one goroutine runs everything
	a.SetHandler(func(p Packet) {
		log = append(log, "a got "+string(p.Data))
		p.Release()
	})
	b.SetHandler(func(p Packet) {
		log = append(log, "b got "+string(p.Data))
		if err := b.Send(p.From, []byte("reply")); err != nil {
			t.Error(err)
		}
		log = append(log, "b replied")
		p.Release()
	})
	if err := a.Send(b.Addr(), []byte("request")); err != nil {
		t.Fatal(err)
	}
	want := []string{"b got request", "a got reply", "b replied"}
	if len(log) != len(want) {
		t.Fatalf("after Send returned: %q, want %q", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("after Send returned: %q, want %q", log, want)
		}
	}
	if a.in != nil || b.in != nil {
		t.Fatal("a handler-mode endpoint allocated an inbound buffer")
	}
	if a.Dropped() != 0 || net.QueueDepthHighWatermark() != 0 {
		t.Fatal("a network without queues reports drops or a queue depth")
	}
}

// TestMemSetHandlerDrainsQueue: datagrams that arrived before the
// handler was set are handed to it, and the channel stays silent after.
func TestMemSetHandlerDrainsQueue(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Seed: 1})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()
	for _, m := range []string{"one", "two"} {
		if err := a.Send(b.Addr(), []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	b.SetHandler(func(p Packet) { got = append(got, string(p.Data)) })
	if err := a.Send(b.Addr(), []byte("three")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "one" || got[1] != "two" || got[2] != "three" {
		t.Fatalf("the handler saw %q, want one two three", got)
	}
	select {
	case p := <-b.Recv():
		t.Fatalf("the channel of a handler-mode endpoint delivered %q", p.Data)
	default:
	}
}

// TestMemCloseDuringHandlerSend is TestMuxCloseDuringHandlerSend for the
// mem network: a Close that arrives while the endpoint's handler is
// running waits for it, the handler's own Send neither blocks on that
// Close nor fails to return, and once Close has returned the handler is
// not invoked again.
func TestMemCloseDuringHandlerSend(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Seed: 1})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()

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
	go func() { _ = a.Send(b.Addr(), []byte("request")) }() // returns when b's handler does
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
	select {
	case <-closed:
		t.Fatal("Close returned while the handler was running")
	case <-time.After(50 * time.Millisecond):
	}
	// A delivery to the closing endpoint returns at once instead of
	// queueing behind the Close.
	late := make(chan error, 1)
	go func() { late <- a.Send(b.Addr(), []byte("late")) }()
	select {
	case <-late:
	case <-time.After(5 * time.Second):
		t.Fatal("a delivery to a closing endpoint blocked")
	}
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
	_ = a.Send(b.Addr(), []byte("later still")) // unknown peer by now; must not reach the handler
}

// TestMemConcurrentCloseUnderCrossTraffic: endpoints whose handlers
// answer each other are closed concurrently while traffic flows; with a
// lock-shaped Close barrier two closers and two nested deliveries wedge.
func TestMemConcurrentCloseUnderCrossTraffic(t *testing.T) {
	const peers, rounds = 4, 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < rounds; round++ {
			net := NewMemNetwork(MemNetworkConfig{Seed: int64(round + 1)})
			eps := make([]*MemEndpoint, peers)
			for i := range eps {
				eps[i] = net.Endpoint()
			}
			for _, ep := range eps {
				ep := ep
				ep.SetHandler(func(p Packet) {
					if p.Data[0] == 0 {
						_ = ep.Send(p.From, []byte{1})
					}
					p.Release()
				})
			}
			var senders, closers sync.WaitGroup
			for i := range eps {
				senders.Add(1)
				go func(i int) {
					defer senders.Done()
					// Until the sender's own endpoint is closed; a closed
					// destination is only an unknown peer.
					for j := 0; ; j++ {
						err := eps[i].Send(eps[(i+1+j%(peers-1))%peers].Addr(), []byte{0})
						if errors.Is(err, ErrClosed) {
							return
						}
					}
				}(i)
			}
			time.Sleep(200 * time.Microsecond)
			for _, ep := range eps {
				closers.Add(1)
				go func(ep *MemEndpoint) {
					defer closers.Done()
					_ = ep.Close()
				}(ep)
			}
			closers.Wait()
			senders.Wait()
			net.Close()
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("closing handler-mode endpoints under cross traffic deadlocked")
	}
}

func TestUDPLoopback(t *testing.T) {
	eps := udpEndpoints(t, 2, 0)
	a, b := eps[0], eps[1]
	if err := a.Send(b.Addr(), []byte("over udp")); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, b, 2*time.Second)
	if string(p.Data) != "over udp" {
		t.Fatalf("got %q", p.Data)
	}
	if p.From != a.Addr() {
		t.Fatalf("from = %s, want %s", p.From, a.Addr())
	}
}

func TestUDPBidirectional(t *testing.T) {
	eps := udpEndpoints(t, 2, 0)
	a, b := eps[0], eps[1]
	if err := a.Send(b.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, b, 2*time.Second)
	if err := b.Send(p.From, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	p2 := recvOne(t, a, 2*time.Second)
	if string(p2.Data) != "pong" {
		t.Fatalf("got %q", p2.Data)
	}
}

func TestUDPClose(t *testing.T) {
	a := udpEndpoints(t, 1, 0)[0]
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close:", err)
	}
	if err := a.Send("127.0.0.1:9#0", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if _, ok := <-a.Recv(); ok {
		t.Fatal("receive channel still open after close")
	}
}

func TestUDPTooLarge(t *testing.T) {
	a := udpEndpoints(t, 1, 0)[0]
	if err := a.Send("127.0.0.1:9#0", make([]byte, MaxDatagram+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestUDPBadAddress(t *testing.T) {
	if m, err := NewUDPMux(UDPMuxConfig{Listen: "not-an-address"}); err == nil {
		m.Close()
		t.Fatal("bad listen address accepted")
	}
	a := udpEndpoints(t, 1, 0)[0]
	if err := a.Send("::::bad::::#0", []byte("x")); err == nil {
		t.Fatal("bad peer address accepted")
	}
}
