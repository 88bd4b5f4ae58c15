package transport

import (
	"bytes"
	"errors"
	"sync"
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

func TestMemLoss(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Loss: 1, Seed: 1})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()
	for i := 0; i < 50; i++ {
		if err := a.Send(b.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case p := <-b.Recv():
		t.Fatalf("100%% loss delivered %+v", p)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestMemPartialLossStatistics(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Loss: 0.5, Seed: 7})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()
	const sends = 2000
	for i := 0; i < sends; i++ {
		if err := a.Send(b.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	deadline := time.After(2 * time.Second)
drain:
	for {
		select {
		case <-b.Recv():
			received++
		case <-deadline:
			break drain
		case <-time.After(100 * time.Millisecond):
			break drain
		}
	}
	if received < sends*35/100 || received > sends*65/100 {
		t.Fatalf("received %d of %d at 50%% loss", received, sends)
	}
}

func TestMemLatency(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{
		MinLatency: 20 * time.Millisecond,
		MaxLatency: 30 * time.Millisecond,
		Seed:       1,
	})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()
	start := time.Now()
	if err := a.Send(b.Addr(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b, time.Second)
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("delivered too fast: %v", elapsed)
	}
}

func TestMemPartition(t *testing.T) {
	net := NewMemNetwork(MemNetworkConfig{Seed: 1})
	defer net.Close()
	a, b := net.Endpoint(), net.Endpoint()
	net.PartitionBoth(a.Addr(), b.Addr())
	if err := a.Send(b.Addr(), []byte("x")); err != nil {
		t.Fatal(err) // partition looks like loss, not like an error
	}
	select {
	case <-b.Recv():
		t.Fatal("partitioned message delivered")
	case <-time.After(50 * time.Millisecond):
	}
	net.HealBoth(a.Addr(), b.Addr())
	if err := a.Send(b.Addr(), []byte("y")); err != nil {
		t.Fatal(err)
	}
	p := recvOne(t, b, time.Second)
	if string(p.Data) != "y" {
		t.Fatalf("after heal got %q", p.Data)
	}
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

func TestUDPLoopback(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
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
	a, err := ListenUDP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
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
	a, err := ListenUDP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("double close:", err)
	}
	if err := a.Send("127.0.0.1:9", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if _, ok := <-a.Recv(); ok {
		t.Fatal("receive channel still open after close")
	}
}

func TestUDPTooLarge(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("127.0.0.1:9", make([]byte, MaxDatagram+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestUDPBadAddress(t *testing.T) {
	if _, err := ListenUDP("not-an-address", 0); err == nil {
		t.Fatal("bad listen address accepted")
	}
	a, err := ListenUDP("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("::::bad::::", []byte("x")); err == nil {
		t.Fatal("bad peer address accepted")
	}
}
