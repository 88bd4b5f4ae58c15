package transport

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// udpEndpoints opens n loopback endpoints, each on a mux of its own with
// one socket — the shape of a process that hosts one node — and tears
// them down with the test.
func udpEndpoints(t *testing.T, n, queueLen int) []*MuxEndpoint {
	t.Helper()
	eps := make([]*MuxEndpoint, n)
	for i := range eps {
		eps[i] = muxEndpoint(t, newTestMux(t, UDPMuxConfig{Sockets: 1, QueueLen: queueLen}))
	}
	return eps
}

// udpExpectNone asserts no packet arrives within the window.
func udpExpectNone(t *testing.T, e Endpoint, window time.Duration) {
	t.Helper()
	select {
	case p := <-e.Recv():
		t.Fatalf("endpoint %s: unexpected packet from %s", e.Addr(), p.From)
	case <-time.After(window):
	}
}

func TestUDPFilterPartitionGroups(t *testing.T) {
	eps := udpEndpoints(t, 3, 0)
	a, b, c := eps[0], eps[1], eps[2]
	f := NewUDPFilter(1)
	for _, e := range eps {
		e.mux.SetFilter(f)
	}
	f.PartitionGroups(map[string]int{a.Addr(): 0, b.Addr(): 1, c.Addr(): 0})

	// Cross-group traffic drops silently, same-group traffic flows.
	if err := a.Send(b.Addr(), []byte("cross")); err != nil {
		t.Fatalf("cross-group send errored (should look like loss): %v", err)
	}
	if err := a.Send(c.Addr(), []byte("same")); err != nil {
		t.Fatalf("same-group send: %v", err)
	}
	if got := string(muxRecvOne(t, c).Data); got != "same" {
		t.Fatalf("same-group payload = %q", got)
	}
	udpExpectNone(t, b, 200*time.Millisecond)
	if a.FilterDrops() == 0 {
		t.Fatal("outbound filter drop not counted")
	}

	// A node learning of the partition late is still protected by the
	// receiver-side rule: clear the sender's filter, keep the receiver's.
	a.mux.SetFilter(nil)
	if err := a.Send(b.Addr(), []byte("straggler")); err != nil {
		t.Fatalf("unfiltered send: %v", err)
	}
	udpExpectNone(t, b, 200*time.Millisecond)
	if b.FilterDrops() == 0 {
		t.Fatal("inbound filter drop not counted")
	}
	a.mux.SetFilter(f)

	// Heal: everything flows again.
	f.HealGroups()
	if err := a.Send(b.Addr(), []byte("healed")); err != nil {
		t.Fatalf("post-heal send: %v", err)
	}
	if got := string(muxRecvOne(t, b).Data); got != "healed" {
		t.Fatalf("post-heal payload = %q", got)
	}
}

func TestUDPFilterAssignGroupAndLoss(t *testing.T) {
	eps := udpEndpoints(t, 2, 0)
	a, b := eps[0], eps[1]
	f := NewUDPFilter(7)
	a.mux.SetFilter(f)
	b.mux.SetFilter(f)

	// AssignGroup creates the partition incrementally (joiners landing on
	// one side of an active split).
	f.AssignGroup(a.Addr(), 0)
	f.AssignGroup(b.Addr(), 1)
	_ = a.Send(b.Addr(), []byte("x"))
	udpExpectNone(t, b, 200*time.Millisecond)
	f.HealGroups()

	// Loss 1 drops everything, loss 0 restores delivery.
	f.SetLoss(1)
	_ = a.Send(b.Addr(), []byte("lost"))
	udpExpectNone(t, b, 200*time.Millisecond)
	f.SetLoss(0)
	if err := a.Send(b.Addr(), []byte("clear")); err != nil {
		t.Fatalf("send after loss cleared: %v", err)
	}
	if got := string(muxRecvOne(t, b).Data); got != "clear" {
		t.Fatalf("payload = %q", got)
	}
}

func TestUDPFilterDropPredicate(t *testing.T) {
	eps := udpEndpoints(t, 2, 0)
	a, b := eps[0], eps[1]
	f := NewUDPFilter(3)
	a.mux.SetFilter(f)
	blocked := b.Addr()
	f.SetDrop(func(local, peer string) bool { return peer == blocked })
	_ = a.Send(b.Addr(), []byte("x"))
	udpExpectNone(t, b, 200*time.Millisecond)
	f.SetDrop(nil)
	if err := a.Send(b.Addr(), []byte("open")); err != nil {
		t.Fatalf("send after predicate removed: %v", err)
	}
	if got := string(muxRecvOne(t, b).Data); got != "open" {
		t.Fatalf("payload = %q", got)
	}
}

// TestUDPCloseSendRace hammers Send from several goroutines while the
// endpoint closes; every outcome must be clean (nil or ErrClosed), and
// the run must be data-race free under -race.
func TestUDPCloseSendRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		eps := udpEndpoints(t, 2, 0)
		src, dst := eps[0], eps[1]
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if err := src.Send(dst.Addr(), []byte("race")); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("Send during Close: %v", err)
						}
						return
					}
				}
			}()
		}
		_ = src.Close()
		wg.Wait()
		if err := src.Send(dst.Addr(), []byte("after")); !errors.Is(err, ErrClosed) {
			t.Fatalf("Send after Close = %v, want ErrClosed", err)
		}
	}
}

// TestUDPQueueDropCounter fills a tiny inbound buffer and checks the
// overflow is accounted instead of silently discarded.
func TestUDPQueueDropCounter(t *testing.T) {
	eps := udpEndpoints(t, 2, 1)
	src, dst := eps[0], eps[1]

	deadline := time.Now().Add(5 * time.Second)
	for dst.QueueDrops() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no queue drop recorded despite a full inbound buffer")
		}
		for i := 0; i < 32; i++ {
			if err := src.Send(dst.Addr(), []byte("flood")); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The buffered packet is still deliverable.
	muxRecvOne(t, dst)
}
