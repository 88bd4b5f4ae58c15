package transport

import (
	"errors"
	"strings"
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

// TestUDPFilterPartitionGroups: across muxes, the receiver-side rule
// holds a group partition even against a sender that has not learnt of it
// (no filter on its mux), and a heal lets traffic through again. The
// sender-side verdicts are TestUDPFilterSameVerdictsOnBothWires'.
func TestUDPFilterPartitionGroups(t *testing.T) {
	eps := udpEndpoints(t, 2, 0)
	a, b := eps[0], eps[1]
	f := NewUDPFilter(1)
	b.mux.SetFilter(f)
	f.PartitionGroups(map[string]int{a.Addr(): 0, b.Addr(): 1})
	if err := a.Send(b.Addr(), []byte("straggler")); err != nil {
		t.Fatalf("unfiltered send: %v", err)
	}
	udpExpectNone(t, b, 200*time.Millisecond)
	if b.FilterDrops() == 0 {
		t.Fatal("inbound filter drop not counted")
	}
	f.HealGroups()
	if err := a.Send(b.Addr(), []byte("healed")); err != nil {
		t.Fatalf("post-heal send: %v", err)
	}
	if got := string(muxRecvOne(t, b).Data); got != "healed" {
		t.Fatalf("post-heal payload = %q", got)
	}
}

func TestUDPFilterAssignGroupAndLoss(t *testing.T) {
	w := newFilterWires(t)
	w.replay(t, []filterStep{
		// AssignGroup creates the partition incrementally (joiners landing
		// on one side of an active split).
		{func() { w.assign(map[string]int{"a": 0, "b": 1}) }, "a>b b>a", "xx"},
		{w.f.HealGroups, "a>b", "."},
		// Loss 1 drops everything, loss 0 restores delivery.
		{func() { w.f.SetLoss(1) }, "a>b b>a", "xx"},
		{func() { w.f.SetLoss(0) }, "a>b", "."},
	})
}

func TestUDPFilterDropPredicate(t *testing.T) {
	w := newFilterWires(t)
	w.replay(t, []filterStep{
		{func() { w.f.SetDrop(w.touches("b")) }, "a>b b>a a>c", "xx."},
		{func() { w.f.SetDrop(nil) }, "a>b b>a", ".."},
	})
}

// TestUDPFilterSameVerdictsOnBothWires replays every rule kind on both wires.
func TestUDPFilterSameVerdictsOnBothWires(t *testing.T) {
	w := newFilterWires(t)
	w.replay(t, []filterStep{
		{func() { w.f.PartitionGroups(w.addrs(map[string]int{"a": 0, "b": 1, "c": 0})) }, "a>b b>a a>c b>c free>b", "xx.x."},
		{func() { w.assign(map[string]int{"late": 1}) }, "late>a late>b a>late", "x.x"},
		{func() { w.f.SetDrop(w.touches("c")) }, "a>c c>a free>c a>free", "xxx."},
		{w.f.HealGroups, "a>b b>a late>a c>a", "...x"},
		{func() { w.f.SetDrop(nil); w.f.SetLoss(1) }, "a>b c>a", "xx"},
		{func() { w.f.SetLoss(0) }, "a>b c>a", ".."},
	})
}

// filterWires is one filter attached to a MemNetwork and to a UDPMux,
// each wire carrying the nodes a, b, c, free and late.
type filterWires struct {
	f   *UDPFilter
	eps [2]map[string]filteredEndpoint
}

type filteredEndpoint interface {
	Endpoint
	FilterDrops() int64
}

// filterStep is one rule change and the "from>to" sends after it; want
// holds one verdict per send, x for dropped and . for delivered.
type filterStep struct {
	rule        func()
	sends, want string
}

func newFilterWires(t *testing.T) *filterWires {
	w := &filterWires{f: NewUDPFilter(5), eps: [2]map[string]filteredEndpoint{{}, {}}}
	mem := NewMemNetwork(MemNetworkConfig{Seed: 5})
	t.Cleanup(mem.Close)
	mux := newTestMux(t, UDPMuxConfig{Sockets: 1})
	mem.SetFilter(w.f)
	mux.SetFilter(w.f)
	for _, name := range []string{"a", "b", "c", "free", "late"} {
		w.eps[0][name], w.eps[1][name] = mem.Endpoint(), muxEndpoint(t, mux)
	}
	return w
}

// addrs maps named nodes to groups by their addresses on both wires: one
// filter holds both wires' rules.
func (w *filterWires) addrs(groups map[string]int) map[string]int {
	out := make(map[string]int)
	for name, g := range groups {
		out[w.eps[0][name].Addr()], out[w.eps[1][name].Addr()] = g, g
	}
	return out
}

func (w *filterWires) assign(groups map[string]int) {
	for addr, g := range w.addrs(groups) {
		w.f.AssignGroup(addr, g)
	}
}

// touches drops every datagram to or from the named node. On a mux the
// inbound check passes the receiver as local, so a predicate meant to act
// alike on both wires is symmetric.
func (w *filterWires) touches(name string) func(local, peer string) bool {
	on := w.addrs(map[string]int{name: 0})
	return func(local, peer string) bool {
		_, l := on[local]
		_, p := on[peer]
		return l || p
	}
}

// replay runs a script on both wires: every send must get the step's
// verdict on each, and each wire's endpoints must count one filter drop
// per x. Both wires decide at Send (the mux checks the outbound path
// before it queues), so a drop shows as the sender's FilterDrops moving;
// each delivery is received before the script goes on.
func (w *filterWires) replay(t *testing.T, steps []filterStep) {
	t.Helper()
	var dropped int64
	for i, st := range steps {
		st.rule()
		dropped += int64(strings.Count(st.want, "x"))
		for wire, eps := range w.eps {
			var got []byte
			for _, send := range strings.Fields(st.sends) {
				from, to, _ := strings.Cut(send, ">")
				src, dst := eps[from], eps[to]
				before := src.FilterDrops()
				if err := src.Send(dst.Addr(), []byte(send)); err != nil {
					t.Fatalf("step %d wire %d: %s: %v", i, wire, send, err)
				}
				if src.FilterDrops() > before {
					got = append(got, 'x')
					continue
				}
				got = append(got, '.')
				if p := muxRecvOne(t, dst); string(p.Data) != send {
					t.Fatalf("step %d wire %d: received %q, want %q", i, wire, p.Data, send)
				}
			}
			if string(got) != st.want {
				t.Errorf("step %d wire %d: verdicts %q, want %q for %q", i, wire, got, st.want, st.sends)
			}
		}
	}
	time.Sleep(100 * time.Millisecond)
	for wire, eps := range w.eps {
		var total int64
		for name, ep := range eps {
			total += ep.FilterDrops()
			if n := len(ep.Recv()); n != 0 {
				t.Errorf("wire %d: %s received %d datagrams the filter dropped", wire, name, n)
			}
		}
		if total != dropped {
			t.Errorf("wire %d counted %d filter drops, want %d", wire, total, dropped)
		}
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
