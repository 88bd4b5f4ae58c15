package agent

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"antientropy/internal/obs"
	"antientropy/internal/race"
	"antientropy/internal/transport"
	"antientropy/internal/wire"
)

// stranger attaches one more endpoint to the hand-driven node's network:
// a peer the node has never met. Whatever the node sends it is discarded
// on delivery. Its address is in the process's book, as the address of
// every node of a fleet is before any of them speaks.
func (h handNode) stranger() *transport.MemEndpoint {
	ep := h.net.Endpoint()
	ep.SetHandler(func(p transport.Packet) { p.Release() })
	book.Intern(ep.Addr())
	return ep
}

// requestFrom encodes an exchange request from ep carrying the given view.
func (h handNode) requestFrom(t testing.TB, ep *transport.MemEndpoint, view wire.ViewFrame) []byte {
	t.Helper()
	data, err := wire.Encode(&wire.ExchangeRequest{From: ep.Addr(), Payload: wire.Payload{
		Seq: 1, Epoch: h.Epoch(), FuncID: wire.FuncAverage, Scalar: 2, View: view,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// meetStrangers has count never-met peers each send the node one exchange
// request with the given view.
func (h handNode) meetStrangers(t testing.TB, count int, view func(from string) wire.ViewFrame) {
	t.Helper()
	for i := 0; i < count; i++ {
		ep := h.stranger()
		h.handle(ep.Addr(), h.requestFrom(t, ep, view(ep.Addr())))
	}
}

func crowdView(from string) wire.ViewFrame { return fullFrame(from, "crowd", 1) }

// noView is a numbered frame without descriptors: the node's view stays
// what it was.
func noView(string) wire.ViewFrame { return wire.ViewFrame{Kind: wire.ViewFull, Gen: 1} }

// scrape reads one integer series off a registry RegisterMetrics filled.
func scrape(t testing.TB, reg *obs.Registry, name string) int64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s reads %q", name, v)
			}
			return n
		}
	}
	t.Fatalf("%s is not exported", name)
	return 0
}

// TestSessionsBoundedByView: a node keeps no per-peer state, so what it
// holds after meeting 300 peers is its protocol state and its view —
// within 4 KB of heap per node, measured as BenchmarkNodeResidentBytes
// measures it, over a fleet of 25 so the race job runs it in seconds.
func TestSessionsBoundedByView(t *testing.T) {
	const met, bound = 300, 4 << 10
	perNode := residentBytesPerNode(t, 25, met)
	t.Logf("%.0f B of heap per node after meeting %d peers", perNode, met)
	if perNode > bound {
		t.Fatalf("a node holds %.0f B of heap after meeting %d peers, want ≤ %d", perNode, met, bound)
	}
}

// TestStoppedNodeLeavesSessionCount: a stopped node leaves nothing behind
// in the process's gauges; agg_scheduler_nodes returns to what it read
// before the node started, however many peers the node met.
func TestStoppedNodeLeavesSessionCount(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg, func() Metrics { return Metrics{} })
	before := scrape(t, reg, "agg_scheduler_nodes")
	h := newHandNode(t, ModeScalar, 0)
	h.meetStrangers(t, 5, noView)
	if got := scrape(t, reg, "agg_scheduler_nodes") - before; got != 1 {
		t.Fatalf("agg_scheduler_nodes moved by %d for one started node", got)
	}
	if err := h.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := scrape(t, reg, "agg_scheduler_nodes"); got != before {
		t.Fatalf("agg_scheduler_nodes reads %d after Stop, %d before the node", got, before)
	}
}

// TestFirstContactAllocs: serving a peer the node has never heard from —
// absorb its view, reply with a full frame — allocates nothing. There is
// no per-peer table to fill first; a few requests grow the workspace.
func TestFirstContactAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const runs = 200
	h := newHandNode(t, ModeScalar, 0)
	h.meetStrangers(t, 3, crowdView) // grow the workspace, intern the crowd
	from := make([]string, runs+1)
	data := make([][]byte, runs+1)
	for i := range data {
		ep := h.stranger()
		from[i], data[i] = ep.Addr(), h.requestFrom(t, ep, crowdView(ep.Addr()))
	}
	served := h.Metrics().ExchangesServed
	next := 0
	// A collection empties the workspace pool; over this many runs one
	// refill rounds to zero, as it does for sendBufs in the other gates.
	if n := testing.AllocsPerRun(runs, func() {
		h.handle(from[next], data[next])
		next++
	}); n != 0 {
		t.Fatalf("serving a never-seen peer allocates %.2f times, want 0", n)
	}
	if got := h.Metrics().ExchangesServed - served; got != runs+1 {
		t.Fatalf("served %d of %d first contacts", got, runs+1)
	}
}

// TestEvictionIsFirstContactForVersions: a node answers every peer as it
// answers one never seen, at the one version there is. However many
// peers it met in between, and whatever generation and acknowledgement
// the peer's hello carries, the reply is at Version with a full frame of
// generation 0 and ack 0, and so is the node's own request.
func TestEvictionIsFirstContactForVersions(t *testing.T) {
	h := newHandNode(t, ModeScalar, 0)
	isFull := func(f wire.ViewFrame) bool {
		return f.Kind == wire.ViewFull && f.Gen == 0 && f.Ack == 0 && f.Base == 0
	}
	hello := func(seq uint64) {
		t.Helper()
		h.deliver(t, &wire.Membership{From: h.peer.Addr(), Seq: seq, View: wire.ViewFrame{Kind: wire.ViewFull, Gen: uint32(seq), Ack: uint32(seq)}})
		reply, v := h.sentVersion(t)
		if mr, ok := reply.(*wire.MembershipReply); !ok || v != wire.Version || !isFull(mr.View) {
			t.Fatalf("hello %d was answered at version %d with %+v, want version %d and a full frame of generation 0, ack 0", seq, v, reply, wire.Version)
		}
	}

	hello(1)
	h.meetStrangers(t, 70, noView)
	hello(2)
	h.meetStrangers(t, 70, noView)
	h.initiate(time.Now()) // the peer is all the view holds
	msg, v := h.sentVersion(t)
	req, ok := msg.(*wire.ExchangeRequest)
	if !ok {
		t.Fatalf("the node sent %T, want an exchange request", msg)
	}
	if v != wire.Version || !isFull(req.View) {
		t.Fatalf("own request: version %d, frame kind %v gen %d ack %d; want version %d, full, 0, 0",
			v, req.View.Kind, req.View.Gen, req.View.Ack, wire.Version)
	}
}

// TestParentDeltaFrameAbsorbed is the rolling upgrade: a peer still
// running the per-peer delta codec sends what its codec makes of an
// established connection, a delta frame of generation 7 acknowledging 3
// against base 2. The node absorbs the delta's descriptors as a subset of
// the sender's view, serves the exchange, and replies at Version with a
// full frame of generation 0 and ack 0 holding its pre-merge view and
// itself. The peer's codec never sees an ack, so it goes on sending full
// frames (see package wire).
func TestParentDeltaFrameAbsorbed(t *testing.T) {
	h := newHandNode(t, ModeScalar, 0)
	delta := wire.ViewFrame{Kind: wire.ViewDelta, Gen: 7, Ack: 3, Base: 2, Entries: []wire.Descriptor{
		{Addr: "upgrade-1:7000", Stamp: 5}, {Addr: "upgrade-2:7000", Stamp: 6},
	}}
	h.deliver(t, &wire.ExchangeRequest{From: h.peer.Addr(), Payload: wire.Payload{
		Seq: 1, XID: 9, Epoch: h.Epoch(), FuncID: wire.FuncAverage, Scalar: 2, View: delta,
	}})
	msg, v := h.sentVersion(t)
	reply, ok := msg.(*wire.ExchangeReply)
	if !ok || v != wire.Version {
		t.Fatalf("the delta request was answered with %T at version %d, want an exchange reply at %d", msg, v, wire.Version)
	}
	f := reply.View
	if f.Kind != wire.ViewFull || f.Gen != 0 || f.Ack != 0 || f.Base != 0 {
		t.Fatalf("reply frame kind %v gen %d ack %d base %d, want full, 0, 0, 0", f.Kind, f.Gen, f.Ack, f.Base)
	}
	var sent []string
	for _, d := range f.Entries {
		sent = append(sent, d.Addr)
	}
	want := []string{h.Addr(), h.peer.Addr()}
	slices.Sort(sent)
	slices.Sort(want)
	if !slices.Equal(sent, want) {
		t.Fatalf("the reply carries %v, want the pre-merge view and the node itself, %v", sent, want)
	}
	if peers := h.Peers(); !slices.Contains(peers, "upgrade-1:7000") || !slices.Contains(peers, "upgrade-2:7000") {
		t.Fatalf("the delta's descriptors were not absorbed: %v", peers)
	}
	if got := h.scalarNow(); got != 6 {
		t.Fatalf("estimate %g after serving the exchange, want 6 (the mean of 10 and 2)", got)
	}
}

// sentVersion returns the next message the node sent to the peer and the
// version byte it was encoded with.
func (h handNode) sentVersion(t testing.TB) (wire.Message, uint8) {
	t.Helper()
	select {
	case p := <-h.peer.Recv():
		version := p.Data[4]
		m, err := wire.Decode(p.Data)
		p.Release()
		if err != nil {
			t.Fatal(err)
		}
		return m, version
	case <-time.After(5 * time.Second):
		t.Fatal("the node sent nothing")
		return nil, 0
	}
}

// TestViewCapTrimsFrames pins Config.MaxViewBytes: with a cap of B bytes
// every frame the node sends — the reply it serves and the request it
// initiates — totals at most B by wire.DescriptorWireSize, and its entries
// are a prefix of the uncapped frame, which lists the view freshest first.
func TestViewCapTrimsFrames(t *testing.T) {
	h := newHandNode(t, ModeScalar, time.Hour)
	// The node's view is a crowd of endpoints that hand whatever the node
	// sends them to requests, so its exchange request is seen wherever it
	// goes.
	requests := make(chan wire.ViewFrame, 1)
	view := wire.ViewFrame{Kind: wire.ViewFull, Gen: 1}
	for i := range 30 {
		ep := h.net.Endpoint()
		ep.SetHandler(func(p transport.Packet) {
			if m, err := wire.Decode(p.Data); err == nil {
				if req, ok := m.(*wire.ExchangeRequest); ok {
					select {
					case requests <- req.View:
					default:
					}
				}
			}
			p.Release()
		})
		view.Entries = append(view.Entries, wire.Descriptor{Addr: ep.Addr(), Stamp: int64(100 - i)})
	}
	serve := func() wire.ViewFrame {
		t.Helper()
		h.handle(h.peer.Addr(), h.requestFrom(t, h.peer, view))
		reply, ok := h.sent(t).(*wire.ExchangeReply)
		if !ok {
			t.Fatal("the node served no exchange reply")
		}
		return reply.View
	}
	serve() // fills the view
	full := serve().Entries
	if len(full) < 10 {
		t.Fatalf("uncapped frame has %d entries, want a full view", len(full))
	}
	for i := 1; i < len(full); i++ {
		if full[i].Stamp > full[i-1].Stamp {
			t.Fatalf("uncapped frame is not freshest first: %+v", full)
		}
	}
	// A cap one byte short of the first six descriptors leaves five.
	const keep = 5
	budget := -1
	for _, d := range full[:keep+1] {
		budget += wire.DescriptorWireSize(d.Addr)
	}
	h.mu.Lock()
	h.cfg.MaxViewBytes = budget
	h.mu.Unlock()

	capped := map[string]wire.ViewFrame{"reply": serve()}
	h.initiate(time.Now())
	select {
	case capped["request"] = <-requests:
	case <-time.After(5 * time.Second):
		t.Fatal("the node sent no exchange request")
	}
	for name, frame := range capped {
		size := 0
		for _, d := range frame.Entries {
			size += wire.DescriptorWireSize(d.Addr)
		}
		if size > budget {
			t.Errorf("capped %s carries %d bytes of descriptors, cap %d", name, size, budget)
		}
		if !slices.Equal(frame.Entries, full[:keep]) {
			t.Errorf("capped %s entries %+v, want the uncapped frame's first %d: %+v", name, frame.Entries, keep, full[:keep])
		}
	}
}
