package agent

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"antientropy/internal/obs"
	"antientropy/internal/overlay"
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

// TestSessionsBoundedByView: however many peers a node meets, it keeps a
// session for the sessionCap(c) met last, each holding at most two
// buffers of one view, and counts the rest as evictions.
func TestSessionsBoundedByView(t *testing.T) {
	const met = 300
	h := newHandNode(t, ModeScalar, 0)
	bound := sessionCap(overlay.DefaultCacheSize)
	reg := obs.NewRegistry()
	RegisterMetrics(reg, func() Metrics { return Metrics{} })
	held, evicted := scrape(t, reg, "agg_peer_sessions"), scrape(t, reg, "agg_session_evictions_total")
	h.meetStrangers(t, met, crowdView)
	if m := h.Metrics(); m.ExchangesServed != met || m.DecodeErrors != 0 {
		t.Fatalf("the requests were not all served: %+v", m)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if got := h.peers.Len(); got != bound {
		t.Fatalf("the node holds %d sessions after meeting %d peers, want %d", got, met, bound)
	}
	if got := h.peers.Evictions(); got != met-uint64(bound) {
		t.Fatalf("%d evictions, want %d", got, met-bound)
	}
	if got := scrape(t, reg, "agg_peer_sessions") - held; got != int64(bound) {
		t.Fatalf("agg_peer_sessions moved by %d, want %d", got, bound)
	}
	if got := scrape(t, reg, "agg_session_evictions_total") - evicted; got != int64(met-bound) {
		t.Fatalf("agg_session_evictions_total moved by %d, want %d", got, met-bound)
	}
	oneView := overlay.DefaultCacheSize + 1
	for id := int32(0); id < int32(book.Len()); id++ {
		sess, ok := h.peers.Peek(id)
		if !ok {
			continue
		}
		if sess.codec.Scratch != nil {
			t.Fatalf("the session of %s points into a workspace outside a hold", book.Addr(id))
		}
		codec := reflect.ValueOf(&sess.codec).Elem()
		for _, buf := range []string{"acked", "pendingPacked"} {
			if c := codec.FieldByName(buf).Cap(); c > oneView {
				t.Fatalf("the session of %s holds %d descriptors of %s, more than one view (%d)", book.Addr(id), c, buf, oneView)
			}
		}
	}
}

// TestStoppedNodeLeavesSessionCount: agg_peer_sessions is the sessions of
// the nodes running now.
func TestStoppedNodeLeavesSessionCount(t *testing.T) {
	held := peerSessions.Load()
	h := newHandNode(t, ModeScalar, 0)
	h.meetStrangers(t, 5, noView)
	if got := peerSessions.Load() - held; got != 5 {
		t.Fatalf("the session count moved by %d after meeting 5 peers", got)
	}
	if err := h.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := peerSessions.Load(); got != held {
		t.Fatalf("the session count reads %d after Stop, %d before the node", got, held)
	}
}

// TestFirstContactAllocs is the gate on the recency bound's other half:
// once the table is full, serving a peer the node has no session for —
// evict the idlest session, reset it, build a full-frame reply in its
// buffers — allocates nothing.
func TestFirstContactAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const runs = 200
	h := newHandNode(t, ModeScalar, 0)
	h.meetStrangers(t, 2*sessionCap(overlay.DefaultCacheSize), crowdView) // fill the table, grow every buffer
	from := make([]string, runs+1)
	data := make([][]byte, runs+1)
	for i := range data {
		ep := h.stranger()
		from[i], data[i] = ep.Addr(), h.requestFrom(t, ep, crowdView(ep.Addr()))
	}
	served, evicted := h.Metrics().ExchangesServed, sessionEvictions.Load()
	next := 0
	// A collection empties the workspace pool; over this many runs one
	// refill rounds to zero, as it does for sendBufs in the other gates.
	if n := testing.AllocsPerRun(runs, func() {
		h.handle(from[next], data[next])
		next++
	}); n != 0 {
		t.Fatalf("serving a never-seen peer with the table full allocates %.2f times, want 0", n)
	}
	if got := h.Metrics().ExchangesServed - served; got != runs+1 {
		t.Fatalf("served %d of %d first contacts", got, runs+1)
	}
	if got := sessionEvictions.Load() - evicted; got != runs+1 {
		t.Fatalf("%d evictions over %d first contacts", got, runs+1)
	}
}

// TestEvictionIsFirstContactForVersions: what the node does with a peer
// whose session was evicted is what it does with a peer never seen, at the
// one version there is: its hello is answered at Version with a full
// frame of generation 1 before and after the eviction, and our own first
// request after it goes out at Version with a full frame of generation 1,
// ack 0, the opening the peer's codec reads as a restart.
func TestEvictionIsFirstContactForVersions(t *testing.T) {
	h := newHandNode(t, ModeScalar, 0)
	bound := sessionCap(overlay.DefaultCacheSize)
	hello := func(seq uint64) {
		t.Helper()
		h.deliver(t, &wire.Membership{From: h.peer.Addr(), Seq: seq, View: wire.ViewFrame{Kind: wire.ViewFull, Gen: uint32(seq)}})
		reply, v := h.sentVersion(t)
		if mr, ok := reply.(*wire.MembershipReply); !ok || v != wire.Version || mr.View.Kind != wire.ViewFull || mr.View.Gen != 1 {
			t.Fatalf("hello %d was answered at version %d with %+v, want version %d and a full frame of generation 1", seq, v, reply, wire.Version)
		}
	}
	evictPeer := func() {
		t.Helper()
		h.meetStrangers(t, bound, noView)
		h.mu.Lock()
		_, held := h.sessionOf(h.peer.Addr())
		h.mu.Unlock()
		if held {
			t.Fatalf("the peer's session survived %d newer ones", bound)
		}
	}

	hello(1)
	evictPeer()
	hello(2)
	evictPeer()
	h.initiate(time.Now()) // the peer is all the view holds
	msg, v := h.sentVersion(t)
	req, ok := msg.(*wire.ExchangeRequest)
	if !ok {
		t.Fatalf("the node sent %T, want an exchange request", msg)
	}
	if v != wire.Version || req.View.Kind != wire.ViewFull || req.View.Gen != 1 || req.View.Ack != 0 {
		t.Fatalf("first request after eviction: version %d, frame kind %v gen %d ack %d; want version %d, full, 1, 0",
			v, req.View.Kind, req.View.Gen, req.View.Ack, wire.Version)
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
