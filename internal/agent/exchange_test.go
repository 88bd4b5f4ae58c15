package agent

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/race"
	"antientropy/internal/transport"
	"antientropy/internal/wire"
)

// handNode is a started node whose cycle (δ = 1 h) never comes due, wired
// to one peer endpoint the test owns and reads through Recv: the test
// plays the peer by hand — it calls initiate and handle directly, or has
// the scheduler run a cycle with cycleNow, and reads what the node sends
// off the peer endpoint.
type handNode struct {
	*Node
	net  *transport.MemNetwork
	peer *transport.MemEndpoint
}

func newHandNode(t testing.TB, mode Mode, timeout time.Duration) handNode {
	t.Helper()
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 1})
	peer := net.Endpoint()
	node, err := New(Config{
		Endpoint: net.Endpoint(),
		Schedule: core.Schedule{
			Start: time.Now(), Delta: time.Hour, CycleLen: time.Hour, Gamma: 1 << 20,
		},
		Mode:           mode,
		Value:          func() float64 { return 10 },
		Bootstrap:      []string{peer.Addr()},
		RequestTimeout: timeout,
		Seed:           1,
		Logger:         quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = node.Stop()
		net.Close()
	})
	return handNode{Node: node, net: net, peer: peer}
}

// sent returns the next message the node sent to the peer.
func (h handNode) sent(t testing.TB) wire.Message {
	t.Helper()
	select {
	case p := <-h.peer.Recv():
		m, err := wire.Decode(p.Data)
		p.Release()
		if err != nil {
			t.Fatal(err)
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("the node sent nothing")
		return nil
	}
}

// deliver hands the node one message from the peer, as its passive
// thread would.
func (h handNode) deliver(t testing.TB, m wire.Message) {
	t.Helper()
	data, err := wire.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	h.handle(h.peer.Addr(), data)
}

// exchange makes the node initiate and returns the request it sent. The
// scheduler does not know of the exchange and will not expire it.
func (h handNode) exchange(t testing.TB) *wire.ExchangeRequest {
	t.Helper()
	h.initiate(time.Now())
	return h.sentRequest(t)
}

func (h handNode) sentRequest(t testing.TB) *wire.ExchangeRequest {
	t.Helper()
	req, ok := h.sent(t).(*wire.ExchangeRequest)
	if !ok {
		t.Fatal("the node sent no exchange request")
	}
	return req
}

// cycleNow makes the node's next cycle due at once and returns the request
// it sent: the exchange is the scheduler's, deadline and all. The cycle
// after it is one δ away again.
func (h handNode) cycleNow(t testing.TB) *wire.ExchangeRequest {
	t.Helper()
	sched.mu.Lock()
	if h.sched.slot < 0 {
		sched.mu.Unlock()
		t.Fatal("the node is not queued on the scheduler")
	}
	sched.removeAt(h.sched.slot)
	h.sched.nextCycle = schedClock(time.Now())
	sched.queue(h.Node)
	sched.kick()
	sched.mu.Unlock()
	return h.sentRequest(t)
}

func (h handNode) reply(req *wire.ExchangeRequest, scalar float64) *wire.ExchangeReply {
	return &wire.ExchangeReply{From: h.peer.Addr(), Payload: wire.Payload{
		Seq: req.Seq, XID: req.XID, Epoch: req.Epoch, FuncID: wire.FuncAverage, Scalar: scalar,
	}}
}

func (h handNode) scalarNow() float64 {
	v, _ := h.Estimate()
	return v
}

// fullFrame is a 31-descriptor full view naming the given sender first
// and otherwise addresses derived from tag.
func fullFrame(sender, tag string, gen uint32) wire.ViewFrame {
	view := make([]wire.Descriptor, 31)
	view[0] = wire.Descriptor{Addr: sender, Stamp: 1}
	for i := 1; i < len(view); i++ {
		view[i] = wire.Descriptor{Addr: fmt.Sprintf("%s-%d:7000", tag, i), Stamp: int64(i)}
	}
	return wire.ViewFrame{Kind: wire.ViewFull, Gen: gen, Entries: view}
}

// TestServeExchangeAllocs gates the passive thread end to end: a full
// 31-descriptor scalar request delivered over the mem network to a
// started node, until the reply is back and released, within ROADMAP's
// 4-allocation target.
func TestServeExchangeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	h := newHandNode(t, ModeScalar, 0)
	data, err := wire.Encode(&wire.ExchangeRequest{From: h.peer.Addr(), Payload: wire.Payload{
		Seq: 1, Epoch: h.Epoch(), FuncID: wire.FuncAverage, Scalar: 2,
		View: fullFrame(h.peer.Addr(), "known", 1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		if err := h.peer.Send(h.Addr(), data); err != nil {
			t.Fatal(err)
		}
		p := <-h.peer.Recv()
		p.Release()
	}
	serve() // first contact: interned addresses, scratch growth
	if n := testing.AllocsPerRun(200, serve); n > 4 {
		t.Fatalf("serving one exchange request allocates %.1f times, want ≤ 4", n)
	}
	if m := h.Metrics(); m.ExchangesServed < 200 || m.DecodeErrors != 0 {
		t.Fatalf("requests were not served: %+v", m)
	}
}

// nodeState is everything a rejected datagram must leave alone. bookLen
// is the size of the process's shared book: no other test's fleet runs
// while these do.
type nodeState struct {
	bookLen int
	view    []uint64
	scalar  float64
	metrics Metrics
}

func (h handNode) state() nodeState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return nodeState{
		bookLen: book.Len(),
		view:    slices.Clone(h.view.Packed()),
		scalar:  h.scalar,
		metrics: h.Metrics(),
	}
}

// TestRejectedDatagramLeavesNoTrace: a datagram that names new addresses
// and then fails validation changes nothing but DecodeErrors — no
// address is interned in the process's shared book, the view stays as it
// was.
func TestRejectedDatagramLeavesNoTrace(t *testing.T) {
	h := newHandNode(t, ModeScalar, 0)
	// One valid exchange first, so the view holds state to corrupt.
	h.deliver(t, &wire.ExchangeRequest{From: h.peer.Addr(), Payload: wire.Payload{
		Seq: 1, Epoch: h.Epoch(), FuncID: wire.FuncAverage, Scalar: 2,
		View: fullFrame(h.peer.Addr(), "known", 1),
	}})
	h.sent(t)

	valid, err := wire.Encode(&wire.ExchangeRequest{From: "stranger:1", Payload: wire.Payload{
		Seq: 2, Epoch: h.Epoch(), FuncID: wire.FuncAverage, Scalar: 1e12,
		View: fullFrame("stranger:1", "evil", 2),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The frame starts after magic+version+type, From and the payload
	// head (seq, xid, epoch, func, flags, scalar, empty entry list).
	kindAt := 6 + 2 + len("stranger:1") + 8 + 8 + 8 + 1 + 1 + 8 + 2
	countAt := kindAt + 1 + 4 + 4
	if wire.ViewKind(valid[kindAt]) != wire.ViewFull || valid[countAt+1] != 31 {
		t.Fatal("test lost track of the frame layout")
	}
	corrupt := func(at int, b ...byte) []byte {
		d := slices.Clone(valid)
		copy(d[at:], b)
		return d
	}
	hostile := map[string][]byte{
		"truncated":      valid[:len(valid)-3],
		"trailing bytes": append(slices.Clone(valid), 0),
		"bad view kind":  corrupt(kindAt, 9),
		"oversize count": corrupt(countAt, 0xff, 0xff),
	}
	for name, data := range hostile {
		before := h.state()
		h.handle("stranger:1", data)
		after := h.state()
		if after.metrics.DecodeErrors != before.metrics.DecodeErrors+1 {
			t.Errorf("%s: DecodeErrors %d → %d, want one more", name, before.metrics.DecodeErrors, after.metrics.DecodeErrors)
		}
		before.metrics.DecodeErrors = after.metrics.DecodeErrors
		if !reflect.DeepEqual(before, after) {
			t.Errorf("%s: rejected datagram changed the node:\nbefore %+v\n after %+v", name, before, after)
		}
	}
	for _, d := range fullFrame("stranger:1", "evil", 2).Entries {
		if _, known := book.Lookup(d.Addr); known {
			t.Errorf("the shared book knows %q, which only rejected datagrams named", d.Addr)
		}
	}
	select {
	case p := <-h.peer.Recv():
		t.Fatalf("a rejected datagram was answered with %d bytes", len(p.Data))
	default:
	}
}

// TestDatagramBufferNotAliased: once handle returns, the datagram buffer
// belongs to its next user; scribbling over it changes no node state.
func TestDatagramBufferNotAliased(t *testing.T) {
	h := newHandNode(t, ModeScalar, 0)
	data, err := wire.Encode(&wire.ExchangeRequest{From: h.peer.Addr(), Payload: wire.Payload{
		Seq: 1, Epoch: h.Epoch(), FuncID: wire.FuncAverage, Scalar: 2,
		View: fullFrame(h.peer.Addr(), "fresh", 1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	h.handle(h.peer.Addr(), data)
	h.sent(t)
	peers, state := h.Peers(), h.state()
	if !slices.Contains(peers, "fresh-30:7000") {
		t.Fatalf("the request's view was not absorbed: %v", peers)
	}
	for i := range data {
		data[i] = 0xaa
	}
	if got := h.Peers(); !reflect.DeepEqual(got, peers) {
		t.Fatalf("view addresses changed with the datagram buffer:\n got %v\nwant %v", got, peers)
	}
	if got := h.state(); !reflect.DeepEqual(got, state) {
		t.Fatalf("node state changed with the datagram buffer:\n got %+v\nwant %+v", got, state)
	}
	if _, ok := book.Lookup("fresh-30:7000"); !ok {
		t.Fatal("an address the datagram named cannot be found in the book any more")
	}
}

// TestDuplicateReplyAppliedOnce: the first reply completes the exchange,
// a duplicate of it finds nothing outstanding.
func TestDuplicateReplyAppliedOnce(t *testing.T) {
	h := newHandNode(t, ModeScalar, 0)
	req := h.exchange(t)
	h.deliver(t, h.reply(req, 20))
	h.deliver(t, h.reply(req, 20))
	if got := h.scalarNow(); got != 15 {
		t.Fatalf("estimate %g after a duplicated reply, want 15 (one merge of 10 and 20)", got)
	}
	if m := h.Metrics(); m.ExchangesCompleted != 1 || m.RTTSamples != 1 {
		t.Fatalf("completed %d exchanges over %d round trips, want 1 and 1", m.ExchangesCompleted, m.RTTSamples)
	}
	// The node is free again, and the next exchange has its own reply.
	req = h.exchange(t)
	h.deliver(t, h.reply(req, 5))
	if got := h.scalarNow(); got != 10 {
		t.Fatalf("estimate %g after the second exchange, want 10", got)
	}
}

// TestPeerDrawnAhead: initiation k goes to the peer drawn at initiation
// k−peerLead. A reply whose frame replaces the node's whole view does not
// redirect the next peerLead exchanges, whose peers were drawn from the
// view before it; the one after them goes to a peer the frame named.
func TestPeerDrawnAhead(t *testing.T) {
	h := newHandNode(t, ModeScalar, 0)
	// As many descriptors as the cache holds, all fresher than the
	// bootstrap's and none of them the peer: the frame evicts the view.
	frame := wire.ViewFrame{Kind: wire.ViewFull}
	for i := range h.view.Capacity() {
		frame.Entries = append(frame.Entries, wire.Descriptor{Addr: fmt.Sprintf("ahead-%d:7000", i), Stamp: 5})
	}
	reply := h.reply(h.exchange(t), 20)
	reply.View = frame
	h.deliver(t, reply)
	if slices.Contains(h.Peers(), h.peer.Addr()) {
		t.Fatal("the reply's frame left the peer in the view")
	}
	for k := 2; k <= 2+peerLead; k++ {
		h.initiate(time.Now())
		h.mu.Lock()
		to := h.pending.peer
		h.mu.Unlock()
		if k == 2+peerLead {
			if !strings.HasPrefix(to, "ahead-") {
				t.Fatalf("initiation %d went to %s, want a peer the frame named", k, to)
			}
			break
		}
		if to != h.peer.Addr() {
			t.Fatalf("initiation %d went to %s, want the peer drawn before the frame arrived", k, to)
		}
		h.deliver(t, h.reply(h.sentRequest(t), 20))
	}
}

// TestReplyAfterTimeoutAbsorbsViewOnly: the paper's lost response
// (§7.2) — the state is not merged, but the membership descriptors the
// late reply carries are as good as any.
func TestReplyAfterTimeoutAbsorbsViewOnly(t *testing.T) {
	const timeout = 20 * time.Millisecond
	h := newHandNode(t, ModeScalar, timeout)
	sent := time.Now()
	req := h.cycleNow(t)
	deadline := time.Now().Add(5 * time.Second)
	for h.Metrics().Timeouts == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the exchange never timed out")
		}
		time.Sleep(time.Millisecond)
	}
	if waited := time.Since(sent); waited < timeout {
		t.Fatalf("the exchange was expired after %v, before its %v timeout", waited, timeout)
	}
	late := h.reply(req, 20)
	late.View = wire.ViewFrame{Kind: wire.ViewFull, Gen: 1,
		Entries: []wire.Descriptor{{Addr: "late:1", Stamp: 1}}}
	h.deliver(t, late)
	if got := h.scalarNow(); got != 10 {
		t.Fatalf("a reply after the timeout was merged: estimate %g, want 10", got)
	}
	if m := h.Metrics(); m.ExchangesCompleted != 0 || m.Timeouts != 1 {
		t.Fatalf("completed %d, timeouts %d; want 0 and 1", m.ExchangesCompleted, m.Timeouts)
	}
	if !slices.Contains(h.Peers(), "late:1") {
		t.Fatal("the late reply's view was not absorbed")
	}
	// The timeout freed the node (its next peer may be the unreachable
	// late:1, so count the attempt rather than wait for a request).
	h.initiate(time.Now())
	if m := h.Metrics(); m.ExchangesInitiated != 2 {
		t.Fatalf("initiated %d exchanges, want 2: the timeout did not clear busy", m.ExchangesInitiated)
	}
}

// TestStaleEpochReplyDropped: a reply tagged with another epoch ends the
// exchange without a merge.
func TestStaleEpochReplyDropped(t *testing.T) {
	h := newHandNode(t, ModeScalar, 0)
	req := h.exchange(t)
	stale := h.reply(req, 20)
	stale.Epoch = req.Epoch + 1
	h.deliver(t, stale)
	if got := h.scalarNow(); got != 10 {
		t.Fatalf("a stale-epoch reply was merged: estimate %g, want 10", got)
	}
	if m := h.Metrics(); m.StaleDropped != 1 || m.ExchangesCompleted != 0 {
		t.Fatalf("stale dropped %d, completed %d; want 1 and 0", m.StaleDropped, m.ExchangesCompleted)
	}
	h.exchange(t) // and the node is free again
}

// TestStopWithExchangeOutstanding: Stop abandons the exchange — no
// goroutine waits for the reply, its deadline leaves the scheduler with
// the node and never counts a timeout.
func TestStopWithExchangeOutstanding(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newHandNode(t, ModeScalar, 50*time.Millisecond)
	h.cycleNow(t)
	if err := h.Stop(); err != nil {
		t.Fatal(err)
	}
	if n := sched.size(); n != 0 {
		t.Fatalf("the scheduler still serves %d nodes after Stop", n)
	}
	time.Sleep(100 * time.Millisecond) // past the timeout
	if m := h.Metrics(); m.Timeouts != 0 {
		t.Fatalf("a stopped node counted %d timeouts", m.Timeouts)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Stop", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentHandlersRaceClean: a handler-mode transport may deliver
// to one node from several reader goroutines at once, while the active
// thread initiates; run under -race.
func TestConcurrentHandlersRaceClean(t *testing.T) {
	h := newHandNode(t, ModeScalar, time.Millisecond)
	epoch := h.Epoch()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			from := fmt.Sprintf("reader-%d:1", g)
			for i := 1; i <= 300; i++ {
				data, err := wire.Encode(&wire.ExchangeRequest{From: from, Payload: wire.Payload{
					Seq: uint64(i), Epoch: epoch, FuncID: wire.FuncAverage, Scalar: float64(g),
					View: fullFrame(from, from, uint32(i)),
				}})
				if err != nil {
					t.Error(err)
					return
				}
				h.handle(from, data)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			h.initiate(time.Now())
			h.handle(h.peer.Addr(), nil) // and a decode error in between
		}
	}()
	wg.Wait()
	if m := h.Metrics(); m.ExchangesServed+m.RefusedBusy != 600 {
		t.Fatalf("served %d + refused %d of 600 requests", m.ExchangesServed, m.RefusedBusy)
	}
}

// TestMergeEntriesMatchesCoreMerge: for random pairs of COUNT states the
// in-place merge equals core.Merge bit for bit on both sides of the
// exchange, and every instance's mass over the two nodes is conserved
// (§3, §5).
func TestMergeEntriesMatchesCoreMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randomState := func() core.MapState {
		s := core.MapState{}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			s[core.LeaderID(rng.Intn(16))] = rng.Float64()
		}
		return s
	}
	entriesOf := func(s core.MapState) []wire.MapEntry {
		es := make([]wire.MapEntry, 0, len(s))
		for l, v := range s {
			es = append(es, wire.MapEntry{Leader: int64(l), Value: v})
		}
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		return es
	}
	sameBits := func(a, b core.MapState) bool {
		if len(a) != len(b) {
			return false
		}
		for l, v := range a {
			if w, ok := b[l]; !ok || math.Float64bits(v) != math.Float64bits(w) {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := randomState(), randomState()
		want := core.Merge(a, b)
		responder, initiator := a.Clone(), b.Clone()
		mergeEntries(responder, entriesOf(b))
		mergeEntries(initiator, entriesOf(a))
		if !sameBits(responder, want) || !sameBits(initiator, want) {
			t.Fatalf("trial %d: in-place merge differs from core.Merge:\n a %v\n b %v\n responder %v\n initiator %v\n want %v",
				trial, a, b, responder, initiator, want)
		}
		for l, m := range want {
			if 2*m != a[l]+b[l] {
				t.Fatalf("trial %d: leader %d holds %g on each side after, %g+%g before", trial, l, m, a[l], b[l])
			}
		}
	}
}

// TestMergeEntriesRepeatedLeader: a hostile payload that repeats a
// leader is read as a map would read it — the last entry wins.
func TestMergeEntriesRepeatedLeader(t *testing.T) {
	ours := core.MapState{7: 0.5, 8: 0.25}
	mergeEntries(ours, []wire.MapEntry{{Leader: 7, Value: 0.1}, {Leader: 9, Value: 0.3}, {Leader: 7, Value: 0.9}, {Leader: 9, Value: 0.5}})
	want := core.Merge(core.MapState{7: 0.5, 8: 0.25}, core.MapState{7: 0.9, 9: 0.5})
	if !reflect.DeepEqual(ours, want) {
		t.Fatalf("merged %v, want %v", ours, want)
	}
}

// TestCountExchangeInPlace drives one COUNT exchange by hand through the
// payload and apply paths.
func TestCountExchangeInPlace(t *testing.T) {
	h := newHandNode(t, ModeCount, 0)
	h.mu.Lock()
	h.mapState = core.MapState{1: 1, 2: 0.5}
	h.mu.Unlock()
	req := h.exchange(t)
	slices.SortFunc(req.Entries, func(a, b wire.MapEntry) int { return int(a.Leader - b.Leader) })
	if want := []wire.MapEntry{{Leader: 1, Value: 1}, {Leader: 2, Value: 0.5}}; !reflect.DeepEqual(req.Entries, want) {
		t.Fatalf("request carries %v, want %v", req.Entries, want)
	}
	reply := h.reply(req, 0)
	reply.FuncID = wire.FuncCount
	reply.Entries = []wire.MapEntry{{Leader: 3, Value: 1}, {Leader: 2, Value: 0.25}}
	h.deliver(t, reply)
	h.mu.Lock()
	got := h.mapState.Clone()
	h.mu.Unlock()
	if want := (core.MapState{1: 0.5, 2: 0.375, 3: 0.5}); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after the exchange %v, want %v", got, want)
	}
}

// TestCountRestartReusesMap: an epoch restart clears the COUNT map
// instead of replacing it, so once an epoch has met k leaders a later
// epoch that meets k again allocates nothing for them, and what a run
// allocates does not follow how many leaders each epoch's coins elect.
func TestCountRestartReusesMap(t *testing.T) {
	h := newHandNode(t, ModeCount, 0)
	entries := make([]wire.MapEntry, 20)
	for i := range entries {
		entries[i] = wire.MapEntry{Leader: int64(i + 1), Value: 1}
	}
	epoch := func() {
		h.mu.Lock()
		h.resetStateLocked()
		mergeEntries(h.mapState, entries)
		h.mu.Unlock()
	}
	epoch() // the first epoch grows the map
	if n := testing.AllocsPerRun(100, epoch); n != 0 {
		t.Fatalf("an epoch restart and a merge of %d leaders allocate %.1f times, want 0", len(entries), n)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, e := range entries {
		if got := h.mapState[core.LeaderID(e.Leader)]; got != 0.5 {
			t.Fatalf("leader %d holds %v after the restart's merge, want 0.5", e.Leader, got)
		}
	}
}

// TestMuxFleetStartStop is the regression test for the MuxEndpoint.Close
// deadlock: Close queued for the delivery lock's write side while a
// handler, holding the read side, re-entered it through Send. Stopping a
// busy handler-mode fleet hit it within a few tries.
func TestMuxFleetStartStop(t *testing.T) {
	const fleet, rounds = 64, 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < rounds; round++ {
			mux, err := transport.NewUDPMux(transport.UDPMuxConfig{})
			if err != nil {
				t.Error(err)
				return
			}
			sched := core.Schedule{Start: time.Now(), Delta: time.Second, CycleLen: 25 * time.Millisecond, Gamma: 30}
			eps := make([]*transport.MuxEndpoint, fleet)
			addrs := make([]string, fleet)
			for i := range eps {
				if eps[i], err = mux.Endpoint(); err != nil {
					t.Error(err)
					return
				}
				addrs[i] = eps[i].Addr()
			}
			nodes := make([]*Node, fleet)
			for i := range nodes {
				v := float64(i)
				nodes[i], err = New(Config{
					Endpoint: eps[i], Schedule: sched, Value: func() float64 { return v },
					Bootstrap: addrs, Seed: uint64(i + 1), Logger: quietLogger(),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := nodes[i].Start(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
			time.Sleep(40 * time.Millisecond) // every node's first exchange is in the air
			for _, node := range nodes {
				_ = node.Stop()
			}
			_ = mux.Close()
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("stopping a handler-mode fleet deadlocked")
	}
}
