package agent

import (
	"cmp"
	"context"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/race"
	"antientropy/internal/transport"
	"antientropy/internal/wire"
)

// TestDeltaGossipEngages runs a small live fleet and verifies that
// full-view gossip spreads membership end to end: every node is founded
// knowing only the next one around a ring, and within a few cycles every
// view names the other three. Every frame sent — one per exchange request
// and one per served reply — is counted as full, none as a delta. (A
// 4-node fleet rather than a pair: two nodes whose random phases land
// within the message-processing latency refuse each other forever — the
// synchronized-gossip livelock.)
func TestDeltaGossipEngages(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 7})
	defer net.Close()
	sched := core.Schedule{
		Start:    time.Now(),
		Delta:    time.Second,
		CycleLen: 10 * time.Millisecond,
		Gamma:    100,
	}
	const fleet = 4
	eps := make([]*transport.MemEndpoint, fleet)
	addrs := make([]string, fleet)
	for i := range eps {
		eps[i] = net.Endpoint()
		addrs[i] = eps[i].Addr()
	}
	nodes := make([]*Node, fleet)
	for i := range nodes {
		node, err := New(Config{
			Endpoint: eps[i], Schedule: sched,
			Value:     func() float64 { return float64(i) },
			Bootstrap: addrs[(i+1)%fleet : (i+1)%fleet+1],
			Seed:      uint64(i + 1),
			Logger:    quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	stop := func() {
		for _, n := range nodes {
			_ = n.Stop() // idempotent
		}
	}
	defer stop()

	knowsAll := func() bool {
		for _, n := range nodes {
			if n.PeerCount() != fleet-1 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for !knowsAll() {
		if time.Now().After(deadline) {
			for _, n := range nodes {
				t.Logf("%s knows %v", n.Addr(), n.peers())
			}
			t.Fatal("the views do not name the whole fleet after 5s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop()
	var sum Metrics
	for _, n := range nodes {
		sum.Accumulate(n.Metrics())
	}
	if frames := sum.ExchangesInitiated + sum.ExchangesServed; sum.GossipFramesFull != frames || sum.GossipFramesDelta != 0 {
		t.Fatalf("%d full and %d delta frames counted for %d requests and %d served replies",
			sum.GossipFramesFull, sum.GossipFramesDelta, sum.ExchangesInitiated, sum.ExchangesServed)
	}
	if sum.GossipEntriesSent > fleet*sum.GossipFramesFull {
		t.Fatalf("%d descriptors over %d frames: a frame holds at most the view and self, %d", sum.GossipEntriesSent, sum.GossipFramesFull, fleet)
	}
}

// TestSharedBookTieBreakStarvesNobody: all nodes of a process take their
// ids from one book, and a packed view ranks equal-stamp descriptors by
// key, so a full cache drops the highest key of the oldest stamp. Were
// the key the bare id, the address interned last would lose in every
// cache at once (viewKey has the measurement); salted per node, it must
// not: after 30 cycles of a 200-node fleet no node has in-degree 0, and
// the tenth of the fleet with the highest ids is named by at least half
// as many caches as the tenth with the lowest.
func TestSharedBookTieBreakStarvesNobody(t *testing.T) {
	const fleet, contacts, cycles = 200, 30, 30
	cycle := 40 * time.Millisecond
	if race.Enabled {
		cycle = 150 * time.Millisecond // the detector slows an exchange several times over
	}
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 11})
	defer net.Close()
	sched := core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: cycle, Gamma: 1 << 20}
	eps := make([]*transport.MemEndpoint, fleet)
	addrs := make([]string, fleet)
	for i := range eps {
		eps[i] = net.Endpoint()
		addrs[i] = eps[i].Addr()
	}
	rng := rand.New(rand.NewSource(11))
	nodes := make([]*Node, fleet)
	for i := range nodes {
		var boot []string
		for _, j := range rng.Perm(fleet) {
			if j != i && len(boot) < contacts {
				boot = append(boot, addrs[j])
			}
		}
		node, err := New(Config{
			Endpoint: eps[i], Schedule: sched, Value: func() float64 { return 1 },
			Bootstrap: boot, Seed: uint64(i + 1), Logger: quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, n := range nodes {
			_ = n.Stop()
		}
	}()
	time.Sleep(time.Until(sched.Start.Add(cycles * cycle)))

	indegree := make(map[string]int, fleet)
	for _, n := range nodes {
		for _, a := range n.peers() {
			indegree[a]++
		}
	}
	// The fleet's addresses in book-id order, lowest id first.
	slices.SortFunc(addrs, func(a, b string) int {
		ia, _ := book.Lookup(a)
		ib, _ := book.Lookup(b)
		return cmp.Compare(ia, ib)
	})
	var deciles [10]float64
	for i, a := range addrs {
		if indegree[a] == 0 {
			id, _ := book.Lookup(a)
			t.Errorf("no cache names %s (book id %d) after %d cycles", a, id, cycles)
		}
		deciles[i*10/fleet] += float64(indegree[a]) / (fleet / 10)
	}
	t.Logf("mean in-degree per decile of book id, lowest ids first: %.1f", deciles)
	if deciles[9] < deciles[0]/2 {
		t.Errorf("the highest-id decile has mean in-degree %.1f, less than half the lowest-id decile's %.1f", deciles[9], deciles[0])
	}
}

// TestLegacyPeerNegotiation: there is nothing to negotiate. The earlier
// wire versions' golden datagrams (internal/wire's oldVersions: a
// Membership from "n1" naming "n2" and "n3" at versions 1 and 2, an
// ExchangeRequest from "n1" at version 2) each count one decode error and
// leave the node as it was, counters included, which every reply path
// moves: no reply, nothing absorbed. The Membership at Version is answered
// at Version and absorbed.
func TestLegacyPeerNegotiation(t *testing.T) {
	h := newHandNode(t, ModeScalar, 0)
	for _, old := range []string{
		"414530340105" + "00026e31" + "0000000000000007" + "0002" +
			"00026e32" + "0000000000000010" + "00026e33" + "0000000000000011",
		"414530340205" + "00026e31" + "0000000000000007" + "01" + "00000001" + "00000000" + "0002" +
			"00026e32" + "0000000000000010" + "00026e33" + "0000000000000011",
		"414530340201" + "00026e31" + "0000000000000002" + "0000000000000003" + "01" + "00" +
			"3ff8000000000000" + "0000" + "02" + "00000005" + "00000004" + "00000003" + "0001" +
			"00026e39" + "0000000000000012",
	} {
		data, err := hex.DecodeString(old)
		if err != nil {
			t.Fatal(err)
		}
		before := h.state()
		h.handle("n1", data)
		after := h.state()
		if after.metrics.DecodeErrors != before.metrics.DecodeErrors+1 {
			t.Errorf("version %d: DecodeErrors %d → %d, want one more", data[4], before.metrics.DecodeErrors, after.metrics.DecodeErrors)
		}
		before.metrics.DecodeErrors = after.metrics.DecodeErrors
		if !reflect.DeepEqual(before, after) {
			t.Errorf("a version %d datagram changed the node:\nbefore %+v\n after %+v", data[4], before, after)
		}
	}
	h.deliver(t, &wire.Membership{From: h.peer.Addr(), Seq: 7, View: wire.ViewFrame{Kind: wire.ViewFull, Gen: 1,
		Entries: []wire.Descriptor{{Addr: "n2", Stamp: 16}, {Addr: "n3", Stamp: 17}}}})
	if reply, v := h.sentVersion(t); v != wire.Version || reply.Type() != wire.TMembershipReply {
		t.Fatalf("the current hello was answered with a %v at version %d", reply.Type(), v)
	}
	if peers := h.peers(); !containsAddr(peers, "n2") || !containsAddr(peers, "n3") {
		t.Fatalf("the current hello's view was not absorbed: %v", peers)
	}
}

// TestJoinSendsOneRequest: a join is one JoinRequest, at Version — not
// one per wire version the seed might speak.
func TestJoinSendsOneRequest(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 9})
	defer net.Close()
	seed := net.Endpoint()
	node, err := New(Config{
		Endpoint: net.Endpoint(),
		Schedule: core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: time.Hour, Gamma: 1 << 20},
		Value:    func() float64 { return 1 },
		Seeds:    []string{seed.Addr()},
		Logger:   quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	// Start sends the request inline, and the cycle is an hour away.
	if n := len(seed.Recv()); n != 1 {
		t.Fatalf("the join sent the seed %d datagrams, want 1", n)
	}
	p := <-seed.Recv()
	if m, err := wire.Decode(p.Data); err != nil || m.Type() != wire.TJoinRequest || p.Data[4] != wire.Version {
		t.Fatalf("the join sent %v (%v) at version %d", m, err, p.Data[4])
	}
}

func containsAddr(addrs []string, want string) bool {
	for _, a := range addrs {
		if a == want {
			return true
		}
	}
	return false
}

// TestVersionNeverDowngrades: whatever version byte arrives, the node
// speaks Version. A stream of hellos relabelled to the earlier versions —
// what a peer rolled back to an older binary would send — draws no reply,
// and the next current hello is answered at Version as the first was.
func TestVersionNeverDowngrades(t *testing.T) {
	h := newHandNode(t, ModeScalar, 0)
	data, err := wire.Encode(&wire.Membership{From: h.peer.Addr(), Seq: 1, View: wire.ViewFrame{Kind: wire.ViewFull, Gen: 1}})
	if err != nil {
		t.Fatal(err)
	}
	hello := func(version byte) {
		d := slices.Clone(data)
		d[4] = version
		h.handle(h.peer.Addr(), d)
	}
	hello(wire.Version)
	if _, v := h.sentVersion(t); v != wire.Version {
		t.Fatalf("a current hello was answered at version %d", v)
	}
	for _, version := range []byte{1, 2, 1, 1, 2, 2} {
		hello(version)
	}
	select {
	case p := <-h.peer.Recv():
		t.Fatalf("an old-version hello was answered at version %d", p.Data[4])
	default: // delivery is inline: a reply would be queued by now
	}
	if m := h.Metrics(); m.DecodeErrors != 6 {
		t.Fatalf("%d decode errors for 6 old-version hellos", m.DecodeErrors)
	}
	hello(wire.Version)
	if _, v := h.sentVersion(t); v != wire.Version {
		t.Fatalf("after the old-version stream a current hello was answered at version %d", v)
	}
}

// TestStampFromWireClamps: a stamp outside the tick range [0, 2³¹) is
// clamped into it, not wrapped.
func TestStampFromWireClamps(t *testing.T) {
	for stamp, want := range map[int64]int32{-1: 0, 0: 0, 7: 7, math.MaxInt32: math.MaxInt32, 1 << 40: math.MaxInt32} {
		if got := stampFromWire(stamp); got != want {
			t.Errorf("stampFromWire(%d) = %d, want %d", stamp, got, want)
		}
	}
}
