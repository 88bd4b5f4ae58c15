package agent

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/race"
	"antientropy/internal/transport"
	"antientropy/internal/wire"
)

// TestDeltaGossipEngages runs a small live fleet and verifies the delta
// handshake forms end to end: after a few cycles of request/reply gossip
// every node has had a frame acknowledged by some peer, meaning its
// subsequent piggybacked views to that peer go out as deltas, not full
// copies. (A 4-node fleet rather than a pair: two nodes whose random
// phases land within the message-processing latency refuse each other
// forever — the synchronized-gossip livelock that predates this codec.)
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
			Bootstrap: addrs,
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
	defer func() {
		for _, n := range nodes {
			_ = n.Stop()
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		engaged := 0
		for _, n := range nodes {
			n.mu.Lock()
			for _, peer := range addrs {
				if peer == n.Addr() {
					continue
				}
				if sess, ok := n.sessionOf(peer); ok && sess.codec.AckedGen() > 0 {
					engaged++
					break
				}
			}
			n.mu.Unlock()
		}
		if engaged == fleet {
			return // every node sends deltas to at least one peer
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("delta handshake never formed: no acknowledged generations after 5s")
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
		for _, a := range n.Peers() {
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

// TestLegacyPeerNegotiation pins the per-connection version negotiation:
// a peer that speaks wire version 1 gets version-1 replies carrying a
// plain full view, and its message still updates our cache.
func TestLegacyPeerNegotiation(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 9})
	defer net.Close()
	legacy := net.Endpoint() // the old node, driven by hand
	ep := net.Endpoint()
	node, err := New(Config{
		Endpoint: ep,
		Schedule: core.Schedule{
			Start: time.Now(), Delta: time.Hour,
			CycleLen: time.Hour, Gamma: 1 << 20, // ticker never fires
		},
		Value:     func() float64 { return 1 },
		Bootstrap: []string{legacy.Addr()},
		Seed:      3,
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	msg := &wire.Membership{From: legacy.Addr(), Seq: 1, View: wire.ViewFrame{
		Kind:    wire.ViewFull,
		Entries: []wire.Descriptor{{Addr: "third:1", Stamp: 2}},
	}}
	data, err := wire.EncodeLegacy(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := legacy.Send(ep.Addr(), data); err != nil {
		t.Fatal(err)
	}

	select {
	case pkt := <-legacy.Recv():
		reply, version, err := new(wire.Decoder).Decode(pkt.Data)
		if err != nil {
			t.Fatal(err)
		}
		if version != wire.VersionLegacy {
			t.Fatalf("reply version = %d, want %d", version, wire.VersionLegacy)
		}
		mr, ok := reply.(*wire.MembershipReply)
		if !ok {
			t.Fatalf("reply is %T", reply)
		}
		if mr.View.Kind != wire.ViewFull || mr.View.Gen != 0 {
			t.Fatalf("legacy reply frame = %+v, want un-numbered full view", mr.View)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no membership reply")
	}

	// The legacy peer's gossip landed in the cache.
	deadline := time.Now().Add(time.Second)
	for {
		if containsAddr(node.Peers(), "third:1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("legacy gossip not absorbed; peers = %v", node.Peers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLegacyEncodeRejectsDelta documents the downgrade rule the agent
// relies on: a delta frame cannot be encoded at the legacy version.
func TestLegacyEncodeRejectsDelta(t *testing.T) {
	_, err := wire.EncodeLegacy(&wire.Membership{From: "a", Seq: 1, View: wire.ViewFrame{
		Kind: wire.ViewDelta, Gen: 2, Base: 1,
	}})
	if !errors.Is(err, wire.ErrBadViewKind) {
		t.Fatalf("EncodeLegacy(delta) = %v, want ErrBadViewKind", err)
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

// TestVersionNeverDowngrades pins the upgrade-only negotiation rule: a
// peer that once demonstrated wire version 2 keeps receiving version-2
// replies even if a later version-1 datagram arrives bearing its
// address (the echo of our own dual-version join probe, or a reordered
// legacy frame) — last-message-wins would latch two current nodes onto
// legacy full-view gossip permanently.
func TestVersionNeverDowngrades(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 11})
	defer net.Close()
	peer := net.Endpoint()
	ep := net.Endpoint()
	node, err := New(Config{
		Endpoint: ep,
		Schedule: core.Schedule{
			Start: time.Now(), Delta: time.Hour,
			CycleLen: time.Hour, Gamma: 1 << 20,
		},
		Value:     func() float64 { return 1 },
		Bootstrap: []string{peer.Addr()},
		Seed:      5,
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()

	sendAt := func(encode func(wire.Message) ([]byte, error), seq uint64) uint8 {
		t.Helper()
		data, err := encode(&wire.Membership{From: peer.Addr(), Seq: seq,
			View: wire.ViewFrame{Kind: wire.ViewFull, Gen: uint32(seq),
				Entries: []wire.Descriptor{{Addr: "x:1", Stamp: 1}}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := peer.Send(ep.Addr(), data); err != nil {
			t.Fatal(err)
		}
		select {
		case pkt := <-peer.Recv():
			_, version, err := new(wire.Decoder).Decode(pkt.Data)
			if err != nil {
				t.Fatal(err)
			}
			return version
		case <-time.After(2 * time.Second):
			t.Fatal("no reply")
			return 0
		}
	}

	if v := sendAt(wire.Encode, 1); v != wire.Version {
		t.Fatalf("v2 message answered at version %d", v)
	}
	// A stray legacy datagram must not downgrade the connection…
	if v := sendAt(wire.EncodeLegacy, 2); v != wire.Version {
		t.Fatalf("legacy echo downgraded the connection to version %d", v)
	}
	// …but a steady legacy stream means the peer really rolled back to a
	// legacy binary, and staying at version 2 would blackhole it.
	var last uint8
	for seq := uint64(3); seq < 3+uint64(downgradeStreak); seq++ {
		last = sendAt(wire.EncodeLegacy, seq)
	}
	if last != wire.VersionLegacy {
		t.Fatalf("persistent legacy stream not honored: still replying at version %d", last)
	}
	// And the rolled-back peer can upgrade again.
	if v := sendAt(wire.Encode, 99); v != wire.Version {
		t.Fatalf("re-upgrade failed: version %d", v)
	}
}
