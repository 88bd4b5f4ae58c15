package agent

import (
	"context"
	"sync"
	"testing"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/transport"
	"antientropy/internal/wire"
)

// probeEndpoint is a handler-mode mem endpoint that checks, on the one
// goroutine these tests run everything on, the two rules inline delivery
// rests on: its node never sends while holding its lock, and handlers nest
// at most two deep (request → reply → nothing).
type probeEndpoint struct {
	*transport.MemEndpoint
	probe *inlineProbe
	node  *Node
}

type inlineProbe struct {
	t               testing.TB
	depth, maxDepth int
	sent            map[wire.MsgType]int
}

func (e *probeEndpoint) Send(to string, data []byte) error {
	if !e.node.mu.TryLock() {
		e.probe.t.Errorf("%s sent to %s while holding its lock", e.Addr(), to)
	} else {
		e.node.mu.Unlock()
	}
	if m, err := wire.Decode(data); err == nil {
		e.probe.sent[m.Type()]++
	}
	return e.MemEndpoint.Send(to, data)
}

func (e *probeEndpoint) SetHandler(fn func(transport.Packet)) {
	e.MemEndpoint.SetHandler(func(p transport.Packet) {
		e.probe.depth++
		e.probe.maxDepth = max(e.probe.maxDepth, e.probe.depth)
		fn(p)
		e.probe.depth--
	})
}

// TestInlineDeliveryInvariants drives every message type through nodes on
// a zero-latency mem network by hand, so that every handler runs nested
// inside the Send that caused it.
func TestInlineDeliveryInvariants(t *testing.T) {
	probe := &inlineProbe{t: t, sent: map[wire.MsgType]int{}}
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 1})
	idle := core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: time.Hour, Gamma: 1 << 20}
	eps := make([]*probeEndpoint, 3)
	for i := range eps {
		eps[i] = &probeEndpoint{MemEndpoint: net.Endpoint(), probe: probe}
	}
	a, b, c := eps[0].Addr(), eps[1].Addr(), eps[2].Addr()
	configs := []Config{
		{Bootstrap: []string{b}},
		{Bootstrap: []string{a}},
		{Seeds: []string{a}}, // a joiner: JoinRequest now, membership gossip until the next epoch
	}
	nodes := make([]*Node, len(configs))
	for i, cfg := range configs {
		cfg.Endpoint, cfg.Schedule, cfg.Seed, cfg.Logger = eps[i], idle, uint64(i+1), quietLogger()
		cfg.Value = func() float64 { return float64(i) }
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eps[i].node, nodes[i] = node, node
	}
	for _, node := range nodes {
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, node := range nodes {
			_ = node.Stop()
		}
		net.Close()
	}()

	now := time.Now()
	nodes[0].initiate(now) // a ↔ b: request, reply
	nodes[2].initiate(now) // c → a: membership, membership reply
	// A request to the joiner is refused: a reply without a merge, same
	// nesting.
	forge := func(to, from string, seq uint64) {
		t.Helper()
		data, err := wire.Encode(&wire.ExchangeRequest{From: from, Payload: wire.Payload{
			Seq: seq, Epoch: nodes[0].Epoch(), FuncID: wire.FuncAverage, Scalar: 1,
			View: fullFrame(from, "probe", uint32(seq)),
		}})
		if err != nil {
			t.Fatal(err)
		}
		nodes[0].transmit(to, &data) // from a's endpoint, as any handler would send
	}
	forge(c, a, 100)
	// A request that claims to come from a third node: b answers c, which
	// finds no exchange to match the reply with.
	forge(b, c, 101)

	for _, typ := range []wire.MsgType{
		wire.TExchangeRequest, wire.TExchangeReply, wire.TJoinRequest,
		wire.TJoinReply, wire.TMembership, wire.TMembershipReply,
	} {
		if probe.sent[typ] == 0 {
			t.Errorf("no %v was sent: the test does not cover it", typ)
		}
	}
	if m := nodes[0].Metrics(); m.ExchangesCompleted != 1 {
		t.Errorf("a completed %d exchanges inline, want 1", m.ExchangesCompleted)
	}
	if m := nodes[2].Metrics(); m.RefusedJoining != 1 {
		t.Errorf("the joiner refused %d requests, want 1", m.RefusedJoining)
	}
	if probe.maxDepth != 2 {
		t.Errorf("handlers nested %d deep, want exactly 2 (a request's handler, then its reply's)", probe.maxDepth)
	}
	if probe.depth != 0 {
		t.Errorf("%d handlers never returned", probe.depth)
	}
}

// TestMemFleetConcurrentStop is TestMuxFleetStartStop for the mem
// network, with the Stops concurrent, as the scenario runner crashes
// nodes: inline delivery nests one endpoint's handler inside a send made
// from another's, so a lock-shaped Close barrier wedges two Stops against
// two nested deliveries.
func TestMemFleetConcurrentStop(t *testing.T) {
	const fleet, rounds = 64, 50
	stopped := make(chan struct{}, rounds)
	go func() {
		for round := 0; round < rounds; round++ {
			schedule := core.Schedule{Start: time.Now(), Delta: time.Second, CycleLen: 2 * time.Millisecond, Gamma: 30}
			nodes, net := startFleet(t, context.Background(), fleet, schedule, nil)
			time.Sleep(6 * time.Millisecond) // every node is cycling
			var wg sync.WaitGroup
			for _, node := range nodes {
				wg.Add(1)
				go func(node *Node) {
					defer wg.Done()
					_ = node.Stop()
				}(node)
			}
			wg.Wait()
			net.Close()
			stopped <- struct{}{}
		}
	}()
	for round := 0; round < rounds; round++ {
		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: stopping a handler-mode mem fleet concurrently wedged", round)
		}
	}
	if n := sched.size(); n != 0 {
		t.Fatalf("the scheduler still serves %d nodes", n)
	}
}
