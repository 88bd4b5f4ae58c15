package agent

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/overlay"
	"antientropy/internal/transport"
	"antientropy/internal/wire"
)

// BenchmarkHandleExchangeRequest measures the passive-thread hot path:
// decode + epoch check + reply + state merge for one datagram.
func BenchmarkHandleExchangeRequest(b *testing.B) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 1})
	defer net.Close()
	peer := net.Endpoint()
	node, err := New(Config{
		Endpoint: net.Endpoint(),
		Schedule: core.Schedule{
			Start: time.Now(), Delta: time.Hour,
			CycleLen: time.Hour, Gamma: 1 << 20, // ticker never fires
		},
		Value:     func() float64 { return 1 },
		Bootstrap: []string{peer.Addr()},
		Seed:      1,
		Logger:    quietLogger(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer node.Stop()
	gossip := make([]wire.Descriptor, 0, 31)
	gossip = append(gossip, wire.Descriptor{Addr: peer.Addr(), Stamp: 1})
	for i := 0; i < 30; i++ {
		gossip = append(gossip, wire.Descriptor{Addr: fmt.Sprintf("10.9.0.%d:7000", i), Stamp: int64(i)})
	}
	msg := &wire.ExchangeRequest{From: peer.Addr(), Payload: wire.Payload{
		Seq: 1, Epoch: node.Epoch(), FuncID: wire.FuncAverage, Scalar: 2,
		View: wire.ViewFrame{Kind: wire.ViewFull, Gen: 1, Entries: gossip},
	}}
	data, err := wire.Encode(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.handle(peer.Addr(), data)
	}
}

// BenchmarkLiveClusterEpoch measures wall-clock epochs of a real 16-node
// cluster over the in-memory transport (end-to-end: timers, sockets,
// codec, merges).
func BenchmarkLiveClusterEpoch(b *testing.B) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 2})
	defer net.Close()
	sched := core.Schedule{
		Start:    time.Now(),
		Delta:    100 * time.Millisecond,
		CycleLen: 5 * time.Millisecond,
		Gamma:    20,
	}
	const n = 16
	eps := make([]*transport.MemEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		eps[i] = net.Endpoint()
		addrs[i] = eps[i].Addr()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		v := float64(i)
		node, err := New(Config{
			Endpoint: eps[i], Schedule: sched,
			Value:     func() float64 { return v },
			Bootstrap: addrs, Seed: uint64(i + 1), Logger: quietLogger(),
		})
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = node
		if err := node.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	defer func() {
		for _, node := range nodes {
			_ = node.Stop()
		}
	}()
	sub := nodes[0].Subscribe(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		select {
		case <-sub:
		case <-time.After(5 * time.Second):
			b.Fatal("no epoch output within 5s")
		}
	}
	b.StopTimer()
	m := nodes[0].Metrics()
	b.ReportMetric(float64(m.ExchangesCompleted)/float64(b.N), "exchanges/epoch")
}

// BenchmarkSchedulerWorkerSlice is the measurement the one-scheduler
// design is held to: a UDP worker's slice — 3 000 nodes on one mux, the
// size of transport's BenchmarkUDPWorkerCycle — cycled at δ = 150 ms by
// the process's single scheduler goroutine. One iteration is one δ. It
// reports how late cycles started (the upper bound of the histogram bucket
// holding the 99th percentile of agg_tick_lag_seconds) and the share of
// initiated exchanges that completed; shard the heap only if lag-p99
// passes δ/8.
func BenchmarkSchedulerWorkerSlice(b *testing.B) {
	const n = 3000
	delta := 150 * time.Millisecond
	mux, err := transport.NewUDPMux(transport.UDPMuxConfig{ReadBuffer: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer mux.Close()
	schedule := core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: delta, Gamma: 1 << 20}
	eps := make([]*transport.MuxEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		if eps[i], err = mux.Endpoint(); err != nil {
			b.Fatal(err)
		}
		addrs[i] = eps[i].Addr()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		boot := make([]string, 0, 30)
		for k := 1; k <= 30; k++ {
			boot = append(boot, addrs[(i+k*97)%n])
		}
		v := float64(i)
		nodes[i], err = New(Config{
			Endpoint: eps[i], Schedule: schedule, Value: func() float64 { return v },
			Bootstrap: boot, Seed: uint64(i + 1), Logger: quietLogger(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := nodes[i].Start(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	defer func() {
		for _, node := range nodes {
			_ = node.Stop()
		}
	}()
	time.Sleep(2 * delta) // every node has had its first cycle
	lagBefore := sched.lag.Snapshot()
	var before Metrics
	for _, node := range nodes {
		before.Accumulate(node.Metrics())
	}
	b.ResetTimer()
	time.Sleep(time.Duration(b.N) * delta)
	b.StopTimer()
	lag := sched.lag.Snapshot()
	var after Metrics
	for _, node := range nodes {
		after.Accumulate(node.Metrics())
	}
	cycles := lag.Count - lagBefore.Count
	p99 := math.Inf(1)
	var seen int64
	for i, c := range lag.Counts {
		seen += c - lagBefore.Counts[i]
		if i < len(lag.Bounds) && float64(seen) >= 0.99*float64(cycles) {
			p99 = lag.Bounds[i]
			break
		}
	}
	b.ReportMetric(p99*1e3, "lag-p99-ms")
	b.ReportMetric((lag.Sum-lagBefore.Sum)/float64(cycles)*1e6, "lag-mean-µs")
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/δ")
	b.ReportMetric(float64(after.ExchangesCompleted-before.ExchangesCompleted)/
		float64(after.ExchangesInitiated-before.ExchangesInitiated), "completed-share")
}

// BenchmarkNodeResidentBytes is the rung of the recency bound: what a node
// keeps, on the heap, after it has met a number of distinct peers — its
// protocol state, its view and its sessions, which stop at sessionCap
// however many peers there are. Hand-driven, no clock: each of 200 nodes
// serves one exchange request, with a full view, from each of its peers;
// B/node is the growth of the live heap over the fleet, its construction
// included.
func BenchmarkNodeResidentBytes(b *testing.B) {
	for _, peers := range []int{150, 450} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			const fleet = 200
			net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 1})
			defer net.Close()
			idle := core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: time.Hour, Gamma: 1 << 20}
			from := make([]string, peers)
			requests := make([][]byte, peers)
			for i := range requests {
				ep := net.Endpoint()
				ep.SetHandler(func(p transport.Packet) { p.Release() })
				from[i] = ep.Addr()
			}
			for i := range requests {
				view := make([]wire.Descriptor, 0, 31)
				for k := 0; k < 31; k++ {
					view = append(view, wire.Descriptor{Addr: from[(i+k)%peers], Stamp: int64(k)})
				}
				data, err := wire.Encode(&wire.ExchangeRequest{From: from[i], Payload: wire.Payload{
					Seq: 1, FuncID: wire.FuncAverage, Scalar: 2,
					View: wire.ViewFrame{Kind: wire.ViewFull, Gen: 1, Entries: view},
				}})
				if err != nil {
					b.Fatal(err)
				}
				requests[i] = data
			}
			var perNode float64
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				nodes := make([]*Node, fleet)
				for j := range nodes {
					node, err := New(Config{
						Endpoint: net.Endpoint(), Schedule: idle, Value: func() float64 { return 1 },
						Bootstrap: from[:1], Seed: uint64(j + 1), Logger: quietLogger(),
					})
					if err != nil {
						b.Fatal(err)
					}
					if err := node.Start(context.Background()); err != nil {
						b.Fatal(err)
					}
					nodes[j] = node
					for k, data := range requests {
						node.handle(from[k], data)
					}
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				perNode = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / fleet
				b.StopTimer()
				var served int64
				for _, node := range nodes {
					served += node.Metrics().ExchangesServed
					_ = node.Stop()
				}
				if served != int64(fleet*peers) {
					b.Fatalf("%d of %d requests served", served, fleet*peers)
				}
				b.StartTimer()
			}
			b.ReportMetric(perNode, "B/node")
		})
	}
}

// benchEncodeNode builds a node with a full 30-descriptor NEWSCAST view
// and a schedule whose ticker never fires, so the benchmark drives the
// gossip encode path by hand.
func benchEncodeNode(b *testing.B) (*Node, []string) {
	b.Helper()
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 1})
	b.Cleanup(func() { net.Close() })
	contacts := make([]string, 30)
	for i := range contacts {
		contacts[i] = fmt.Sprintf("10.0.0.%d:7000", i+1)
	}
	node, err := New(Config{
		Endpoint: net.Endpoint(),
		Schedule: core.Schedule{
			Start: time.Now(), Delta: time.Hour,
			CycleLen: time.Hour, Gamma: 1 << 20,
		},
		Value:     func() float64 { return 1 },
		Bootstrap: contacts,
		Seed:      1,
		Logger:    quietLogger(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = node.Stop() })
	return node, contacts
}

// benchAgentCycleEncode measures the per-cycle cost of snapshotting the
// node state and encoding one exchange request — the live executor's
// dominant CPU item. Every iteration models one steady-state cycle: two
// cache descriptors refresh (one served and one initiated exchange's
// worth of churn) plus the node's own fresh self-descriptor. With
// established=false every frame carries the full ~30-descriptor view
// (the pre-delta protocol, and still the first-contact cost); with
// established=true the peer acknowledges each frame, so the codec ships
// deltas.
func benchAgentCycleEncode(b *testing.B, established bool) {
	node, contacts := benchEncodeNode(b)
	sess := node.peers.Get(book.Intern("peer-x:7000"))
	var peerGen uint32
	refresh := [2]int32{
		node.viewKey(book.Intern(contacts[0])),
		node.viewKey(book.Intern(contacts[1])),
	}
	var bytes int64
	// The benchmark's schedule quantizes ticks at one hour, so a single
	// wall-clock sample serves every iteration.
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.lock()
		// The cycle's view churn: the absorbs of the cycle refreshed two
		// descriptors.
		stamp := int32(i + 1)
		node.view.Absorb([]overlay.Entry{
			{Key: refresh[0], Stamp: stamp},
			{Key: refresh[1], Stamp: stamp},
		})
		// Snapshot and encode the outgoing exchange request.
		payload := node.payloadLocked(sess, uint64(i+1), uint64(i+1), now)
		data, err := wire.Encode(&wire.ExchangeRequest{From: node.Addr(), Payload: payload})
		node.unlock() // the payload's lists are the workspace's
		if err != nil {
			b.Fatal(err)
		}
		bytes += int64(len(data))
		if established {
			// The peer acks every frame, as a live reply would.
			peerGen++
			node.mu.Lock()
			sess.codec.Observe(wire.ViewFrame{
				Kind: wire.ViewDelta, Gen: peerGen, Ack: payload.View.Gen,
			})
			node.mu.Unlock()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
}

// BenchmarkAgentCycleEncodeFull is the full-view baseline: no frame is
// ever acknowledged, so every cycle re-encodes the whole view.
func BenchmarkAgentCycleEncodeFull(b *testing.B) { benchAgentCycleEncode(b, false) }

// BenchmarkAgentCycleEncodeDelta is the steady-state delta path: the
// peer acknowledges frames, so each cycle ships only the refreshed
// descriptors.
func BenchmarkAgentCycleEncodeDelta(b *testing.B) { benchAgentCycleEncode(b, true) }
