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
	// sealed is one past the epoch of node 0's newest sealed output, 0
	// while it has sealed none. An iteration ends when it advances.
	sealed := func() uint64 {
		if s := nodes[0].Snapshot(); s.HasOutput {
			return s.LastOutput.Epoch + 1
		}
		return 0
	}
	last := sealed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deadline := time.Now().Add(5 * time.Second)
		for sealed() == last {
			if time.Now().After(deadline) {
				b.Fatal("no epoch output within 5s")
			}
			time.Sleep(time.Millisecond)
		}
		last = sealed()
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

// BenchmarkNodeResidentBytes is the rung of a node's constant state: what
// it keeps, on the heap, after it has met a number of distinct peers — its
// protocol state and its view, and nothing per peer, however many peers
// there are. B/node is residentBytesPerNode over a fleet of 200.
func BenchmarkNodeResidentBytes(b *testing.B) {
	for _, peers := range []int{150, 450} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			var perNode float64
			for i := 0; i < b.N; i++ {
				perNode = residentBytesPerNode(b, 200, peers)
			}
			b.ReportMetric(perNode, "B/node")
		})
	}
}

// residentBytesPerNode measures what a node keeps. Hand-driven, no clock:
// each node of the fleet serves one exchange request, with a full view,
// from each of peers distinct peers; the result is the growth of the live
// heap over the fleet per node, from New to the last request served. The
// endpoints and the book entries of every address exist beforehand: they
// are the transport's and the process's, not the node's, and a table of
// either that happened to grow inside the window would be counted.
func residentBytesPerNode(tb testing.TB, fleet, peers int) float64 {
	tb.Helper()
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 1})
	defer net.Close()
	idle := core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: time.Hour, Gamma: 1 << 20}
	from := make([]string, peers)
	for i := range from {
		ep := net.Endpoint()
		ep.SetHandler(func(p transport.Packet) { p.Release() })
		from[i] = ep.Addr()
		book.Intern(from[i])
	}
	eps := make([]*transport.MemEndpoint, fleet)
	for j := range eps {
		eps[j] = net.Endpoint()
		book.Intern(eps[j].Addr())
	}
	requests := make([][]byte, peers)
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
			tb.Fatal(err)
		}
		requests[i] = data
	}
	// Two collections on each side: the first moves what the workspace
	// and buffer pools hold to their victim caches, the second frees it,
	// so pooled scratch is counted on neither side.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	nodes := make([]*Node, fleet)
	for j := range nodes {
		node, err := New(Config{
			Endpoint: eps[j], Schedule: idle, Value: func() float64 { return 1 },
			Bootstrap: from[:1], Seed: uint64(j + 1), Logger: quietLogger(),
		})
		if err != nil {
			tb.Fatal(err)
		}
		if err := node.Start(context.Background()); err != nil {
			tb.Fatal(err)
		}
		nodes[j] = node
		for k, data := range requests {
			node.handle(from[k], data)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Counted on both sides, not freed in between.
	runtime.KeepAlive(from)
	runtime.KeepAlive(requests)
	var served int64
	for _, node := range nodes {
		served += node.Metrics().ExchangesServed
		_ = node.Stop()
	}
	if served != int64(fleet*peers) {
		tb.Fatalf("%d of %d requests served", served, fleet*peers)
	}
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(fleet)
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

// BenchmarkAgentCycleEncodeFull measures the per-cycle cost of
// snapshotting the node state and encoding one exchange request — the
// live executor's dominant CPU item. Every iteration models one
// steady-state cycle: two cache descriptors refresh (one served and one
// initiated exchange's worth of churn) plus the node's own fresh
// self-descriptor, and the frame carries the whole ~30-descriptor view.
func BenchmarkAgentCycleEncodeFull(b *testing.B) {
	node, contacts := benchEncodeNode(b)
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
		payload := node.payloadLocked(uint64(i+1), uint64(i+1), now)
		data, err := wire.Encode(&wire.ExchangeRequest{From: node.Addr(), Payload: payload})
		node.unlock() // the payload's lists are the workspace's
		if err != nil {
			b.Fatal(err)
		}
		bytes += int64(len(data))
	}
	b.StopTimer()
	b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
}
