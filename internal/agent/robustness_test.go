package agent

import (
	"context"
	"math"
	"testing"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/transport"
)

// launchLossyCluster starts founding nodes over a network with latency
// that loses datagrams through filter.
func launchLossyCluster(t *testing.T, n int, net *transport.MemNetwork, filter *transport.UDPFilter,
	sched core.Schedule, values func(i int) float64) []*Node {
	t.Helper()
	net.SetFilter(filter)
	eps := make([]*transport.MemEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		eps[i] = net.Endpoint()
		addrs[i] = eps[i].Addr()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		v := values(i)
		node, err := New(Config{
			Endpoint:  eps[i],
			Schedule:  sched,
			Function:  core.Average,
			Value:     func() float64 { return v },
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
	t.Cleanup(func() {
		for _, node := range nodes {
			_ = node.Stop()
		}
		net.Close()
	})
	return nodes
}

func TestClusterConvergesUnderLossAndLatency(t *testing.T) {
	// 10% loss and real latency: §7.2 says reasonable loss keeps the
	// estimates reliable. Epoch outputs must land within a few percent of
	// the true average.
	sched := core.Schedule{
		Start:    time.Now().Truncate(time.Second),
		Delta:    400 * time.Millisecond,
		CycleLen: 10 * time.Millisecond,
		Gamma:    40,
	}
	loss := transport.NewUDPFilter(7)
	loss.SetLoss(0.1)
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 7})
	net.SetLatency(500*time.Microsecond, 2*time.Millisecond)
	nodes := launchLossyCluster(t, 10, net, loss, sched, func(i int) float64 { return float64(i) })
	want := 4.5
	deadline := time.Now().Add(6 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		good := 0
		for _, node := range nodes {
			if out, ok := node.LastOutput(); ok && out.OK && math.Abs(out.Value-want) < 0.25 {
				good++
			}
		}
		if good >= 8 {
			return
		}
	}
	for i, node := range nodes {
		out, _ := node.LastOutput()
		t.Logf("node %d: %+v metrics=%+v", i, out, node.Metrics())
	}
	t.Fatal("cluster never produced accurate epoch outputs under loss")
}

func TestPartitionHealsAndEstimatesRecover(t *testing.T) {
	// Partition one node away: its exchanges all fail (it behaves as if
	// every link were down, §6.2) and its estimate freezes; after the
	// heal it rejoins the consensus by the following epoch.
	sched := core.Schedule{
		Start:    time.Now().Truncate(time.Second),
		Delta:    300 * time.Millisecond,
		CycleLen: 10 * time.Millisecond,
		Gamma:    30,
	}
	split := transport.NewUDPFilter(8)
	nodes := launchLossyCluster(t, 6, transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 8}), split,
		sched, func(i int) float64 { return float64(i * 2) }) // avg 5
	victim := nodes[5]
	groups := map[string]int{victim.Addr(): 1}
	for _, other := range nodes[:5] {
		groups[other.Addr()] = 0
	}
	split.PartitionGroups(groups)
	// The victim's exchanges time out; the rest of the cluster still
	// completes its epochs and the five connected nodes' epoch outputs
	// agree among themselves. Instantaneous estimates are racy against
	// epoch restarts, so compare completed outputs.
	agreeDeadline := time.Now().Add(4 * time.Second)
	agreed := false
	for time.Now().Before(agreeDeadline) && !agreed {
		time.Sleep(100 * time.Millisecond)
		outs := make([]Output, 0, 5)
		for _, node := range nodes[:5] {
			if out, ok := node.LastOutput(); ok && out.OK {
				outs = append(outs, out)
			}
		}
		if len(outs) < 5 {
			continue
		}
		agreed = true
		for _, o := range outs[1:] {
			if o.Epoch != outs[0].Epoch || math.Abs(o.Value-outs[0].Value) > 0.5 {
				agreed = false
				break
			}
		}
	}
	if !agreed {
		t.Fatal("connected nodes never agreed during the partition")
	}
	if victim.Metrics().Timeouts == 0 {
		t.Fatal("partitioned node recorded no timeouts")
	}
	// Heal and wait: within two epochs everyone agrees again.
	split.HealGroups()
	deadline := time.Now().Add(4 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		vv, vok := victim.Estimate()
		ov, ook := nodes[0].Estimate()
		if vok && ook && math.Abs(vv-ov) < 0.1 {
			return
		}
	}
	t.Fatal("victim never re-converged after heal")
}

func TestCountLeaderElectionAdaptsAcrossEpochs(t *testing.T) {
	// §5: P_lead = C/N̂ with N̂ from the previous epoch. After the first
	// epoch, every node's size guess should be near the true size, so the
	// expected number of leaders per epoch stabilizes around C.
	const n = 8
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 9})
	defer net.Close()
	sched := core.Schedule{
		Start:    time.Now().Truncate(time.Second),
		Delta:    300 * time.Millisecond,
		CycleLen: 10 * time.Millisecond,
		Gamma:    30,
	}
	eps := make([]*transport.MemEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		eps[i] = net.Endpoint()
		addrs[i] = eps[i].Addr()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := New(Config{
			Endpoint:         eps[i],
			Schedule:         sched,
			Mode:             ModeCount,
			Concurrency:      4,
			InitialSizeGuess: n,
			Bootstrap:        addrs,
			Seed:             uint64(i + 1),
			Logger:           quietLogger(),
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
		for _, node := range nodes {
			_ = node.Stop()
		}
	}()
	// Collect several epochs of outputs.
	deadline := time.Now().Add(6 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		withHistory := 0
		for _, node := range nodes {
			if len(node.Outputs()) >= 3 {
				withHistory++
			}
		}
		if withHistory == n {
			break
		}
	}
	// Across the retained outputs, the usable size estimates should
	// bracket the truth loosely (few instances on a tiny cluster).
	usable := 0
	for _, node := range nodes {
		for _, out := range node.Outputs() {
			if out.OK && out.Value > n/4 && out.Value < n*4 {
				usable++
			}
		}
	}
	if usable < n {
		t.Fatalf("only %d usable size outputs across the cluster", usable)
	}
}

func TestLateReplyIsIgnored(t *testing.T) {
	// A reply arriving after the timeout must not be applied (the
	// paper's lost-response case). Force it with a timeout shorter than
	// the network latency.
	sched := core.Schedule{
		Start:    time.Now().Truncate(time.Second),
		Delta:    time.Hour, // no epoch boundary interference
		CycleLen: 20 * time.Millisecond,
		Gamma:    1 << 20,
	}
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 10})
	net.SetLatency(15*time.Millisecond, 18*time.Millisecond)
	defer net.Close()
	epA, epB := net.Endpoint(), net.Endpoint()
	mk := func(ep *transport.MemEndpoint, v float64, peer string, seed uint64) *Node {
		node, err := New(Config{
			Endpoint: ep, Schedule: sched,
			Value:          func() float64 { return v },
			Bootstrap:      []string{peer},
			RequestTimeout: 5 * time.Millisecond, // << round trip ≈ 30ms
			Seed:           seed, Logger: quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	a := mk(epA, 10, epB.Addr(), 1)
	b := mk(epB, 20, epA.Addr(), 2)
	for _, node := range []*Node{a, b} {
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	defer a.Stop()
	defer b.Stop()
	time.Sleep(time.Second)
	ma, mb := a.Metrics(), b.Metrics()
	if ma.Timeouts+mb.Timeouts == 0 {
		t.Fatalf("expected timeouts with 5ms timeout over 15ms links: %+v %+v", ma, mb)
	}
	if ma.ExchangesCompleted+mb.ExchangesCompleted != 0 {
		t.Fatalf("no exchange should complete inside the timeout: %+v %+v", ma, mb)
	}
	// States have drifted (responders updated, initiators did not) — the
	// documented lost-response semantics; what matters is that nothing
	// crashed and the nodes keep running.
	if _, ok := a.Estimate(); !ok {
		t.Fatal("node a lost its estimate")
	}
}

func TestJoinReplySeedsMembership(t *testing.T) {
	sched := testSchedule()
	nodes, net := launchCluster(t, 5, sched, func(i int) float64 { return 1 })
	time.Sleep(100 * time.Millisecond) // let gossip mix the caches
	joiner, err := New(Config{
		Endpoint: net.Endpoint(),
		Schedule: sched,
		Value:    func() float64 { return 1 },
		Seeds:    []string{nodes[0].Addr()},
		Seed:     50,
		Logger:   quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()
	// The JoinReply plus membership gossip must teach the joiner more
	// peers than its single seed.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		if joiner.PeerCount() >= 3 {
			return
		}
	}
	t.Fatalf("joiner knows only %d peers (%v)", joiner.PeerCount(), joiner.Peers())
}
