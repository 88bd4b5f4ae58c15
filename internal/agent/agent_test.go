package agent

import (
	"context"
	"log/slog"
	"math"
	"runtime"
	"testing"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/transport"
)

// quietLogger suppresses debug chatter in tests.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(discard{}, &slog.HandlerOptions{Level: slog.LevelError}))
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// testSchedule returns a fast schedule: δ = 10ms, γ = 25 cycles,
// Δ = 250ms, anchored in the recent past so every node agrees on epochs.
func testSchedule() core.Schedule {
	return core.Schedule{
		Start:    time.Now().Truncate(time.Second),
		Delta:    250 * time.Millisecond,
		CycleLen: 10 * time.Millisecond,
		Gamma:    25,
	}
}

// launchCluster starts n founding scalar nodes over a fresh mem network.
func launchCluster(t *testing.T, n int, sched core.Schedule, values func(i int) float64) ([]*Node, *transport.MemNetwork) {
	t.Helper()
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 42})
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
	}
	for _, node := range nodes {
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
	return nodes, net
}

func TestNewValidation(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 1})
	defer net.Close()
	ep := net.Endpoint()
	sched := testSchedule()
	tests := []struct {
		name string
		cfg  Config
	}{
		{"no endpoint", Config{Schedule: sched, Value: func() float64 { return 1 }}},
		{"bad schedule", Config{Endpoint: ep, Value: func() float64 { return 1 }}},
		{"scalar without value", Config{Endpoint: ep, Schedule: sched}},
		{"unknown mode", Config{Endpoint: ep, Schedule: sched, Mode: Mode(9), Value: func() float64 { return 1 }}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	// Valid config fills defaults.
	n, err := New(Config{Endpoint: ep, Schedule: sched, Value: func() float64 { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	if n.cfg.Function.Name != "average" || n.cfg.CacheSize <= 0 || n.cfg.RequestTimeout <= 0 {
		t.Error("defaults not applied")
	}
}

func TestStartTwiceFails(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 1})
	defer net.Close()
	node, err := New(Config{
		Endpoint: net.Endpoint(), Schedule: testSchedule(),
		Value: func() float64 { return 1 }, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	if err := node.Start(context.Background()); err == nil {
		t.Fatal("double start accepted")
	}
}

func TestStopIdempotent(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 1})
	defer net.Close()
	node, err := New(Config{
		Endpoint: net.Endpoint(), Schedule: testSchedule(),
		Value: func() float64 { return 1 }, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := node.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := node.Stop(); err != nil {
		t.Fatal("second stop errored:", err)
	}
	// Stop before start is a no-op.
	fresh, err := New(Config{
		Endpoint: net.Endpoint(), Schedule: testSchedule(),
		Value: func() float64 { return 1 }, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterConvergesToAverage(t *testing.T) {
	const n = 12
	nodes, _ := launchCluster(t, n, testSchedule(), func(i int) float64 { return float64(i * 10) })
	want := 0.0
	for i := 0; i < n; i++ {
		want += float64(i * 10)
	}
	want /= n

	// Wait for convergence within the running epoch.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		worst := 0.0
		allOK := true
		for _, node := range nodes {
			v, ok := node.Estimate()
			if !ok {
				allOK = false
				break
			}
			if d := math.Abs(v - want); d > worst {
				worst = d
			}
		}
		if allOK && worst < 0.01*want {
			return // converged
		}
	}
	for i, node := range nodes {
		v, ok := node.Estimate()
		t.Logf("node %d: estimate %.3f ok=%v metrics=%+v", i, v, ok, node.Metrics())
	}
	t.Fatalf("cluster did not converge to %.2f", want)
}

func TestEpochOutputsRecorded(t *testing.T) {
	nodes, _ := launchCluster(t, 6, testSchedule(), func(i int) float64 { return 4 })
	// Wait at least two epoch boundaries.
	time.Sleep(600 * time.Millisecond)
	for i, node := range nodes {
		outs := node.Outputs()
		if len(outs) == 0 {
			t.Fatalf("node %d recorded no epoch outputs", i)
		}
		last, ok := node.LastOutput()
		if !ok {
			t.Fatalf("node %d has no last output", i)
		}
		if !last.OK {
			t.Fatalf("node %d last output unusable", i)
		}
		if math.Abs(last.Value-4) > 0.01 {
			t.Fatalf("node %d epoch output %.4f, want 4 (constant inputs)", i, last.Value)
		}
		// Epochs must be strictly increasing.
		for j := 1; j < len(outs); j++ {
			if outs[j].Epoch <= outs[j-1].Epoch {
				t.Fatalf("node %d outputs not epoch-ordered: %+v", i, outs)
			}
		}
	}
}

func TestRestartAdaptsToChangedValues(t *testing.T) {
	// §4.1: restarting makes the protocol adaptive. Change the local
	// values after the first epoch; later outputs must track the new
	// average.
	const n = 8
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 43})
	defer net.Close()
	sched := testSchedule()
	var mu chan struct{} // closed when values switch
	mu = make(chan struct{})
	addrs := make([]string, n)
	eps := make([]*transport.MemEndpoint, n)
	for i := range eps {
		eps[i] = net.Endpoint()
		addrs[i] = eps[i].Addr()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := New(Config{
			Endpoint: eps[i],
			Schedule: sched,
			Value: func() float64 {
				select {
				case <-mu:
					return 100
				default:
					return 10
				}
			},
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
		for _, node := range nodes {
			_ = node.Stop()
		}
	}()
	time.Sleep(300 * time.Millisecond) // let the first epoch finish
	close(mu)                          // values jump from 10 to 100
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		adapted := 0
		for _, node := range nodes {
			if out, ok := node.LastOutput(); ok && math.Abs(out.Value-100) < 1 {
				adapted++
			}
		}
		if adapted == n {
			return
		}
	}
	for i, node := range nodes {
		out, ok := node.LastOutput()
		t.Logf("node %d: last output %+v ok=%v", i, out, ok)
	}
	t.Fatal("outputs never adapted to the new values")
}

func TestJoinerWaitsForNextEpoch(t *testing.T) {
	nodes, net := launchCluster(t, 4, testSchedule(), func(i int) float64 { return 7 })
	// A joiner arrives mid-epoch.
	ep := net.Endpoint()
	joiner, err := New(Config{
		Endpoint: ep,
		Schedule: testSchedule(),
		Value:    func() float64 { return 7 },
		Seeds:    []string{nodes[0].Addr()},
		Seed:     99,
		Logger:   quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()
	if joiner.Participating() {
		t.Fatal("joiner participated immediately")
	}
	if _, ok := joiner.Estimate(); ok {
		t.Fatal("joiner produced an estimate before joining")
	}
	// After an epoch boundary the joiner participates and converges.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		if v, ok := joiner.Estimate(); ok && math.Abs(v-7) < 0.1 {
			if joiner.PeerCount() == 0 {
				t.Fatal("joiner has no peers despite participating")
			}
			return
		}
	}
	t.Fatalf("joiner never integrated: participating=%v metrics=%+v",
		joiner.Participating(), joiner.Metrics())
}

func TestEpochJumpForward(t *testing.T) {
	// A node whose schedule lags (its Start is in the future relative to
	// the others) sits in epoch 0; contact with a normal node must pull
	// it forward epidemically (§4.3).
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 44})
	defer net.Close()
	fast := testSchedule()
	fast.Start = fast.Start.Add(-10 * fast.Delta) // deep into epoch ~10
	slow := fast
	slow.Start = time.Now().Add(time.Hour) // thinks epochs haven't begun

	epA, epB := net.Endpoint(), net.Endpoint()
	a, err := New(Config{
		Endpoint: epA, Schedule: fast,
		Value: func() float64 { return 1 }, Bootstrap: []string{epB.Addr()},
		Seed: 1, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{
		Endpoint: epB, Schedule: slow,
		Value: func() float64 { return 3 }, Bootstrap: []string{epA.Addr()},
		Seed: 2, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	if err := b.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer b.Stop()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		if b.Epoch() >= a.Epoch()-1 && b.Metrics().EpochJumps > 0 {
			return
		}
	}
	t.Fatalf("slow node never jumped: a.epoch=%d b.epoch=%d b.metrics=%+v",
		a.Epoch(), b.Epoch(), b.Metrics())
}

func TestTimeoutOnDeadPeer(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 45})
	defer net.Close()
	alive := net.Endpoint()
	dead := net.Endpoint()
	node, err := New(Config{
		Endpoint: alive, Schedule: testSchedule(),
		Value: func() float64 { return 5 }, Bootstrap: []string{dead.Addr()},
		RequestTimeout: 20 * time.Millisecond,
		Seed:           1, Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = dead.Close() // the only known peer is dead
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		if node.Metrics().Timeouts > 2 {
			// Node survives, estimate stays at the local value.
			if v, ok := node.Estimate(); !ok || v != 5 {
				t.Fatalf("estimate corrupted: %v %v", v, ok)
			}
			return
		}
	}
	t.Fatalf("no timeouts recorded: %+v", node.Metrics())
}

func TestCountModeEstimatesSize(t *testing.T) {
	const n = 10
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 46})
	defer net.Close()
	sched := core.Schedule{
		Start:    time.Now().Truncate(time.Second),
		Delta:    400 * time.Millisecond,
		CycleLen: 10 * time.Millisecond,
		Gamma:    40,
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
			Concurrency:      6,
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
	// Wait for a couple of epoch outputs; accept a generous band — with
	// C≈6 instances on 10 nodes the trimmed estimate is coarse but must
	// land in the right order of magnitude.
	deadline := time.Now().Add(6 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(100 * time.Millisecond)
		good := 0
		for _, node := range nodes {
			if out, ok := node.LastOutput(); ok && out.OK && out.Value > n/3 && out.Value < n*3 {
				good++
			}
		}
		if good >= n*2/3 {
			return
		}
	}
	for i, node := range nodes {
		out, ok := node.LastOutput()
		t.Logf("node %d: output %+v ok=%v", i, out, ok)
	}
	t.Fatal("COUNT estimates never landed near the true size")
}

func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	nodes, net := launchCluster(t, 5, testSchedule(), func(i int) float64 { return 1 })
	time.Sleep(200 * time.Millisecond)
	for _, node := range nodes {
		if err := node.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	net.Close()
	// Allow stragglers to exit.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(50 * time.Millisecond)
		if runtime.NumGoroutine() <= before+2 {
			return
		}
	}
	t.Fatalf("goroutines: before %d, after %d", before, runtime.NumGoroutine())
}

// TestClusterOverUDP runs each node on a mux of its own with one socket:
// the deployment shape of aggnode, one node per process.
func TestClusterOverUDP(t *testing.T) {
	const n = 5
	sched := testSchedule()
	eps := make([]*transport.MuxEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		mux, err := transport.NewUDPMux(transport.UDPMuxConfig{Sockets: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer mux.Close()
		if eps[i], err = mux.Endpoint(); err != nil {
			t.Fatal(err)
		}
		addrs[i] = eps[i].Addr()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		v := float64((i + 1) * 2)
		node, err := New(Config{
			Endpoint:  eps[i],
			Schedule:  sched,
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
	defer func() {
		for _, node := range nodes {
			_ = node.Stop()
		}
	}()
	want := 6.0 // mean of 2,4,6,8,10
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		converged := 0
		for _, node := range nodes {
			if v, ok := node.Estimate(); ok && math.Abs(v-want) < 0.05 {
				converged++
			}
		}
		if converged == n {
			return
		}
	}
	t.Fatal("UDP cluster did not converge")
}

func TestBusyRefusalsCounted(t *testing.T) {
	// With a large request timeout and constant cross-traffic, some
	// passive requests must hit the busy window.
	nodes, _ := launchCluster(t, 8, testSchedule(), func(i int) float64 { return float64(i) })
	time.Sleep(500 * time.Millisecond)
	totalServed := int64(0)
	for _, node := range nodes {
		m := node.Metrics()
		totalServed += m.ExchangesServed
	}
	if totalServed == 0 {
		t.Fatal("no exchanges served at all")
	}
}

func TestMinModeBroadcastsMinimum(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 47})
	defer net.Close()
	const n = 6
	eps := make([]*transport.MemEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		eps[i] = net.Endpoint()
		addrs[i] = eps[i].Addr()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		v := float64(10 + i)
		node, err := New(Config{
			Endpoint: eps[i], Schedule: testSchedule(),
			Function: core.Min, Value: func() float64 { return v },
			Bootstrap: addrs, Seed: uint64(i + 1), Logger: quietLogger(),
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
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		done := 0
		for _, node := range nodes {
			if v, ok := node.Estimate(); ok && v == 10 {
				done++
			}
		}
		if done == n {
			return
		}
	}
	t.Fatal("minimum never propagated to all nodes")
}
