package agent

import (
	"context"
	"testing"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/race"
	"antientropy/internal/stats"
	"antientropy/internal/transport"
)

// TestLiveFleetContractsAtPaperRate runs a real 256-node fleet on the
// mem network and measures its convergence factor the way the repository
// benchmark does: per epoch, the geometric-mean per-cycle ratio of the
// estimate variance between cycles 2 and 10, the median over the
// measured epochs. Push-pull averaging contracts the variance by
// 1/(2√e) ≈ 0.303 per cycle (§3) and the simulator's NEWSCAST by about
// 0.32; here, a node that draws its peer from the view its last partner
// has just refreshed reads 0.36–0.39, and one that draws it peerLead
// initiations ahead 0.30–0.32. CI runs it five times in a row
// (-count=5): a threshold too tight for its runner fails there every
// time, not in `go test` at random.
func TestLiveFleetContractsAtPaperRate(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector slows the fleet past its cycle length")
	}
	const (
		n        = 256
		contacts = 30
		gamma    = 12
		epochs   = 4 // measured, after one warm-up epoch
		from, to = 2, 10
		cycle    = 25 * time.Millisecond
	)
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 11})
	eps := make([]*transport.MemEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		eps[i] = net.Endpoint()
		addrs[i] = eps[i].Addr()
	}
	schedule := core.Schedule{Start: time.Now(), Delta: gamma * cycle, CycleLen: cycle, Gamma: gamma}
	rng := stats.NewRNG(11)
	picks := make([]int, contacts)
	nodes := make([]*Node, n)
	for i := range nodes {
		rng.Sample(picks, n, func(j int) bool { return j == i })
		boot := make([]string, contacts)
		for k, j := range picks {
			boot[k] = addrs[j]
		}
		v := rng.Float64() * 100
		node, err := New(Config{
			Endpoint: eps[i], Schedule: schedule, Value: func() float64 { return v },
			Bootstrap: boot, Seed: rng.Uint64() | 1, Logger: quietLogger(),
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
	defer func() {
		for _, node := range nodes {
			_ = node.Stop()
		}
		net.Close()
	}()

	// variance reads the fleet's estimate variance at cycle c of the
	// schedule, counted from its start.
	variance := func(c int) float64 {
		time.Sleep(time.Until(schedule.Start.Add(time.Duration(c) * cycle)))
		var m stats.Moments
		for _, node := range nodes {
			if v, ok := node.Estimate(); ok {
				m.Add(v)
			}
		}
		return m.PopVariance()
	}
	w := stats.RhoWindow{From: from, To: to}
	for e := 1; e <= epochs; e++ {
		v0, v1 := variance(e*gamma+from), variance(e*gamma+to)
		if v0 <= 0 || v1 <= 0 {
			t.Fatalf("epoch %d: variance %g at cycle %d, %g at cycle %d", e, v0, from, v1, to)
		}
		w.Add(e, from, v0)
		w.Add(e, to, v1)
	}
	rho, _ := stats.Median(w.Factors())
	t.Logf("ρ per epoch %.3f, median %.3f", w.Factors(), rho)
	if rho > 0.35 {
		t.Errorf("the fleet contracts the variance by %.3f per cycle, want ≤ 0.35 (paper 0.303)", rho)
	}
}
