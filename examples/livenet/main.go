// Live network: real asynchronous nodes (goroutine active/passive thread
// pairs, §4 of the paper) gossiping over an in-memory network with
// latency, losing datagrams through a drop-rule filter. Demonstrates
// epochs and automatic restart (the aggregate adapts when local values
// change), plus a §4.2 join: a node arriving mid-epoch waits for the next
// epoch before participating.
package main

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"sync/atomic"
	"time"

	"antientropy"
)

func main() {
	// A lossy, slow network: 1–5 ms latency and 5% message loss — the
	// protocol shrugs it off (§6.2, §7.2). The network delays datagrams;
	// the filter, the same one a UDP mux takes, loses them.
	net := antientropy.NewMemNetwork(antientropy.MemNetworkConfig{Seed: 1})
	net.SetLatency(time.Millisecond, 5*time.Millisecond)
	defer net.Close()
	loss := antientropy.NewUDPFilter(1)
	loss.SetLoss(0.05)
	net.SetFilter(loss)

	schedule := antientropy.Schedule{
		Start:    time.Now().Truncate(time.Second),
		Delta:    500 * time.Millisecond,
		CycleLen: 20 * time.Millisecond,
		Gamma:    25,
	}
	quiet := slog.New(slog.NewTextHandler(nop{}, &slog.HandlerOptions{Level: slog.LevelError}))

	// 16 sensors report a temperature; the fleet agrees on the average.
	const sensors = 16
	var temperature atomic.Int64 // shared "environment", degrees ×10
	temperature.Store(200)       // 20.0°C

	endpoints, addrs := antientropy.NewMemFleet(net, sensors)
	nodes := make([]*antientropy.Node, sensors)
	ctx := context.Background()
	for i := range nodes {
		offset := float64(i%5) - 2 // per-sensor bias −2…+2
		node, err := antientropy.NewNode(antientropy.NodeConfig{
			Endpoint:  endpoints[i],
			Schedule:  schedule,
			Function:  antientropy.Average,
			Value:     func() float64 { return float64(temperature.Load())/10 + offset },
			Bootstrap: addrs,
			Seed:      uint64(i + 1),
			Logger:    quiet,
		})
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = node
		if err := node.Start(ctx); err != nil {
			log.Fatal(err)
		}
	}
	defer func() {
		for _, node := range nodes {
			_ = node.Stop()
		}
	}()

	fmt.Printf("%d sensor nodes gossiping (δ=%v, Δ=%v, 5%% loss)\n\n",
		sensors, schedule.CycleLen, schedule.Delta)

	report := func(label string) {
		s := nodes[0].Snapshot()
		fmt.Printf("%-28s current estimate %6.2f°C", label, s.Estimate)
		if s.HasOutput {
			fmt.Printf("   last epoch output %6.2f°C (epoch %d)", s.LastOutput.Value, s.LastOutput.Epoch)
		}
		fmt.Println()
	}

	time.Sleep(600 * time.Millisecond)
	report("after first epoch:")

	// The environment changes: automatic restart (§4.1) adapts the
	// estimate within one epoch.
	temperature.Store(300) // 30.0°C
	fmt.Println("\n>> temperature jumps to 30.0°C")
	time.Sleep(time.Second)
	report("one epoch later:")

	// A latecomer joins mid-epoch (§4.2): it waits for the next epoch.
	joiner, err := antientropy.NewNode(antientropy.NodeConfig{
		Endpoint: net.Endpoint(),
		Schedule: schedule,
		Function: antientropy.Average,
		Value:    func() float64 { return float64(temperature.Load()) / 10 },
		Seeds:    []string{addrs[0], addrs[1]},
		Seed:     99,
		Logger:   quiet,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := joiner.Start(ctx); err != nil {
		log.Fatal(err)
	}
	defer joiner.Stop()
	fmt.Printf("\n>> new node joins via seeds (participating: %v)\n", joiner.Snapshot().Participating)
	time.Sleep(time.Second)
	s := joiner.Snapshot()
	fmt.Printf("after the next epoch:        joiner participating=%v estimate %6.2f°C (ok=%v)\n",
		s.Participating, s.Estimate, s.OK)
	fmt.Printf("joiner peers known: %d\n", joiner.PeerCount())

	m := nodes[0].Metrics()
	fmt.Printf("\nnode 0 protocol counters: %+v\n", m)
}

type nop struct{}

func (nop) Write(p []byte) (int, error) { return len(p), nil }
