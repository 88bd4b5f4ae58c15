// Command agglocal runs a whole live deployment inside one process: N
// asynchronous aggregation nodes (goroutine active/passive pairs) over
// the in-memory network, which delays datagrams and loses them through a
// drop-rule filter (the one a UDP mux applies). It is the
// quickest way to watch the practical protocol (§4) work end to end, and
// doubles as a stress tool: it can crash a fraction of the nodes midway
// and show the next epoch absorbing the damage.
//
// Usage:
//
//	agglocal -nodes 64 -loss 0.05 -epochs 6
//	agglocal -nodes 64 -mode count -kill 0.3 -kill-after 2
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"os"
	"time"

	"antientropy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "agglocal:", err)
		os.Exit(1)
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

func run() error {
	var (
		nodes     = flag.Int("nodes", 32, "number of in-process nodes")
		loss      = flag.Float64("loss", 0.02, "network message loss probability")
		latency   = flag.Duration("latency", 2*time.Millisecond, "max network latency")
		cycleLen  = flag.Duration("cycle", 20*time.Millisecond, "cycle length delta")
		gamma     = flag.Int("gamma", 30, "cycles per epoch")
		epochs    = flag.Int("epochs", 5, "epochs to run before exiting")
		mode      = flag.String("mode", "scalar", "scalar or count")
		function  = flag.String("function", "average", "scalar aggregate")
		killFrac  = flag.Float64("kill", 0, "fraction of nodes to crash midway")
		killAfter = flag.Int("kill-after", 2, "epoch after which the crash happens")
		seed      = flag.Uint64("seed", 1, "randomness seed")
	)
	flag.Parse()
	if *nodes < 2 {
		return fmt.Errorf("need at least 2 nodes, got %d", *nodes)
	}
	if *killFrac < 0 || *killFrac >= 1 {
		return fmt.Errorf("kill fraction %g out of [0, 1)", *killFrac)
	}

	net := antientropy.NewMemNetwork(antientropy.MemNetworkConfig{
		MaxLatency: *latency,
		Seed:       int64(*seed),
	})
	defer net.Close()
	filter := antientropy.NewUDPFilter(int64(*seed))
	filter.SetLoss(*loss)
	net.SetFilter(filter)
	schedule := antientropy.Schedule{
		Start:    time.Now().Truncate(time.Second),
		Delta:    time.Duration(*gamma) * *cycleLen,
		CycleLen: *cycleLen,
		Gamma:    *gamma,
	}
	quiet := slog.New(slog.NewTextHandler(nopWriter{}, &slog.HandlerOptions{Level: slog.LevelError}))

	endpoints, addrs := antientropy.NewMemFleet(net, *nodes)
	cluster := make([]*antientropy.Node, *nodes)
	rng := antientropy.NewRNG(*seed)
	trueSum := 0.0
	ctx := context.Background()
	for i := range cluster {
		cfg := antientropy.NodeConfig{
			Endpoint:  endpoints[i],
			Schedule:  schedule,
			Bootstrap: addrs,
			Seed:      *seed + uint64(i) + 1,
			Logger:    quiet,
		}
		switch *mode {
		case "scalar":
			fn, err := antientropy.FunctionByName(*function)
			if err != nil {
				return err
			}
			cfg.Function = fn
			v := math.Floor(100 * rng.Float64())
			trueSum += v
			cfg.Value = func() float64 { return v }
		case "count":
			cfg.Mode = antientropy.ModeCount
			cfg.Concurrency = 8
			cfg.InitialSizeGuess = float64(*nodes)
		default:
			return fmt.Errorf("unknown mode %q", *mode)
		}
		node, err := antientropy.NewNode(cfg)
		if err != nil {
			return err
		}
		cluster[i] = node
		if err := node.Start(ctx); err != nil {
			return err
		}
	}
	alive := cluster
	defer func() {
		for _, node := range alive {
			_ = node.Stop()
		}
	}()

	if *mode == "scalar" {
		fmt.Printf("%d nodes, %s over in-memory net (loss %.0f%%, latency ≤ %v); true average %.3f\n\n",
			*nodes, *function, *loss*100, *latency, trueSum/float64(*nodes))
	} else {
		fmt.Printf("%d nodes, COUNT over in-memory net (loss %.0f%%, latency ≤ %v)\n\n",
			*nodes, *loss*100, *latency)
	}

	epochLen := schedule.Delta
	for epoch := 1; epoch <= *epochs; epoch++ {
		time.Sleep(epochLen)
		if *killFrac > 0 && epoch == *killAfter {
			victims := int(*killFrac * float64(len(alive)))
			for k := 0; k < victims; k++ {
				idx := rng.Intn(len(alive))
				_ = alive[idx].Stop()
				alive = append(alive[:idx], alive[idx+1:]...)
			}
			fmt.Printf(">> crashed %d nodes (%d survive)\n", victims, len(alive))
		}
		var m antientropy.Moments
		for _, node := range alive {
			if out, ok := node.LastOutput(); ok && out.OK {
				m.Add(out.Value)
			}
		}
		if m.N() == 0 {
			fmt.Printf("epoch %d: no outputs yet\n", epoch)
			continue
		}
		fmt.Printf("epoch %d: outputs from %3d nodes — mean %10.3f  spread [%.3f, %.3f]\n",
			epoch, m.N(), m.Mean(), m.Min(), m.Max())
	}

	var agg antientropy.NodeMetrics
	for _, node := range alive {
		agg.Accumulate(node.Metrics())
	}
	fmt.Printf("\ncluster totals: %+v\n", agg)
	return nil
}
