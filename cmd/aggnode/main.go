// Command aggnode runs one live aggregation node over UDP: the paper's
// practical protocol (§4) on a real network. The node is the one endpoint
// of a UDP mux with one socket, so its address is the listen address with
// endpoint id 0, "host:port#0"; a contact given as a bare "host:port" is
// read as that.
//
// Start a first node (founding member; it serves as 127.0.0.1:7000#0):
//
//	aggnode -listen 127.0.0.1:7000 -value 10
//
// Add more founding members (they all know each other up front):
//
//	aggnode -listen 127.0.0.1:7001 -value 20 -bootstrap 127.0.0.1:7000#0
//
// Join a running deployment later (waits for the next epoch, §4.2):
//
//	aggnode -listen 127.0.0.1:7002 -value 30 -join 127.0.0.1:7000
//
// Estimate the network size instead of averaging:
//
//	aggnode -listen 127.0.0.1:7003 -mode count -join 127.0.0.1:7000#0
//
// All nodes of one deployment must share -delta, -cycle, -gamma and
// -anchor (the epoch schedule); the default anchor is the Unix epoch so
// machines with synchronized clocks agree without coordination.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"antientropy"
	"antientropy/internal/cliutil"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "aggnode:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs the node until ctx is
// cancelled, then drains it. Program output (the node's address, its
// estimates and epoch outputs) goes to stdout, logs to stderr.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aggnode", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:0", "UDP listen address")
		value     = fs.Float64("value", 1, "this node's local value (scalar modes)")
		stdinVals = fs.Bool("stdin", false, "read value updates (one float per line) from stdin; each epoch restart picks up the latest")
		function  = fs.String("function", "average", "aggregate: average, min, max, geometric-mean")
		mode      = fs.String("mode", "scalar", "scalar or count (network-size estimation)")
		bootstrap = fs.String("bootstrap", "", "comma-separated founding-member addresses")
		join      = fs.String("join", "", "comma-separated seed addresses of a running deployment")
		delta     = fs.Duration("delta", 30*time.Second, "epoch length Δ")
		cycle     = fs.Duration("cycle", time.Second, "cycle length δ")
		gamma     = fs.Int("gamma", 30, "cycles per epoch γ")
		anchor    = fs.Int64("anchor", 0, "epoch schedule anchor (unix seconds)")
		cache     = fs.Int("cache", 30, "NEWSCAST cache size c")
		viewCap   = fs.Int("view-cap", 0, "cap the piggybacked membership view per exchange datagram, in bytes (0 = unlimited)")
		conc      = fs.Float64("concurrency", 8, "COUNT: desired concurrent instances C")
	)
	tf := cliutil.RegisterTelemetry(fs, 256)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tel, err := tf.Build(false)
	if err != nil {
		return err
	}
	logger := tel.Logger

	mux, err := antientropy.NewUDPMux(antientropy.UDPMuxConfig{Listen: *listen, Sockets: 1})
	if err != nil {
		return err
	}
	defer mux.Close() // after the node's deferred Stop
	endpoint, err := mux.Endpoint()
	if err != nil {
		return err
	}
	reg, trace, timeline := tel.Registry, tel.Trace, tel.Timeline
	cfg := antientropy.NodeConfig{
		Endpoint: endpoint,
		Schedule: antientropy.Schedule{
			Start:    time.Unix(*anchor, 0),
			Delta:    *delta,
			CycleLen: *cycle,
			Gamma:    *gamma,
		},
		CacheSize:    *cache,
		Concurrency:  *conc,
		MaxViewBytes: *viewCap,
		Trace:        trace,
		Logger:       logger,
	}
	if reg != nil {
		cfg.RTT = reg.Histogram("agg_exchange_rtt_seconds",
			"Exchange round-trip latency, initiate to reply, in seconds.",
			antientropy.RTTBuckets)
	}
	switch *mode {
	case "scalar":
		fn, err := antientropy.FunctionByName(*function)
		if err != nil {
			return err
		}
		cfg.Mode = antientropy.ModeScalar
		cfg.Function = fn
		initial := *value
		cfg.Value = func() float64 { return initial }
	case "count":
		cfg.Mode = antientropy.ModeCount
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	cfg.Bootstrap = muxAddrs(*bootstrap)
	cfg.Seeds = muxAddrs(*join)

	node, err := antientropy.NewNode(cfg)
	if err != nil {
		return err
	}
	if *stdinVals && cfg.Mode == antientropy.ModeScalar {
		go readValues(os.Stdin, stdout, node.SetValue, logger)
	}
	if reg != nil {
		antientropy.RegisterNodeMetrics(reg, node.Metrics)
		reg.CounterFunc("agg_transport_queue_drops_total",
			"Datagrams the endpoint dropped at a full inbound or outbound queue.",
			endpoint.QueueDrops)
		reg.CounterFunc("agg_transport_filter_drops_total",
			"Datagrams dropped by the endpoint's drop-rule filter.",
			endpoint.FilterDrops)
		reg.GaugeFunc("agg_transport_queue_depth",
			"High watermark of the transport's internal queue depth.",
			func() float64 { return float64(mux.QueueDepthHighWatermark()) })
		reg.HistogramFunc("agg_transport_batch_size",
			"Datagrams moved per batched socket operation.",
			mux.BatchSizes)
		srv, err := tel.Serve()
		if err != nil {
			return err
		}
		defer srv.Close()
		logger.Info("telemetry serving", "url", fmt.Sprintf("http://%s/metrics", srv.Addr()))
	}
	if err := node.Start(ctx); err != nil {
		return err
	}
	// Context-based drain: cancelling ctx (main's signal) ends the status
	// loop, and the deferred stop takes the node off the scheduler and
	// closes its endpoint before the deferred mux and telemetry closes run.
	defer func() {
		logger.Info("draining", "addr", node.Addr())
		if err := node.Stop(); err != nil {
			logger.Error("node stop", "err", err)
		}
		logger.Info("drained")
	}()
	fmt.Fprintf(stdout, "node %s up: mode=%s function=%s epoch=%d\n",
		node.Addr(), *mode, *function, node.Epoch())

	// The status loop doubles as this node's flight recorder and health
	// monitor: every tick lands one timeline snapshot, and the health
	// rules watch the local protocol counters for loss spikes and
	// partition-shaped timeout skew (the convergence rules need
	// fleet-wide spread and stay quiet on a single node).
	health := antientropy.NewHealth(reg, logger)
	ticker := time.NewTicker(*cycle * 5)
	defer ticker.Stop()
	var lastReported uint64
	tick := 0
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(stdout, "\nshutting down")
			return nil
		case <-ticker.C:
			tick++
			est, ok := node.Estimate()
			status := "converging"
			participating := 1
			if !ok {
				status = "waiting for epoch"
				participating = 0
			}
			fmt.Fprintf(stdout, "[epoch %d] estimate %12.4f (%s, %d peers)\n",
				node.Epoch(), est, status, node.PeerCount())
			if out, ok := node.LastOutput(); ok && out.Epoch != lastReported {
				lastReported = out.Epoch
				fmt.Fprintf(stdout, "== epoch %d output: %.6f (ok=%v)\n", out.Epoch, out.Value, out.OK)
			}
			m := node.Metrics()
			alerts := health.Eval(antientropy.HealthSample{
				Cycle:         tick,
				Epoch:         node.Epoch(),
				Alive:         node.PeerCount() + 1,
				Participating: participating,
				MeanEstimate:  est,
				Initiated:     m.ExchangesInitiated,
				Completed:     m.ExchangesCompleted,
				Timeouts:      m.Timeouts,
				Declined:      m.PeerDeclined,
				Drops:         endpoint.QueueDrops() + endpoint.FilterDrops(),
			})
			timeline.Record(antientropy.TimelineEntry{
				Cycle:         tick,
				Epoch:         node.Epoch(),
				Alive:         node.PeerCount() + 1,
				Participating: participating,
				MeanEstimate:  est,
				Drops:         endpoint.QueueDrops() + endpoint.FilterDrops(),
				Alerts:        alerts,
			})
		}
	}
}

// muxAddrs parses a comma-separated contact list and completes each bare
// "host:port" to "host:port#0", the address an aggnode listening there
// has, so the address book never holds two spellings of one peer.
func muxAddrs(list string) []string {
	addrs := antientropy.ParseAddrList(list)
	for i, a := range addrs {
		if !strings.Contains(a, "#") {
			addrs[i] = a + "#0"
		}
	}
	return addrs
}

// readValues feeds stdin lines into the node's live value via set
// (Node.SetValue), acknowledging each on out: each epoch restart samples
// the latest (§4.1 adaptivity in a live deployment).
func readValues(r io.Reader, out io.Writer, set func(float64), logger *slog.Logger) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := strconv.ParseFloat(line, 64)
		if err != nil {
			logger.Warn("ignoring stdin value", "line", line, "err", err)
			continue
		}
		set(v)
		fmt.Fprintf(out, ">> local value set to %g (takes effect next epoch)\n", v)
	}
}
