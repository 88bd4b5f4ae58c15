package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"antientropy/internal/agent"
	"antientropy/internal/core"
	"antientropy/internal/obs"
	"antientropy/internal/stats"
	"antientropy/internal/transport"
)

// liveParams sizes a live fleet. Both live workloads share the fleet
// size and the schedule; they differ in the aggregate (scalar AVERAGE
// against the COUNT map state) and in the transport (in-memory network
// against one UDP mux on loopback).
type liveParams struct {
	Name  string
	Count bool // ModeCount over a UDPMux; otherwise ModeScalar over a MemNetwork
	N     int
	Cycle time.Duration // δ
	Gamma int           // γ: Δ = γ·δ
	// RhoFrom..RhoTo are the cycles of an epoch the convergence factor is
	// taken over: 2..10 for the scalar, as in the simulator; 10..18 for
	// COUNT, whose size estimate 1/mass contracts like the mass itself
	// only once every node holds mass and the spread is small.
	RhoFrom, RhoTo int
}

func liveFor(name string, count, quick bool) liveParams {
	p := liveParams{Name: name, Count: count, N: 500, Cycle: 150 * time.Millisecond, Gamma: 20, RhoFrom: 2, RhoTo: 10}
	if count {
		p.RhoFrom, p.RhoTo = 10, 18
	}
	if quick {
		p.N, p.Cycle = 64, 25*time.Millisecond
	}
	return p
}

func (p liveParams) epoch() time.Duration { return time.Duration(p.Gamma) * p.Cycle }

// bootstrapContacts is how many seeded contacts each node starts with:
// a full NEWSCAST cache.
const bootstrapContacts = 30

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))

// liveFleet is a started fleet and everything needed to read and stop it.
type liveFleet struct {
	p         liveParams
	sched     core.Schedule
	nodes     []*agent.Node
	mem       *transport.MemNetwork
	memEps    []*transport.MemEndpoint
	mux       *transport.UDPMux
	muxEps    []*transport.MuxEndpoint
	trueMean  float64
	bytesSent atomic.Int64 // traced fleets only
}

// startFleet generates the fleet's inputs from seed — local values
// uniform in [0,100), 30 bootstrap contacts per node, per-node protocol
// seeds — and starts it. With spans non-nil every endpoint is wrapped in
// the tracing decorator and the agent's own RTT histogram and trace
// ring are switched on.
func startFleet(p liveParams, seed uint64, spans *spanLog) (*liveFleet, error) {
	f := &liveFleet{p: p}
	rng := stats.NewStreamRNG(seed, 2)
	eps := make([]transport.Endpoint, p.N)
	if p.Count {
		mux, err := transport.NewUDPMux(transport.UDPMuxConfig{ReadBuffer: 4 << 20})
		if err != nil {
			return nil, fmt.Errorf("opening udp mux: %w", err)
		}
		f.mux = mux
		for i := range eps {
			ep, err := mux.Endpoint()
			if err != nil {
				f.stop()
				return nil, fmt.Errorf("opening mux endpoint: %w", err)
			}
			f.muxEps = append(f.muxEps, ep)
			eps[i] = ep
		}
	} else {
		f.mem = transport.NewMemNetwork(transport.MemNetworkConfig{QueueLen: 256, Seed: int64(seed | 1)})
		for i := range eps {
			ep := f.mem.Endpoint()
			f.memEps = append(f.memEps, ep)
			eps[i] = ep
		}
	}
	addrs := make([]string, p.N)
	for i, ep := range eps {
		addrs[i] = ep.Addr()
	}
	var rtt *obs.Histogram
	var ring *obs.TraceRing
	if spans != nil {
		rtt = obs.NewHistogram(obs.RTTBuckets)
		ring = obs.NewTraceRing(4096)
		for i, ep := range eps {
			eps[i] = traceEndpoint(ep, spans, &f.bytesSent)
		}
	}
	f.sched = core.Schedule{Start: time.Now(), Delta: p.epoch(), CycleLen: p.Cycle, Gamma: p.Gamma}
	contacts := min(bootstrapContacts, p.N-1)
	picks := make([]int, contacts)
	var sum float64
	for i := range eps {
		rng.Sample(picks, p.N, func(j int) bool { return j == i })
		boot := make([]string, contacts)
		for k, j := range picks {
			boot[k] = addrs[j]
		}
		value := rng.Float64() * 100
		sum += value
		cfg := agent.Config{
			Endpoint: eps[i], Schedule: f.sched, Bootstrap: boot,
			Seed: rng.Uint64() | 1, Logger: quietLogger, RTT: rtt, Trace: ring,
		}
		if p.Count {
			cfg.Mode = agent.ModeCount
			cfg.Concurrency = 8
			cfg.InitialSizeGuess = float64(p.N)
		} else {
			cfg.Mode = agent.ModeScalar
			cfg.Function = core.Average
			cfg.Value = func() float64 { return value }
		}
		node, err := agent.New(cfg)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, node)
		if err := node.Start(context.Background()); err != nil {
			f.stop()
			return nil, err
		}
	}
	f.trueMean = sum / float64(p.N)
	return f, nil
}

// stop stops every node (which closes its endpoint) and the network.
func (f *liveFleet) stop() {
	if f.mux != nil {
		// MuxEndpoint.Close can deadlock against a delivery in flight on
		// the same endpoint: deliver holds the handler lock for reading,
		// the handler's Send takes it for reading again, and a Close that
		// asked for the write lock in between blocks that second read.
		// Until internal/transport is fixed, the mux is silenced first —
		// its drop rule discards datagrams before delivery — and the
		// deliveries already running (tens of µs each) are given time to
		// end.
		silence := transport.NewUDPFilter(1)
		silence.SetDrop(func(string, string) bool { return true })
		f.mux.SetFilter(silence)
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range f.nodes {
		_ = n.Stop()
	}
	if f.mux != nil {
		_ = f.mux.Close()
	}
	if f.mem != nil {
		f.mem.Close()
	}
}

func (f *liveFleet) metrics() agent.Metrics {
	var sum agent.Metrics
	for _, n := range f.nodes {
		sum.Accumulate(n.Metrics())
	}
	return sum
}

// drops counts datagrams the transport discarded: full inbound queues,
// and for the mux frames it could not route.
func (f *liveFleet) drops() int64 {
	var d int64
	for _, ep := range f.memEps {
		d += int64(ep.Dropped())
	}
	for _, ep := range f.muxEps {
		d += ep.QueueDrops()
	}
	if f.mux != nil {
		d += f.mux.Unrouted()
	}
	return d
}

// fleetSample is the fleet's estimates at one instant.
type fleetSample struct {
	reporting int
	relSpread float64 // σ/|mean| over the reporting nodes
	variance  float64
}

func (f *liveFleet) sample() fleetSample {
	var m stats.Moments
	for _, n := range f.nodes {
		if v, ok := n.Estimate(); ok && !math.IsInf(v, 0) && !math.IsNaN(v) {
			m.Add(v)
		}
	}
	s := fleetSample{reporting: m.N(), variance: m.PopVariance()}
	if s.reporting > 0 {
		s.relSpread = math.Sqrt(s.variance) / math.Max(math.Abs(m.Mean()), 1e-12)
	}
	return s
}

// epochOutputs returns every node's sealed output of the given epoch.
func (f *liveFleet) epochOutputs(epoch uint64) []float64 {
	var out []float64
	for _, n := range f.nodes {
		for _, o := range n.Outputs() {
			if o.Epoch == epoch && o.OK {
				out = append(out, o.Value)
			}
		}
	}
	return out
}

// liveWindow is one measured epoch.
type liveWindow struct {
	epoch     uint64
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	m         agent.Metrics // delta over the window
	samples   []fleetSample // index c = c cycles into the epoch (c = 0..γ-1)
	outputs   []float64     // node outputs sealed at the epoch's end
	goroutine int
}

// observeFleet watches a started fleet for whole epochs: epoch 0 (the one
// the fleet started in) warms up, the following `epochs` are measured,
// one window each. It samples every node's estimate once per δ, on the
// cycle boundary, and reads the process meters on epoch boundaries.
// The load is open loop by construction: every node's ticker offers one
// exchange per δ whatever happened to the previous one.
func observeFleet(f *liveFleet, epochs int) []liveWindow {
	p := f.p
	windows := make([]liveWindow, 0, epochs)
	var cur *liveWindow
	var startUse usage
	var startM agent.Metrics
	sealed := -1 // index of the window whose outputs are still to be collected
	total := (epochs + 1) * p.Gamma
	for j := p.Gamma; j <= total+1; j++ {
		time.Sleep(time.Until(f.sched.Start.Add(time.Duration(j) * p.Cycle)))
		c := j % p.Gamma
		if c == 1 && sealed >= 0 {
			// One cycle into the next epoch every node has ticked, so every
			// node has sealed the epoch that just ended.
			windows[sealed].outputs = f.epochOutputs(windows[sealed].epoch)
			sealed = -1
		}
		if c == 0 {
			now, m := readUsage(), f.metrics()
			if cur != nil {
				cur.wall, cur.cpu = now.at.Sub(startUse.at), now.cpu-startUse.cpu
				cur.mallocs, cur.bytes = now.mallocs-startUse.mallocs, now.bytes-startUse.bytes
				cur.m = metricsDelta(m, startM)
				cur.goroutine = runtime.NumGoroutine()
				windows = append(windows, *cur)
				sealed = len(windows) - 1
				cur = nil
			}
			if j >= total {
				continue
			}
			cur = &liveWindow{epoch: uint64(j / p.Gamma)}
			// Re-read: the fleet scan above is bench work, not fleet work.
			startUse, startM = readUsage(), m
		}
		if cur != nil {
			cur.samples = append(cur.samples, f.sample())
		}
	}
	return windows
}

// metricsDelta is a − b over the counters the benchmark reads.
func metricsDelta(a, b agent.Metrics) agent.Metrics {
	return agent.Metrics{
		ExchangesInitiated: a.ExchangesInitiated - b.ExchangesInitiated,
		ExchangesCompleted: a.ExchangesCompleted - b.ExchangesCompleted,
		Timeouts:           a.Timeouts - b.Timeouts,
		RefusedBusy:        a.RefusedBusy - b.RefusedBusy,
		DecodeErrors:       a.DecodeErrors - b.DecodeErrors,
		GossipFramesFull:   a.GossipFramesFull - b.GossipFramesFull,
		GossipFramesDelta:  a.GossipFramesDelta - b.GossipFramesDelta,
		GossipEntriesSent:  a.GossipEntriesSent - b.GossipEntriesSent,
		RTTSamples:         a.RTTSamples - b.RTTSamples,
		RTTTotal:           a.RTTTotal - b.RTTTotal,
	}
}

// liveStats reduces the windows of one observation.
type liveStats struct {
	opsPerS   []float64
	cpuPerOp  []float64
	allocs    []float64
	bytes     []float64
	rho       []float64
	convMs    []float64
	total     agent.Metrics
	goroutine float64
	epochMean []float64 // per epoch: mean (scalar) or median (count) node output
}

func reduceLive(p liveParams, windows []liveWindow) liveStats {
	var s liveStats
	for _, w := range windows {
		done := float64(w.m.ExchangesCompleted)
		if done == 0 {
			continue
		}
		s.total.Accumulate(w.m)
		s.opsPerS = append(s.opsPerS, done/w.wall.Seconds())
		s.cpuPerOp = append(s.cpuPerOp, float64(w.cpu.Nanoseconds())/1e3/done)
		s.allocs = append(s.allocs, float64(w.mallocs)/done)
		s.bytes = append(s.bytes, float64(w.bytes)/done)
		s.goroutine = float64(w.goroutine) / float64(p.N)
		if r, ok := windowRho(p, w.samples); ok {
			s.rho = append(s.rho, r)
		}
		spread := make([]float64, 0, len(w.samples))
		for _, fs := range w.samples[1:] {
			v := fs.relSpread
			if fs.reporting < p.N {
				v = math.Inf(1) // a node without an estimate has not converged
			}
			spread = append(spread, v)
		}
		// An epoch that never gets there counts with its full length.
		conv := float64(p.epoch().Milliseconds())
		if c, ok := crossing(spread, 0.01); ok {
			conv = (c + 1) * float64(p.Cycle.Milliseconds())
		}
		s.convMs = append(s.convMs, conv)
		if len(w.outputs) > 0 {
			if p.Count {
				s.epochMean = append(s.epochMean, median(w.outputs))
			} else {
				s.epochMean = append(s.epochMean, mean(w.outputs))
			}
		}
	}
	return s
}

// windowRho is the epoch's convergence factor: the geometric mean of
// the per-cycle variance ratio over cycles RhoFrom..RhoTo, from the
// once-per-δ fleet samples.
func windowRho(p liveParams, samples []fleetSample) (float64, bool) {
	if p.RhoTo >= len(samples) {
		return 0, false
	}
	from, to := samples[p.RhoFrom], samples[p.RhoTo]
	if from.variance <= 0 || to.variance <= 0 {
		return 0, false
	}
	return math.Pow(to.variance/from.variance, 1/float64(p.RhoTo-p.RhoFrom)), true
}

// runLive is both live workloads.
func runLive(p liveParams, cfg runConfig) (*runRecord, error) {
	rec := newRecord(p.Name, cfg)
	epochs := int(cfg.duration()/p.epoch()) - 1 // the first epoch warms up
	if cfg.Trace {
		// A traced run spends its time on two fleets — untraced, then
		// traced, each a warm-up and `epochs` measured epochs — so the
		// difference is the tracing overhead.
		epochs = max(1, epochs/3)
	}
	if epochs < 1 {
		return nil, fmt.Errorf("%s: -seconds %g is shorter than a warm-up and one measured epoch (%v each)", p.Name, cfg.Seconds, p.epoch())
	}

	fleet, setupSecs, err := timeSetup(
		func() (*liveFleet, error) { return startFleet(p, cfg.Seed, nil) },
		func(f *liveFleet) { f.stop() })
	if err != nil {
		return nil, err
	}
	rec.Metrics.windows("setup_s", setupSecs)
	windows := observeFleet(fleet, epochs)
	s := reduceLive(p, windows)
	queueMax, batchMean := int64(0), 0.0
	if fleet.mux != nil {
		queueMax = fleet.mux.QueueDepthHighWatermark()
		if b := fleet.mux.BatchSizes(); b.Count > 0 {
			batchMean = b.Sum / float64(b.Count)
		}
	} else {
		queueMax = fleet.mem.QueueDepthHighWatermark()
	}
	drops := fleet.drops()
	unrouted := int64(0)
	if fleet.mux != nil {
		unrouted = fleet.mux.Unrouted()
	}
	rec.Metrics.set("mem_mb", sysMiB())
	fleet.stop()

	// A timed-out or refused exchange is one the protocol skips by design
	// (§6.2), and one 75 ms stall of a shared box times out the ~250
	// exchanges in flight: they lower ops_per_s and show in
	// agent.timeout_share, but only a datagram a node could not decode is
	// a failed operation, and only wrong outputs make the run incorrect.
	rec.Attempted = s.total.ExchangesInitiated
	rec.Failed = s.total.DecodeErrors
	rec.check("windows", len(s.cpuPerOp) == epochs, "%d of %d measured epochs completed exchanges", len(s.cpuPerOp), epochs)
	rec.check("decode-errors", s.total.DecodeErrors == 0, "%d undecodable datagrams", s.total.DecodeErrors)
	if p.Count {
		est := median(s.epochMean)
		rec.check("size-estimate", len(s.epochMean) == epochs && math.Abs(est-float64(p.N))/float64(p.N) <= 0.05,
			"median size estimate %.1f over %d epochs (true %d, limit 5%%)", est, len(s.epochMean), p.N)
		rec.check("unrouted", unrouted == 0, "%d unroutable datagrams", unrouted)
	} else {
		worst := 0.0
		for _, m := range s.epochMean {
			worst = math.Max(worst, math.Abs(m-fleet.trueMean)/math.Abs(fleet.trueMean))
		}
		rec.check("epoch-mean", len(s.epochMean) == epochs && worst <= 1e-2,
			"worst epoch mean output off the true mean %.6g by %.3g (limit 1e-2, %d epochs)", fleet.trueMean, worst, len(s.epochMean))
	}
	rec.Metrics.windows("ops_per_s", s.opsPerS)
	rec.Metrics.windows("cpu_us_per_op", s.cpuPerOp)
	rec.Metrics.windows("allocs_per_op", s.allocs)
	rec.Metrics.windows("convergence_factor", s.rho)
	rec.Metrics.windows("converge_ms", s.convMs)

	// Run rows: counts and ratios read from public accessors.
	t := s.total
	initiated := math.Max(float64(t.ExchangesInitiated), 1)
	frames := math.Max(float64(t.GossipFramesFull+t.GossipFramesDelta), 1)
	rec.Metrics.windows("agent.bytes_alloc_per_exchange", s.bytes)
	rec.Metrics.set("agent.goroutines_per_node", s.goroutine)
	if t.RTTSamples > 0 {
		rec.Metrics.set("agent.rtt_mean_us", float64(t.RTTTotal.Nanoseconds())/1e3/float64(t.RTTSamples))
	}
	rec.Metrics.set("agent.completed_share", float64(t.ExchangesCompleted)/initiated)
	rec.Metrics.set("agent.busy_refused_share", float64(t.RefusedBusy)/initiated)
	rec.Metrics.set("agent.timeout_share", float64(t.Timeouts)/initiated)
	rec.Metrics.set("agent.frames_full_share", float64(t.GossipFramesFull)/frames)
	rec.Metrics.set("agent.entries_per_frame", float64(t.GossipEntriesSent)/frames)
	rec.Metrics.set("transport.mux_batch_mean", batchMean)
	rec.Metrics.set("transport.mux_queue_depth_max", float64(queueMax))
	rec.Metrics.set("transport.drops", float64(drops))

	if !cfg.Trace {
		return rec, nil
	}
	// Traced fleet: same inputs, decorators on.
	traced, err := startFleet(p, cfg.Seed, cfg.Spans)
	if err != nil {
		return nil, err
	}
	ts := reduceLive(p, observeFleet(traced, epochs))
	bytesSent := traced.bytesSent.Load()
	traced.stop()
	sum := cfg.Spans.summarise()
	if done := float64(ts.total.ExchangesCompleted); done > 0 {
		// Warm-up traffic is in the byte count but not in the exchange
		// count: scale by the share of time measured.
		share := float64(epochs) / float64(epochs+1)
		rec.Metrics.set("wire.bytes_per_exchange", float64(bytesSent)*share/done)
	}
	if st := sum["send"]; st != nil && st.Count > 0 {
		rec.Metrics.set("transport.send_us", float64(st.Total.Nanoseconds())/1e3/float64(st.Count))
	}
	rec.Metrics.set("agent.handler_us", meanSelfMicros(sum, "deliver"))
	if base := median(s.cpuPerOp); base > 0 && len(ts.cpuPerOp) > 0 {
		rec.Metrics.set("trace.cpu_overhead_share", median(ts.cpuPerOp)/base-1)
	}
	return rec, nil
}
