package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"antientropy/internal/agent"
	"antientropy/internal/core"
	"antientropy/internal/obs"
	"antientropy/internal/overlay"
	"antientropy/internal/serve"
	"antientropy/internal/stats"
	"antientropy/internal/transport"
	"antientropy/internal/wire"
)

// The ladder times one exported function of each layer in isolation, on
// inputs shaped like the workloads' (31-descriptor views, 8-leader maps,
// 500 peers, 20 000-node tables). It runs after the traced workload, in
// a quiet process, and is the same in every workload's traced run.

// sink keeps results alive so the compiler cannot drop a measured call.
var sink struct {
	f   float64
	i   int
	b   []byte
	any any
}

// rung is one ladder measurement: ns and heap allocations per call in
// each of ladderBatches timed batches.
type rung struct{ ns, allocs []float64 }

const ladderBatches = 5

// measure sizes a batch to about target by doubling, then times
// ladderBatches batches and reads the allocation counter around each.
func measure(target time.Duration, op func()) rung {
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		d := time.Since(start)
		if d >= target/2 || iters >= 1<<26 {
			break
		}
		iters *= 2
	}
	ns := make([]float64, ladderBatches)
	allocs := make([]float64, ladderBatches)
	var ms runtime.MemStats
	for b := range ns {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		d := time.Since(start)
		runtime.ReadMemStats(&ms)
		ns[b] = float64(d.Nanoseconds()) / float64(iters)
		allocs[b] = float64(ms.Mallocs-before) / float64(iters)
	}
	return rung{ns, allocs}
}

// ladderView builds a 31-descriptor view as the agent gossips it: 30
// cache entries plus the sender's own fresh descriptor.
func ladderView() []wire.Descriptor {
	view := make([]wire.Descriptor, 0, 31)
	for i := 0; i < 31; i++ {
		view = append(view, wire.Descriptor{Addr: fmt.Sprintf("127.0.0.1:41000#%d", 100+i), Stamp: int64(1000 + i)})
	}
	return view
}

// discardWriter is the http.ResponseWriter the API rungs serve into.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// runLadder measures every ladder rung into m. A rung that cannot be
// set up reports nothing (and so reads 0).
func runLadder(cfg runConfig, m metricSet) {
	target := 20 * time.Millisecond
	if cfg.Quick {
		target = time.Millisecond
	}
	ns := func(name string, r rung) { m.windows(name, r.ns) }
	us := func(name string, r rung) {
		micros := make([]float64, len(r.ns))
		for i, v := range r.ns {
			micros[i] = v / 1e3
		}
		m.windows(name, micros)
	}
	rng := stats.NewStreamRNG(cfg.Seed, 30)

	ladderCore(m, target, ns)
	ladderOverlay(m, target, ns, rng, cfg.Quick)
	ladderWire(m, target, ns)
	ladderTransport(m, target, ns, us)
	ladderAgent(m, target, us)
	ladderEngines(m, cfg)
	ladderServe(m, target, ns, us, rng)
	ladderObs(target, ns)

	// scenario.overhead_share: what RunSimWith adds per cycle over a bare
	// engine step — 1 − bare step ÷ scenario cycle. The script's cycles
	// also do less protocol work than a bare step (churned-in nodes sit
	// the epoch out), so the share can be negative.
	if rate, ok := m["sim.serial_node_cycles_per_s"]; ok && rate.Value > 0 {
		m.set("scenario.overhead_share", 1-m["sim.step_ns_per_node"].Value*rate.Value/1e9)
	}
}

func ladderCore(m metricSet, target time.Duration, ns func(string, rung)) {
	a, b := 3.0, 5.0
	ns("core.update_scalar_ns", measure(target, func() { a, b = core.Average.Update(a, b+1) }))
	sink.f = a

	left, right := core.MapState{}, core.MapState{}
	for i := 0; i < 8; i++ {
		left[core.LeaderID(i)] = 1 / float64(i+2)
		right[core.LeaderID(i+4)] = 1 / float64(i+3) // half the leaders shared
	}
	r := measure(target, func() { sink.any = core.Merge(left, right) })
	ns("core.map_merge_ns", r)
	m.windows("core.map_merge_allocs", r.allocs)

	guard := core.NewMergeGuard(core.MedianOfK{}, 0, 1)
	local := 50.0
	r = measure(target, func() { local = guard.Merge(0, local, local+1) })
	sink.f = local
	ns("core.guard_merge_ns", r)
	m.windows("core.guard_merge_allocs", r.allocs)
}

func ladderOverlay(m metricSet, target time.Duration, ns func(string, rung), rng *stats.RNG, quick bool) {
	n := simNodes(quick)
	const c = 30
	table, err := overlay.NewTable(n, c)
	if err != nil {
		return
	}
	for i := 0; i < n; i++ {
		table.At(i).SeedRandom(c, n, 0, rng)
	}
	var scratch []uint64
	exchange := func(cycle int) func() {
		i := 0
		return func() {
			if j := table.Neighbor(i, rng); j >= 0 && j != i {
				scratch = table.Exchange(scratch, i, j, cycle)
			}
			if i++; i == n {
				i = 0
				cycle++
			}
		}
	}
	warm := exchange(1)
	for k := 0; k < 2*n; k++ {
		warm()
	}
	r := measure(target, exchange(3))
	ns("overlay.table_exchange_ns", r)
	m.windows("overlay.table_exchange_allocs", r.allocs)

	// A live node's view: full, absorbing 31-entry remote views of peers
	// drawn from a 500-node fleet with advancing stamps.
	view, err := overlay.NewMembership(0, c)
	if err != nil {
		return
	}
	view.SeedRandom(c, 500, 0, rng)
	remotes := make([][]uint64, 64)
	for k := range remotes {
		picks := make([]int, c+1)
		rng.Sample(picks, 500, func(j int) bool { return j == 0 })
		for _, key := range picks {
			remotes[k] = append(remotes[k], overlay.Pack(int32(key), int32(k+1)))
		}
	}
	k := 0
	r = measure(target, func() {
		view.AbsorbPacked(remotes[k%len(remotes)])
		k++
	})
	ns("overlay.absorb_packed_ns", r)
	m.windows("overlay.absorb_packed_allocs", r.allocs)
	ns("overlay.peer_ns", measure(target, func() { p, _ := view.Peer(rng); sink.i = int(p) }))
}

func ladderWire(m metricSet, target time.Duration, ns func(string, rung)) {
	from := "127.0.0.1:41000#7"
	full := &wire.ExchangeRequest{From: from, Payload: wire.Payload{
		Seq: 9, XID: 0x1234, Epoch: 3, FuncID: wire.FuncAverage, Scalar: 42.5,
		View: wire.ViewFrame{Kind: wire.ViewFull, Gen: 5, Ack: 4, Entries: ladderView()},
	}}
	data, err := wire.Encode(full)
	if err != nil {
		return
	}
	r := measure(target, func() { sink.b, _ = wire.Encode(full) })
	ns("wire.encode_full_ns", r)
	m.windows("wire.encode_full_allocs", r.allocs)
	m.set("wire.encode_full_bytes", float64(len(data)))
	r = measure(target, func() { sink.any, _ = wire.Decode(data) })
	ns("wire.decode_full_ns", r)
	m.windows("wire.decode_full_allocs", r.allocs)

	delta := &wire.ExchangeRequest{From: from, Payload: wire.Payload{
		Seq: 9, XID: 0x1234, Epoch: 3, FuncID: wire.FuncAverage, Scalar: 42.5,
		View: wire.ViewFrame{Kind: wire.ViewDelta, Gen: 6, Ack: 5, Base: 5, Entries: ladderView()[:2]},
	}}
	if d, err := wire.Encode(delta); err == nil {
		ns("wire.encode_delta_ns", measure(target, func() { sink.b, _ = wire.Encode(delta) }))
		m.set("wire.encode_delta_bytes", float64(len(d)))
	}

	// The COUNT map payload alone (no view), so the rung isolates what
	// the map state adds to a frame.
	entries := make([]wire.MapEntry, 8)
	for i := range entries {
		entries[i] = wire.MapEntry{Leader: int64(1000 + i), Value: 1 / float64(i+2)}
	}
	count := &wire.ExchangeRequest{From: from, Payload: wire.Payload{
		Seq: 9, XID: 0x1234, Epoch: 3, FuncID: wire.FuncCount, Entries: entries,
	}}
	if d, err := wire.Encode(count); err == nil {
		ns("wire.encode_count_ns", measure(target, func() { sink.b, _ = wire.Encode(count) }))
		ns("wire.decode_count_ns", measure(target, func() { sink.any, _ = wire.Decode(d) }))
	}

	// The per-peer delta codec on a 31-entry packed view: the peer acks
	// every frame, so encodes after the first are deltas of the entries
	// whose stamps moved (here: the self descriptor).
	book := overlay.NewBook()
	packed := make([]uint64, 0, 31)
	for i, d := range ladderView() {
		packed = append(packed, overlay.Pack(book.Intern(d.Addr), int32(i)))
	}
	var codec wire.ViewCodec
	stamp := int32(100)
	ns("wire.viewcodec_encode_ns", measure(target, func() {
		stamp++
		packed[len(packed)-1] = overlay.Pack(overlay.UnpackKey(packed[len(packed)-1]), stamp)
		f := codec.EncodeView(packed, book.Addr)
		codec.Observe(wire.ViewFrame{Kind: wire.ViewDelta, Gen: f.Gen, Ack: f.Gen})
	}))
	var peer wire.ViewCodec
	gen := uint32(0)
	frame := wire.ViewFrame{Kind: wire.ViewDelta, Entries: ladderView()[:2]}
	ns("wire.viewcodec_observe_ns", measure(target, func() {
		gen++
		frame.Gen = gen
		sink.i = len(peer.Observe(frame))
	}))
}

func ladderTransport(m metricSet, target time.Duration, ns, us func(string, rung)) {
	payload := make([]byte, 128)

	net := transport.NewMemNetwork(transport.MemNetworkConfig{QueueLen: 256, Seed: 1})
	a, b := net.Endpoint(), net.Endpoint()
	r := measure(target, func() {
		_ = a.Send(b.Addr(), payload)
		p := <-b.Recv()
		_ = b.Send(a.Addr(), p.Data)
		<-a.Recv()
	})
	us("transport.mem_roundtrip_us", r)
	m.windows("transport.mem_roundtrip_allocs", r.allocs)
	net.Close()

	if mux, err := transport.NewUDPMux(transport.UDPMuxConfig{ReadBuffer: 4 << 20}); err == nil {
		cli, err1 := mux.Endpoint()
		srv, err2 := mux.Endpoint()
		if err1 == nil && err2 == nil {
			srv.SetHandler(func(p transport.Packet) {
				_ = srv.Send(p.From, p.Data)
				p.Release()
			})
			done := make(chan struct{}, 1)
			cli.SetHandler(func(p transport.Packet) {
				p.Release()
				select {
				case done <- struct{}{}:
				default:
				}
			})
			r := measure(target, func() {
				_ = cli.Send(srv.Addr(), payload)
				select {
				case <-done:
				case <-time.After(time.Second): // UDP: a lost datagram must not hang the rung
				}
			})
			us("transport.mux_roundtrip_us", r)
			m.windows("transport.mux_roundtrip_allocs", r.allocs)
		}
		_ = mux.Close()
	}

	sessions := transport.NewSessions(0, func(string) *int { return new(int) })
	peers := make([]string, 500)
	for i := range peers {
		peers[i] = fmt.Sprintf("127.0.0.1:41000#%d", i)
		sessions.Get(peers[i])
	}
	i := 0
	ns("transport.sessions_get_ns", measure(target, func() {
		sink.any = sessions.Get(peers[i%len(peers)])
		i++
	}))
}

// ladderAgent times the passive thread end to end from outside: an
// encoded request from a benchmark-owned endpoint to a started node
// whose ticker never fires, until the reply is back.
func ladderAgent(m metricSet, target time.Duration, us func(string, rung)) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{QueueLen: 256, Seed: 1})
	defer net.Close()
	peer := net.Endpoint()
	node, err := agent.New(agent.Config{
		Endpoint:  net.Endpoint(),
		Schedule:  core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: time.Hour, Gamma: 1 << 20},
		Value:     func() float64 { return 1 },
		Bootstrap: []string{peer.Addr()},
		Seed:      1,
		Logger:    quietLogger,
	})
	if err != nil {
		return
	}
	if err := node.Start(context.Background()); err != nil {
		return
	}
	defer node.Stop()
	view := ladderView()
	view[0].Addr = peer.Addr()
	data, err := wire.Encode(&wire.ExchangeRequest{From: peer.Addr(), Payload: wire.Payload{
		Seq: 1, Epoch: node.Epoch(), FuncID: wire.FuncAverage, Scalar: 2,
		View: wire.ViewFrame{Kind: wire.ViewFull, Gen: 1, Entries: view},
	}})
	if err != nil {
		return
	}
	r := measure(target, func() {
		_ = peer.Send(node.Addr(), data)
		select {
		case p := <-peer.Recv():
			sink.i = len(p.Data)
		case <-time.After(time.Second):
		}
	})
	us("agent.serve_exchange_us", r)
	m.windows("agent.serve_exchange_allocs", r.allocs)
}

// ladderEngines builds and steps the bare engines at the sim-churn size:
// NEWSCAST c = 30, no script, no observer.
func ladderEngines(m metricSet, cfg runConfig) {
	n := simNodes(cfg.Quick)
	steps := 5
	perNode := func(step func()) float64 {
		for i := 0; i < 3; i++ { // let the views warm and the caches fill
			step()
		}
		per := make([]float64, steps)
		for i := range per {
			sp := cfg.Spans.begin("engine.Step", "", 0)
			start := time.Now()
			step()
			per[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
			sp.end()
		}
		return median(per)
	}
	buildMS := func(build func() error) float64 {
		per := make([]float64, 3)
		for i := range per {
			start := time.Now()
			if build() != nil {
				return 0
			}
			per[i] = float64(time.Since(start).Microseconds()) / 1e3
		}
		return median(per)
	}
	seed := stats.NewStreamRNG(cfg.Seed, 31).Uint64() | 1
	if e, err := bareSerial(n, seed); err == nil {
		m.set("sim.step_ns_per_node", perNode(e.Step))
		m.set("sim.build_ms", buildMS(func() error { _, err := bareSerial(n, seed); return err }))
	}
	if e, err := bareSharded(n, 1, seed); err == nil {
		m.set("parsim.step_ns_per_node_k1", perNode(e.Step))
	}
	if e, err := bareSharded(n, simShards, seed); err == nil {
		m.set("parsim.step_ns_per_node_k4", perNode(e.Step))
		m.set("parsim.build_ms", buildMS(func() error { _, err := bareSharded(n, simShards, seed); return err }))
	}
}

func ladderServe(m metricSet, target time.Duration, ns, us func(string, rung), rng *stats.RNG) {
	reg := serve.NewRegistry(serve.RegistryConfig{Transport: serve.TransportMem, Logger: quietLogger})
	defer reg.Close()
	p := serveFor(false)
	inst, err := reg.Create(serve.InstanceConfig{
		Name: "avg", Function: serve.FuncAverage,
		FleetSize: p.Fleet, EpochMS: p.EpochMS, CycleMS: p.CycleMS,
	}, "default")
	if err != nil {
		return
	}
	values := unequalValues(rng)
	inst.Feed(values, nil, false)
	r := measure(target, func() { sink.f = inst.Estimate().Estimate })
	us("serve.estimate_us", r)
	m.windows("serve.estimate_allocs", r.allocs)
	r = measure(target, func() { sink.i, _ = inst.Feed(values, nil, false) })
	us("serve.feed_us", r)
	m.windows("serve.feed_allocs", r.allocs)

	tenants, err := serve.NewTenants(nil)
	if err != nil {
		return
	}
	limiter := serve.NewLimiter()
	limiter.SetLimit("default", serve.Limit{})
	api := serve.NewAPI(serve.APIConfig{
		Registry: reg, Tenants: tenants, Limiter: limiter,
		Metrics: serve.NewMetrics(obs.NewRegistry()), Logger: quietLogger,
	})
	w := &discardWriter{h: http.Header{}}
	get, _ := http.NewRequest(http.MethodGet, "/v1/instances/avg/estimate", nil)
	us("serve.api_estimate_us", measure(target, func() { api.ServeHTTP(w, get) }))
	body, _ := jsonValues(values)
	us("serve.api_feed_us", measure(target, func() {
		post, _ := http.NewRequest(http.MethodPost, "/v1/instances/avg/values", bytes.NewReader(body))
		api.ServeHTTP(w, post)
	}))
	if w.code != http.StatusOK {
		m.set("serve.api_feed_us", 0) // a refused request is not the rung
	}
	ns("serve.limiter_allow_ns", measure(target, func() { ok, _ := limiter.Allow("default"); sink.any = ok }))
}

func ladderObs(target time.Duration, ns func(string, rung)) {
	var counter obs.Counter
	ns("obs.counter_add_ns", measure(target, func() { counter.Add(1) }))
	hist := obs.NewHistogram(obs.RTTBuckets)
	v := 0.0
	ns("obs.histogram_observe_ns", measure(target, func() {
		v += 0.0001
		if v > 0.05 {
			v = 0
		}
		hist.Observe(v)
	}))
	ring := obs.NewTraceRing(4096)
	ev := obs.TraceEvent{At: time.Now(), Node: "a", Peer: "b", Kind: obs.TraceInitiate, Seq: 1, Epoch: 1, XID: 7}
	ns("obs.trace_record_ns", measure(target, func() { ring.Record(ev) }))
}
