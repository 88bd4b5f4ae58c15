package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"antientropy/internal/obs"
	"antientropy/internal/serve"
	"antientropy/internal/stats"
)

// The serve-mix instances: one per served function that runs a fleet of
// its own shape (variance runs two).
var serveInstances = []struct{ Name, Function string }{
	{"avg", serve.FuncAverage},
	{"cnt", serve.FuncCount},
	{"var", serve.FuncVariance},
}

// serveParams sizes the instances: fleet_size, epoch_ms, cycle_ms.
type serveParams struct {
	Fleet, EpochMS, CycleMS int
}

func serveFor(quick bool) serveParams {
	if quick {
		return serveParams{Fleet: 8, EpochMS: 200, CycleMS: 10}
	}
	return serveParams{Fleet: 32, EpochMS: 1000, CycleMS: 50}
}

func (p serveParams) epoch() time.Duration { return time.Duration(p.EpochMS) * time.Millisecond }
func (p serveParams) cycle() time.Duration { return time.Duration(p.CycleMS) * time.Millisecond }

// feedPhase is how far into an epoch Phase B feeds, so the wait for the
// next restart is the same for every feed (250 ms of a 1 s epoch).
func (p serveParams) feedPhase() time.Duration { return p.epoch() / 4 }

// pollEvery is Phase B's polling period (5 ms at a 50 ms cycle).
func (p serveParams) pollEvery() time.Duration { return p.cycle() / 10 }

// feedValues is the size of every feed: one value per node of a full
// size fleet.
const feedValues = 32

// serveRig is the cmd/aggd wiring behind a loopback listener.
type serveRig struct {
	p       serveParams
	reg     *serve.Registry
	srv     *http.Server
	base    string
	created map[string]time.Time
	done    chan struct{}
}

// startServe builds the daemon the way cmd/aggd does (mem transport,
// open tenant, unlimited limiter, serve metrics) and creates the three
// instances through the API.
func startServe(p serveParams, spans *spanLog) (*serveRig, error) {
	tenants, err := serve.NewTenants(nil)
	if err != nil {
		return nil, err
	}
	limiter := serve.NewLimiter()
	for _, t := range tenants.All() {
		limiter.SetLimit(t.Name, t.Limit)
	}
	r := &serveRig{p: p, created: map[string]time.Time{}, done: make(chan struct{})}
	r.reg = serve.NewRegistry(serve.RegistryConfig{Transport: serve.TransportMem, Logger: quietLogger})
	api := serve.NewAPI(serve.APIConfig{
		Registry: r.reg, Tenants: tenants, Limiter: limiter,
		Metrics: serve.NewMetrics(obs.NewRegistry()), Logger: quietLogger,
	})
	mux := http.NewServeMux()
	mux.Handle("/v1/", traceHandler(api, spans))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.reg.Close()
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.srv = &http.Server{Handler: mux}
	go func() {
		defer close(r.done)
		_ = r.srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	c := newAPIClient(r.base)
	defer c.close()
	for _, in := range serveInstances {
		body, _ := json.Marshal(serve.InstanceConfig{
			Name: in.Name, Function: in.Function,
			FleetSize: p.Fleet, EpochMS: p.EpochMS, CycleMS: p.CycleMS,
		})
		var info struct {
			CreatedAt time.Time `json:"created_at"`
		}
		if err := c.do(http.MethodPost, "/v1/instances", body, http.StatusCreated, &info); err != nil {
			r.stop()
			return nil, fmt.Errorf("creating %s: %w", in.Name, err)
		}
		r.created[in.Name] = info.CreatedAt
	}
	return r, nil
}

// stop closes the listener and every connection, waits for the serve
// goroutine, then tears the fleets down.
func (r *serveRig) stop() {
	_ = r.srv.Close()
	<-r.done
	r.reg.Close()
}

// apiClient is one caller with one keep-alive connection.
type apiClient struct {
	hc   *http.Client
	base string
}

func newAPIClient(base string) *apiClient {
	return &apiClient{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes the reply; anything but the wanted
// status, or an undecodable body, is an error.
func (c *apiClient) do(method, path string, body []byte, want int, into any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, into)
}

func (c *apiClient) estimate(name string) (serve.Estimate, error) {
	var est serve.Estimate
	err := c.do(http.MethodGet, "/v1/instances/"+name+"/estimate", nil, http.StatusOK, &est)
	return est, err
}

type feedReply struct {
	Slots      int    `json:"slots"`
	Generation uint64 `json:"generation"`
}

// jsonValues is the POST …/values body for a positional feed.
func jsonValues(values []float64) ([]byte, error) {
	return json.Marshal(map[string]any{"values": values})
}

func (c *apiClient) feed(name string, values []float64) (feedReply, error) {
	body, err := jsonValues(values)
	if err != nil {
		return feedReply{}, err
	}
	var rep feedReply
	err = c.do(http.MethodPost, "/v1/instances/"+name+"/values", body, http.StatusOK, &rep)
	return rep, err
}

// unequalValues draws one feed: feedValues values uniform in [0, 2m)
// for a fresh mean m. Equal values would make the fleet "converged" the
// instant it restarts; these start it at a relative spread near 0.58,
// like the live workloads' uniform[0,100).
func unequalValues(rng *stats.RNG) []float64 {
	m := 20 + 80*rng.Float64()
	vs := make([]float64, feedValues)
	for i := range vs {
		vs[i] = 2 * m * rng.Float64()
	}
	return vs
}

// latHist is a log-bucket latency histogram (2 % wide buckets from
// 1 µs): a closed loop makes hundreds of thousands of requests and the
// benchmark must not grow the heap it is measuring.
type latHist struct {
	counts [1024]uint32
	n      int
}

const latBase = 1.02

func (h *latHist) add(d time.Duration) {
	i := 0
	if us := float64(d.Nanoseconds()) / 1e3; us > 1 {
		i = min(int(math.Log(us)/math.Log(latBase)), len(h.counts)-1)
	}
	h.counts[i]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileMicros interpolates by rank inside the bucket that holds the
// q-quantile.
func (h *latHist) quantileMicros(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := math.Pow(latBase, float64(i)), math.Pow(latBase, float64(i+1))
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return math.Pow(latBase, float64(len(h.counts)))
}

// mixWindow is one Phase-A window of one client.
type mixWindow struct {
	reads, writes latHist
	failed        int64
}

// phaseA is the closed loop: `clients` callers that each wait for their
// reply before sending the next request (collectors, dashboards), one
// keep-alive connection each; every 5th request feeds 32 values to avg
// or var alternately, the rest read estimates round-robin.
type phaseAResult struct {
	reqPerS, cpuPerReq, allocsPerReq     []float64
	readP50, readP99, writeP50, writeP99 []float64
	requests, failed                     int64
	firstErr                             error
}

func phaseA(rig *serveRig, seed uint64, dur time.Duration, windows int) phaseAResult {
	const clients = 2
	var window atomic.Int32
	var stop atomic.Bool
	per := make([][]mixWindow, clients)
	var requests [clients]atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		per[k] = make([]mixWindow, windows)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newAPIClient(rig.base)
			defer c.close()
			rng := stats.NewStreamRNG(seed, uint64(10+k))
			reads := []string{"avg", "cnt", "var"}
			feeds := []string{"avg", "var"}
			for i := k; !stop.Load(); i++ {
				w := &per[k][window.Load()]
				var err error
				start := time.Now()
				if i%5 == 4 {
					_, err = c.feed(feeds[(i/5)%2], unequalValues(rng))
					w.writes.add(time.Since(start))
				} else {
					_, err = c.estimate(reads[i%3])
					w.reads.add(time.Since(start))
				}
				requests[k].Add(1)
				if err != nil {
					w.failed++
					if errs[k] == nil {
						errs[k] = err
					}
				}
			}
		}(k)
	}
	total := func() int64 { return requests[0].Load() + requests[1].Load() }
	var res phaseAResult
	each := dur / time.Duration(windows)
	prevUse, prevReq := readUsage(), total()
	for w := 0; w < windows; w++ {
		time.Sleep(time.Until(prevUse.at.Add(each)))
		if w == windows-1 {
			stop.Store(true)
			wg.Wait()
		} else {
			window.Store(int32(w + 1))
		}
		use, req := readUsage(), total()
		n := float64(req - prevReq)
		if n > 0 {
			res.reqPerS = append(res.reqPerS, n/use.at.Sub(prevUse.at).Seconds())
			res.cpuPerReq = append(res.cpuPerReq, float64((use.cpu-prevUse.cpu).Nanoseconds())/1e3/n)
			res.allocsPerReq = append(res.allocsPerReq, float64(use.mallocs-prevUse.mallocs)/n)
		}
		prevUse, prevReq = readUsage(), req
	}
	for w := 0; w < windows; w++ {
		var reads, writes latHist
		for k := range per {
			reads.merge(&per[k][w].reads)
			writes.merge(&per[k][w].writes)
			res.failed += per[k][w].failed
		}
		res.readP50 = append(res.readP50, reads.quantileMicros(0.50))
		res.readP99 = append(res.readP99, reads.quantileMicros(0.99))
		res.writeP50 = append(res.writeP50, writes.quantileMicros(0.50))
		res.writeP99 = append(res.writeP99, writes.quantileMicros(0.99))
	}
	res.requests = total()
	for _, err := range errs {
		if err != nil && res.firstErr == nil {
			res.firstErr = err
		}
	}
	return res
}

// poll is one Phase-B estimate read of avg.
type poll struct {
	gen       uint64
	offset    time.Duration // since the start of epoch gen
	relSpread float64
}

// phaseB measures feed → converged estimate: one caller, one
// connection. Every second epoch, feedPhase into the epoch, it feeds avg
// 32 unequal values with a new mean and polls the estimate every 5 ms
// until a later generation reports converged within 1 % of the fed
// mean. The fixed phase matters: a loop that feeds right after
// converging locks onto the epoch boundary and measures only Δ.
type phaseBResult struct {
	latencyMS, afterRestartMS []float64
	rho                       []float64
	requests, failed          int64
	lastMean                  float64   // mean of the newest feed to avg
	varValues                 []float64 // the one feed to var that follows Phase A's
	firstErr                  error
}

func phaseB(rig *serveRig, seed uint64, dur time.Duration) phaseBResult {
	var res phaseBResult
	c := newAPIClient(rig.base)
	defer c.close()
	rng := stats.NewStreamRNG(seed, 20)
	epoch := rig.p.epoch()
	t0 := rig.created["avg"]
	startOf := func(gen uint64) time.Time { return t0.Add(time.Duration(gen) * epoch) }
	fail := func(err error) {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	// Phase A's two callers race each other's feeds to var; one feed from
	// here fixes what its final state has to be.
	res.varValues = unequalValues(rng)
	res.requests++
	if _, err := c.feed("var", res.varValues); err != nil {
		fail(err)
	}
	// pending is the feed whose converged estimate is still awaited.
	type pendingFeed struct {
		sent time.Time
		gen  uint64 // generation the feed was accepted in
		want float64
	}
	var pending *pendingFeed
	first := uint64(time.Since(t0)/epoch) + 1
	feeds := int(dur / (2 * epoch))
	end := startOf(first + uint64(2*feeds))
	next := 0
	var polls []poll
	for time.Now().Before(end) {
		if next < feeds && !time.Now().Before(startOf(first+uint64(2*next)).Add(rig.p.feedPhase())) {
			if pending != nil {
				fail(fmt.Errorf("feed %d never served a converged estimate within 1%% of %.4g", next-1, pending.want))
			}
			values := unequalValues(rng)
			sent := time.Now()
			rep, err := c.feed("avg", values)
			res.requests++
			next++
			if err != nil {
				fail(err)
				continue
			}
			pending = &pendingFeed{sent: sent, gen: rep.Generation, want: mean(values)}
			res.lastMean = pending.want
		}
		est, err := c.estimate("avg")
		at := time.Now()
		res.requests++
		if err != nil {
			fail(err)
		} else {
			polls = append(polls, poll{est.Generation, at.Sub(startOf(est.Generation)), est.RelSpread})
			if pending != nil && est.Generation > pending.gen && est.Converged &&
				math.Abs(est.Estimate-pending.want) <= 0.01*math.Abs(pending.want) {
				res.latencyMS = append(res.latencyMS, float64(at.Sub(pending.sent).Microseconds())/1e3)
				res.afterRestartMS = append(res.afterRestartMS, float64(at.Sub(startOf(pending.gen+1)).Microseconds())/1e3)
				pending = nil
			}
		}
		time.Sleep(rig.p.pollEvery())
	}
	if pending != nil {
		fail(fmt.Errorf("feed %d never served a converged estimate within 1%% of %.4g", next-1, pending.want))
	}
	res.rho = pollRho(polls, rig.p.cycle())
	return res
}

// pollRho turns the polled rel_spread of avg into one convergence factor
// per epoch: the first poll at or after each cycle boundary c·δ stands
// for cycle c, and the factor is the geometric-mean variance ratio over
// cycles 2..10 (rel_spread is σ/|mean| and the mean is conserved, so
// its square is the variance up to a constant).
func pollRho(polls []poll, cycle time.Duration) []float64 {
	byGen := map[uint64]map[int]float64{}
	var order []uint64
	for _, p := range polls {
		c := int((p.offset + cycle - 1) / cycle) // first boundary not after the poll
		if p.offset < 0 || p.offset-time.Duration(c-1)*cycle > cycle {
			continue
		}
		m := byGen[p.gen]
		if m == nil {
			m = map[int]float64{}
			byGen[p.gen] = m
			order = append(order, p.gen)
		}
		if _, seen := m[c]; !seen {
			m[c] = p.relSpread
		}
	}
	var rho []float64
	for _, g := range order {
		lo, okLo := byGen[g][2]
		hi, okHi := byGen[g][10]
		if okLo && okHi && lo > 0 && hi > 0 && !math.IsInf(lo, 0) {
			rho = append(rho, math.Pow(hi/lo, 2.0/8))
		}
	}
	return rho
}

// runServeMix is the serve-mix workload.
func runServeMix(cfg runConfig) (*runRecord, error) {
	rec := newRecord("serve-mix", cfg)
	p := serveFor(cfg.Quick)
	rig, setupSecs, err := timeSetup(
		func() (*serveRig, error) { return startServe(p, nil) },
		func(r *serveRig) { r.stop() })
	if err != nil {
		return nil, err
	}
	defer func() { rig.stop() }()
	rec.Metrics.windows("setup_s", setupSecs)

	total := cfg.duration()
	windows := 5
	if cfg.Quick {
		windows = 2
	}
	durA, durB := total*2/5, total*3/5
	if cfg.Trace {
		// Traced run: idle reading, untraced and traced closed loop, a
		// short Phase B; the ladder takes the rest.
		idle := total / 10
		before := readUsage()
		time.Sleep(idle)
		after := readUsage()
		rec.Metrics.set("serve.idle_cpu_share", (after.cpu-before.cpu).Seconds()/after.at.Sub(before.at).Seconds())
		durA, durB = total/5, total/5
		windows = max(2, windows/2)
	}
	// Let every fleet seal its first epoch before the loop starts.
	time.Sleep(time.Until(rig.created["var"].Add(p.epoch())))

	a := phaseA(rig, cfg.Seed, durA, windows)
	b := phaseB(rig, cfg.Seed, durB)
	rec.Attempted = a.requests + b.requests
	rec.Failed = a.failed + b.failed
	for _, err := range []error{a.firstErr, b.firstErr} {
		if err != nil {
			rec.check("responses", false, "first failure: %v", err)
		}
	}
	rec.check("responses-ok", rec.Failed == 0, "%d of %d requests answered 200 with a decodable body", rec.Attempted-rec.Failed, rec.Attempted)
	rec.check("feeds-converged", len(b.latencyMS) >= 1, "%d feeds reached a converged estimate", len(b.latencyMS))

	// Final state: avg holds Phase B's last feed, var its first.
	// Each is read late in an epoch of its own instance, when the fleet
	// has converged and no estimate is a half-finished exchange.
	c := newAPIClient(rig.base)
	defer c.close()
	late := func(name string) (serve.Estimate, error) {
		epoch := p.epoch()
		into := time.Since(rig.created[name]) % epoch
		time.Sleep((epoch*9/10 - into + epoch) % epoch)
		rec.Attempted++
		est, err := c.estimate(name)
		if err != nil {
			rec.Failed++
		}
		return est, err
	}
	if est, err := late("avg"); err != nil {
		rec.check("final-avg", false, "%v", err)
	} else {
		rec.check("final-avg", math.Abs(est.Estimate-b.lastMean) <= 0.01*math.Abs(b.lastMean),
			"estimate %.6g, fed mean %.6g (limit 1%%)", est.Estimate, b.lastMean)
	}
	if est, err := late("cnt"); err != nil {
		rec.check("final-cnt", false, "%v", err)
	} else {
		rec.check("final-cnt", math.Abs(est.Estimate-float64(p.Fleet)) <= 0.05*float64(p.Fleet),
			"estimate %.4g, fleet %d (limit 5%%)", est.Estimate, p.Fleet)
	}
	if pv, err := stats.Variance(b.varValues); err != nil {
		rec.check("final-var", false, "no feed reached var: %v", err)
	} else {
		pv *= float64(len(b.varValues)-1) / float64(len(b.varValues)) // population variance
		if est, err := late("var"); err != nil {
			rec.check("final-var", false, "%v", err)
		} else {
			rec.check("final-var", math.Abs(est.Estimate-pv) <= 0.05*pv,
				"estimate %.5g, fed variance %.5g (limit 5%%)", est.Estimate, pv)
		}
	}
	rec.Metrics.set("mem_mb", sysMiB())

	rec.Metrics.windows("ops_per_s", a.reqPerS)
	rec.Metrics.windows("cpu_us_per_op", a.cpuPerReq)
	rec.Metrics.windows("allocs_per_op", a.allocsPerReq)
	rec.Metrics.windows("convergence_factor", b.rho)
	rec.Metrics.windows("converge_ms", b.latencyMS)
	rec.Metrics.windows("serve.read_p50_us", a.readP50)
	rec.Metrics.windows("serve.read_p99_us", a.readP99)
	rec.Metrics.windows("serve.write_p50_us", a.writeP50)
	rec.Metrics.windows("serve.write_p99_us", a.writeP99)
	rec.Metrics.windows("serve.converge_after_restart_ms", b.afterRestartMS)

	if !cfg.Trace {
		return rec, nil
	}
	// Traced closed loop on a fresh daemon with the handler wrapped.
	tracedRig, err := startServe(p, cfg.Spans)
	if err != nil {
		return nil, err
	}
	rig.stop()
	rig = tracedRig // the deferred stop now stops this one
	time.Sleep(time.Until(rig.created["var"].Add(p.epoch())))
	ta := phaseA(rig, cfg.Seed, durA, windows)
	sum := cfg.Spans.summarise()
	var handler time.Duration
	var count int
	for name, st := range sum {
		if strings.HasPrefix(name, "http ") {
			handler += st.Total
			count += st.Count
		}
	}
	if count > 0 {
		rec.Metrics.set("serve.handler_us", float64(handler.Nanoseconds())/1e3/float64(count))
	}
	if base := median(a.cpuPerReq); base > 0 && len(ta.cpuPerReq) > 0 {
		rec.Metrics.set("trace.cpu_overhead_share", median(ta.cpuPerReq)/base-1)
	}
	return rec, nil
}
