package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"antientropy/internal/agent"
	"antientropy/internal/core"
	"antientropy/internal/transport"
)

// fastConfig is the test schedule: 200ms epochs of 10ms cycles — γ=20
// gossip rounds per epoch, plenty for an 8-node fleet to converge.
func fastConfig(name, function string) InstanceConfig {
	return InstanceConfig{
		Name:      name,
		Function:  function,
		FleetSize: 8,
		EpochMS:   200,
		CycleMS:   10,
	}
}

// waitEstimate polls the instance until cond accepts an estimate or the
// deadline passes, returning the last estimate either way.
func waitEstimate(t *testing.T, inst *Instance, timeout time.Duration, cond func(Estimate) bool) Estimate {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var est Estimate
	for time.Now().Before(deadline) {
		est = inst.Estimate()
		if cond(est) {
			return est
		}
		time.Sleep(20 * time.Millisecond)
	}
	return est
}

// TestFleetMomentsSpreadAtLargeMean: four founders that know no peer
// never exchange, so each keeps its own value, 1e9 plus 0, 1, 2 and
// 3 × 10⁻⁴, and the fleet's spread is that of the values. It must read
// that spread, not the noise that raw sums Σx and Σx² leave once the
// spread sits thirteen orders of magnitude below the mean.
func TestFleetMomentsSpreadAtLargeMean(t *testing.T) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 1})
	f := &fleet{mem: net}
	defer f.stop()
	vals := []float64{1e9, 1e9 + 1e-4, 1e9 + 2e-4, 1e9 + 3e-4}
	sched := core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: time.Hour, Gamma: 1 << 20}
	for i, v := range vals {
		node, err := agent.New(agent.Config{Endpoint: net.Endpoint(), Schedule: sched,
			Function: core.Average, Value: func() float64 { return v }, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, node)
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mean, spread, reporting, _, _ := fleetMoments(f)
	// Offsets from 1e9 are exact in float64; their spread is the values'.
	var off, ss float64
	for _, v := range vals {
		off += (v - 1e9) / 4
	}
	for _, v := range vals {
		ss += (v - 1e9 - off) * (v - 1e9 - off)
	}
	want := math.Sqrt(ss/4) / 1e9
	if reporting != 4 || math.Abs(mean-1e9) > 1e-3 || math.Abs(spread-want) > 0.01*want {
		t.Fatalf("fleetMoments = mean %.9f, spread %.3g over %d reporting; want 1e9, %.3g over 4", mean, spread, reporting, want)
	}
}

func TestInstanceAverageConvergesToFedMean(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Logger: quietLogger()})
	defer reg.Close()
	inst, err := reg.Create(fastConfig("avg", FuncAverage), "default")
	if err != nil {
		t.Fatal(err)
	}
	fed := []float64{20.5, 21.0, 19.5, 23.0, 18.0}
	want := 0.0
	for _, v := range fed {
		want += v
	}
	want /= float64(len(fed))
	inst.Feed(fed, nil, false)

	est := waitEstimate(t, inst, 10*time.Second, func(e Estimate) bool {
		return e.OK && e.Converged && math.Abs(e.Estimate-want)/want <= 0.05
	})
	if !est.OK || !est.Converged {
		t.Fatalf("no converged estimate: %+v", est)
	}
	if rel := math.Abs(est.Estimate-want) / want; rel > 0.05 {
		t.Fatalf("estimate %g vs fed mean %g: rel error %g > 0.05", est.Estimate, want, rel)
	}
	if est.Reporting == 0 || est.Slots != len(fed) {
		t.Fatalf("reporting=%d slots=%d, want >0 and %d", est.Reporting, est.Slots, len(fed))
	}
}

func TestInstanceFeedUpdateReconverges(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Logger: quietLogger()})
	defer reg.Close()
	inst, err := reg.Create(fastConfig("upd", FuncAverage), "default")
	if err != nil {
		t.Fatal(err)
	}
	inst.Feed([]float64{10, 10, 10}, nil, false)
	first := waitEstimate(t, inst, 10*time.Second, func(e Estimate) bool {
		return e.OK && e.Converged && math.Abs(e.Estimate-10) <= 0.5
	})
	if !first.Converged {
		t.Fatalf("first value set never converged: %+v", first)
	}

	// Update the values; the fleet re-samples at the next restart and
	// the generation counter advances past the feed's.
	_, gen := inst.Feed([]float64{40, 40, 40}, nil, false)
	second := waitEstimate(t, inst, 10*time.Second, func(e Estimate) bool {
		return e.OK && e.Converged && e.Generation > gen && math.Abs(e.Estimate-40) <= 2
	})
	if !second.Converged || math.Abs(second.Estimate-40) > 2 {
		t.Fatalf("updated value set never re-converged: %+v", second)
	}
}

func TestInstanceCountTracksFleetSize(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Logger: quietLogger()})
	defer reg.Close()
	cfg := fastConfig("size", FuncCount)
	inst, err := reg.Create(cfg, "default")
	if err != nil {
		t.Fatal(err)
	}
	est := waitEstimate(t, inst, 15*time.Second, func(e Estimate) bool {
		return e.OK && math.Abs(e.Estimate-float64(cfg.FleetSize))/float64(cfg.FleetSize) <= 0.3
	})
	if !est.OK {
		t.Fatalf("COUNT instance produced no estimate: %+v", est)
	}
	if rel := math.Abs(est.Estimate-float64(cfg.FleetSize)) / float64(cfg.FleetSize); rel > 0.3 {
		t.Fatalf("COUNT estimate %g vs fleet size %d: rel error %g", est.Estimate, cfg.FleetSize, rel)
	}
}

func TestInstanceSumAndVariance(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Logger: quietLogger()})
	defer reg.Close()
	fed := []float64{2, 4, 6, 8}

	sum, err := reg.Create(fastConfig("sum", FuncSum), "default")
	if err != nil {
		t.Fatal(err)
	}
	sum.Feed(fed, nil, false)
	est := waitEstimate(t, sum, 10*time.Second, func(e Estimate) bool {
		return e.OK && e.Converged && math.Abs(e.Estimate-20) <= 1
	})
	if math.Abs(est.Estimate-20) > 1 {
		t.Fatalf("SUM estimate %g, want ≈ 20 (%+v)", est.Estimate, est)
	}

	vr, err := reg.Create(fastConfig("var", FuncVariance), "default")
	if err != nil {
		t.Fatal(err)
	}
	vr.Feed(fed, nil, false)
	// Var({2,4,6,8}) = E[x²] − E[x]² = 30 − 25 = 5.
	est = waitEstimate(t, vr, 10*time.Second, func(e Estimate) bool {
		return e.OK && e.Converged && math.Abs(e.Estimate-5) <= 0.5
	})
	if math.Abs(est.Estimate-5) > 0.5 {
		t.Fatalf("VARIANCE estimate %g, want ≈ 5 (%+v)", est.Estimate, est)
	}
}

func TestInstanceNamedSlots(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Logger: quietLogger()})
	defer reg.Close()
	inst, err := reg.Create(fastConfig("named", FuncAverage), "default")
	if err != nil {
		t.Fatal(err)
	}
	// Named slots upsert: re-feeding "web1" replaces its value rather
	// than appending a new slot.
	inst.Feed(nil, map[string]float64{"web1": 10, "web2": 20}, false)
	slots, _ := inst.Feed(nil, map[string]float64{"web1": 30}, false)
	if slots != 2 {
		t.Fatalf("slots = %d after named upsert, want 2", slots)
	}
	est := waitEstimate(t, inst, 10*time.Second, func(e Estimate) bool {
		return e.OK && e.Converged && math.Abs(e.Estimate-25) <= 1
	})
	if math.Abs(est.Estimate-25) > 1 {
		t.Fatalf("estimate %g after upsert, want ≈ 25 (%+v)", est.Estimate, est)
	}
}

// TestPositionalFeedKeepsNamedSlots: positional values never land on a
// named slot, and the new names of one update take their places in
// sorted key order whatever the map's order.
func TestPositionalFeedKeepsNamedSlots(t *testing.T) {
	inst := &Instance{schedule: core.Schedule{Start: time.Now(), Delta: time.Second}, keys: map[string]int{}}
	inst.Feed(nil, map[string]float64{"a": 10}, false)
	if slots, _ := inst.Feed([]float64{1, 2}, nil, false); slots != 3 {
		t.Fatalf("slots = %d after one name and two positions, want 3", slots)
	}
	inst.Feed([]float64{3}, map[string]float64{"d": 4, "b": 5, "c": 6}, false)
	vals, keys := stored(inst)
	if want := []float64{10, 3, 2, 5, 6, 4}; !slices.Equal(vals, want) {
		t.Errorf("store %v, want %v", vals, want)
	}
	if want := map[string]int{"a": 0, "b": 3, "c": 4, "d": 5}; !maps.Equal(keys, want) {
		t.Errorf("named slots %v, want %v", keys, want)
	}
}

// TestFeedJustBeforeEdgeReachesNextGeneration: a feed made in the last
// δ/32 of a generation — inside the lead with which the scheduler may
// serve an inline node's cycle early — is what every node restarts from
// at the next edge, as the generation Feed returns promises. Each of
// three edges switches the whole fleet between two values, so a single
// node that restarted before the feed moves the next generation's mean
// off the fed value.
func TestFeedJustBeforeEdgeReachesNextGeneration(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Logger: quietLogger()})
	defer reg.Close()
	const nodes = 128
	inst, err := reg.Create(InstanceConfig{Name: "edge", FleetSize: nodes, EpochMS: 400, CycleMS: 40}, "default")
	if err != nil {
		t.Fatal(err)
	}
	s := inst.schedule
	inst.Feed([]float64{10}, nil, false)
	edge := inst.generationAt(time.Now()) + 1
	for _, v := range []float64{50, 10, 50} {
		time.Sleep(time.Until(s.StartOf(edge).Add(-s.CycleLen / 32)))
		_, gen := inst.Feed([]float64{v}, nil, false)
		// Two cycles before the generation ends every node has restarted
		// and averaged for eight.
		time.Sleep(time.Until(s.StartOf(gen + 2).Add(-2 * s.CycleLen)))
		est := inst.Estimate()
		if est.Generation != gen+1 {
			t.Fatalf("read in generation %d, want %d: the box fell behind", est.Generation, gen+1)
		}
		if est.Reporting != nodes || math.Abs(est.Estimate-v) > 1e-9*v {
			t.Errorf("generation %d reads %g from %d nodes, want %g from %d: a node restarted before the feed %v ahead of the edge",
				gen+1, est.Estimate, est.Reporting, v, nodes, s.CycleLen/32)
		}
		edge = gen + 2
	}
}

// TestEstimateSummaryFreshness: a read serves a fleet summary taken less
// than δ/10 before it and in the generation the read reports, and reads
// closer together than δ/10 in one generation share a summary. On a
// 10 ms cycle it reads across 22 edges of 100 ms epochs: 1.5 ms apart
// between edges, and back to back from 2 ms before each edge to 2 ms
// after it, so that a summary young enough to reuse meets a new
// generation.
func TestEstimateSummaryFreshness(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Logger: quietLogger()})
	defer reg.Close()
	inst, err := reg.Create(InstanceConfig{Name: "fresh", FleetSize: 8, EpochMS: 100, CycleMS: 10}, "default")
	if err != nil {
		t.Fatal(err)
	}
	inst.Feed([]float64{1, 2, 3}, nil, false)
	maxAge := inst.schedule.CycleLen / 10
	var (
		prev                      fleetSummary
		prevGen                   uint64
		prevEnd                   time.Time
		reused, straddled, spaced int
	)
	read := func() {
		start := time.Now()
		est := inst.Estimate()
		inst.sumMu.Lock()
		s := inst.sum
		inst.sumMu.Unlock()
		if s.gen != est.Generation {
			t.Fatalf("a read reporting generation %d used a summary taken in generation %d", est.Generation, s.gen)
		}
		if age := start.Sub(s.at); age >= maxAge {
			t.Fatalf("a read used a summary taken %v before it, bound %v", age, maxAge)
		}
		if !prevEnd.IsZero() {
			if s.at.Equal(prev.at) {
				reused++
			}
			if est.Generation > prevGen && start.Sub(prev.at) < maxAge {
				straddled++
			}
			if start.Sub(prevEnd) > maxAge {
				spaced++
				if !s.at.After(prevEnd) {
					t.Fatalf("reads %v apart shared one summary", start.Sub(prevEnd))
				}
			}
		}
		prev, prevGen, prevEnd = s, est.Generation, time.Now()
	}
	const edges = 22
	first := inst.generationAt(time.Now()) + 1
	for g := first; g < first+edges; g++ {
		edge := inst.schedule.StartOf(g)
		for time.Until(edge) > 2*time.Millisecond {
			read()
			time.Sleep(maxAge * 3 / 2)
		}
		for time.Now().Before(edge.Add(2 * time.Millisecond)) {
			read()
		}
	}
	t.Logf("%d reads reused a summary, %d met a new generation inside δ/10, %d came more than δ/10 after the last",
		reused, straddled, spaced)
	if reused == 0 || straddled == 0 || spaced == 0 {
		t.Fatal("a case went unexercised")
	}
}

// TestDeleteReleasesGoroutines is the leak check of ISSUE satellite 6:
// create-and-delete cycles must return the process to its baseline
// goroutine count — every node loop, transport reader and timer freed.
func TestDeleteReleasesGoroutines(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Logger: quietLogger()})
	defer reg.Close()

	// Warm up: one instance's lifetime populates any lazy global state.
	warm, err := reg.Create(fastConfig("warm", FuncAverage), "default")
	if err != nil {
		t.Fatal(err)
	}
	warm.Feed([]float64{1, 2}, nil, false)
	if err := reg.Delete("warm"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("leak-%d", i)
		inst, err := reg.Create(fastConfig(name, FuncVariance), "default")
		if err != nil {
			t.Fatal(err)
		}
		inst.Feed([]float64{1, 2, 3}, nil, false)
		inst.Estimate()
		if err := reg.Delete(name); err != nil {
			t.Fatal(err)
		}
	}

	// Goroutine teardown is asynchronous after Stop returns only for the
	// runtime's bookkeeping; poll briefly rather than sleeping long.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestConcurrentFeedAndQuery hammers one instance from many goroutines
// through the full HTTP handler — the -race exercise for the serving
// path (ISSUE satellite 3).
func TestConcurrentFeedAndQuery(t *testing.T) {
	api, _, _ := newTestAPI(t, nil, nil)
	w := doJSON(t, api, "POST", "/v1/instances",
		`{"name":"hammer","fleet_size":4,"epoch_ms":100}`, nil)
	if w.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", w.Code, w.Body.String())
	}

	const workers = 8
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var req *http.Request
				switch i % 3 {
				case 0:
					body := fmt.Sprintf(`{"values":[%d,%d]}`, g, i)
					req = httptest.NewRequest("POST", "/v1/instances/hammer/values", strings.NewReader(body))
				case 1:
					req = httptest.NewRequest("GET", "/v1/instances/hammer/estimate", nil)
				default:
					req = httptest.NewRequest("GET", "/v1/instances", nil)
				}
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("worker %d round %d: %s = %d", g, i, req.URL.Path, rec.Code)
					return
				}
				if req.Method == "GET" && strings.HasSuffix(req.URL.Path, "estimate") {
					var est Estimate
					if err := json.Unmarshal(rec.Body.Bytes(), &est); err != nil {
						errs <- fmt.Errorf("worker %d round %d: bad estimate body: %v", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
