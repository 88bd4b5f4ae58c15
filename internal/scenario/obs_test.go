package scenario

import (
	"context"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"antientropy/internal/obs"
	"antientropy/internal/theory"
)

func TestConvergenceWatchWithinEpoch(t *testing.T) {
	var w convergenceWatch
	// First sample only primes the window — nothing to report yet.
	if _, ok := w.observe(CycleMetrics{Epoch: 1, EstimateStdDev: 4}); ok {
		t.Error("first sample reported a rho")
	}
	// Variance 16 → 4 within the same epoch: rho = 0.25.
	rho, ok := w.observe(CycleMetrics{Epoch: 1, EstimateStdDev: 2})
	if !ok || rho != 0.25 {
		t.Errorf("rho = %g ok=%v, want 0.25 true", rho, ok)
	}
	rho, ok = w.observe(CycleMetrics{Epoch: 1, EstimateStdDev: 1})
	if !ok || rho != 0.25 {
		t.Errorf("second rho = %g ok=%v, want 0.25 true", rho, ok)
	}
}

func TestConvergenceWatchEpochBoundaryResets(t *testing.T) {
	var w convergenceWatch
	w.observe(CycleMetrics{Epoch: 1, EstimateStdDev: 2})
	// Epoch restart: estimates reset to fresh local values, so the ratio
	// across the boundary is meaningless and must be suppressed.
	if _, ok := w.observe(CycleMetrics{Epoch: 2, EstimateStdDev: 10}); ok {
		t.Error("cross-epoch ratio reported")
	}
	// But the new epoch's window is primed: the next same-epoch sample
	// reports again.
	rho, ok := w.observe(CycleMetrics{Epoch: 2, EstimateStdDev: 5})
	if !ok || rho != 0.25 {
		t.Errorf("post-reset rho = %g ok=%v, want 0.25 true", rho, ok)
	}
}

func TestConvergenceWatchZeroVarianceGuard(t *testing.T) {
	var w convergenceWatch
	w.observe(CycleMetrics{Epoch: 1, EstimateStdDev: 0})
	// prevVar == 0 would divide by zero; the watch must stay silent.
	if _, ok := w.observe(CycleMetrics{Epoch: 1, EstimateStdDev: 1}); ok {
		t.Error("rho reported against zero previous variance")
	}
}

// TestSimObsRegistryExports runs the deterministic simulator with a
// registry attached and checks the scenario gauges and convergence-watch
// series land in the Prometheus export.
func TestSimObsRegistryExports(t *testing.T) {
	sc := Scenario{Name: "obs-sim", N: 64, Cycles: 20, EpochLen: 20, Seed: 3}.WithDefaults()
	reg := obs.NewRegistry()
	if _, err := RunSimWith(sc, SimOptions{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"agg_scenario_cycle",
		"agg_scenario_alive",
		"agg_scenario_estimate_stddev",
		"agg_convergence_observed_rho",
		"agg_convergence_theory_rho",
		"agg_convergence_rho_ratio",
	} {
		if !strings.Contains(out, "\n"+name+" ") {
			t.Errorf("series %s missing from export", name)
		}
	}
	if !strings.Contains(out, "agg_scenario_cycle 20") {
		t.Errorf("final cycle gauge not 20:\n%s", out)
	}
	_ = theory.RhoPushPull
	if !strings.Contains(out, "agg_convergence_theory_rho 0.303") {
		t.Errorf("theory rho gauge wrong:\n%s", out)
	}
}

// seriesNames lists the metric families of a Prometheus export.
func seriesNames(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(rest)[0])
		}
	}
	slices.Sort(names)
	return names
}

// TestLiveObsRegistryExports runs partition-heal on a live fleet with a
// registry, trace ring and timeline attached and checks the agent counters,
// RTT histogram, trace and the partition's filter drops all populate — and
// that the live executor exports exactly the series the udp executor does:
// one fleet host, one schema. The fleet idles between cycles, so the test
// runs beside the package's other parallel fleet test.
func TestLiveObsRegistryExports(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("live fleet test skipped in -short mode")
	}
	sc, err := ByName("partition-heal")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 48
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(512)
	timeline := obs.NewTimeline(sc.Cycles + 1)
	res, err := RunLive(context.Background(), sc, FleetOptions{
		CycleLen: 20 * time.Millisecond, Obs: reg, Trace: ring, Timeline: timeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMessages() == 0 {
		t.Fatal("no exchanges attempted")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"agg_exchanges_initiated_total",
		"agg_exchanges_completed_total",
		"agg_exchange_rtt_seconds_count",
		"agg_scenario_cycle",
		"agg_convergence_theory_rho",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("series %s missing from export", name)
		}
	}
	if strings.Contains(out, "agg_exchanges_initiated_total 0\n") {
		t.Error("fleet initiated counter still zero after the run")
	}
	if strings.Contains(out, "\nagg_transport_filter_drops_total 0\n") {
		t.Error("the partition dropped nothing on agg_transport_filter_drops_total")
	}
	if !slices.ContainsFunc(timeline.Entries(), func(e obs.TimelineEntry) bool { return e.Drops > 0 }) {
		t.Error("no timeline entry counted a drop")
	}
	if ring.Total() == 0 {
		t.Error("trace ring recorded no exchange events")
	}

	udpReg := obs.NewRegistry()
	udpOpts := udpTestOptions(2)
	udpOpts.Obs = udpReg
	tiny := Scenario{Name: "obs-udp", N: 4, Cycles: 2, EpochLen: 2, Seed: 9}.WithDefaults()
	if _, err := RunUDP(context.Background(), tiny, udpOpts); err != nil {
		t.Fatal(err)
	}
	live, udp := seriesNames(t, reg), seriesNames(t, udpReg)
	if !slices.Equal(live, udp) {
		t.Errorf("live and udp export different series:\n live: %v\n udp:  %v", live, udp)
	}
	for _, name := range []string{"agg_transport_queue_drops_total", "agg_transport_filter_drops_total"} {
		if !slices.Contains(live, name) {
			t.Errorf("series %s missing from the live export", name)
		}
	}
}

// scrape reads the registry's /metrics page through obs.Handler, as a
// Prometheus server would.
func scrape(reg *obs.Registry) string {
	rec := httptest.NewRecorder()
	obs.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// seriesValue reads one series' sample from a /metrics page.
func seriesValue(page, series string) (float64, bool) {
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// runScraped runs a fleet that exports on reg and scrapes /metrics while
// it runs. Once the fleet has initiated an exchange, the core series
// must all be on the page, and agg_exchanges_initiated_total must not
// decrease by a scrape one sampled cycle later. After the run, the
// scripted partition's drops must show in
// agg_transport_filter_drops_total.
func runScraped(t *testing.T, reg *obs.Registry, run func() (*RunResult, error)) *RunResult {
	t.Helper()
	type outcome struct {
		res *RunResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := run()
		done <- outcome{res, err}
	}()
	var initiated, cycle float64
	scrapes := 0
	for scrapes < 2 {
		select {
		case o := <-done:
			t.Fatalf("the run ended (err %v) after %d of 2 mid-run scrapes", o.err, scrapes)
		case <-time.After(5 * time.Millisecond):
		}
		page := scrape(reg)
		v, _ := seriesValue(page, "agg_exchanges_initiated_total")
		c, _ := seriesValue(page, "agg_scenario_cycle")
		switch {
		case scrapes == 0 && v > 0:
			for _, series := range []string{
				"agg_exchanges_initiated_total", "agg_exchanges_served_total",
				"agg_exchange_rtt_seconds_count", "agg_scenario_cycle",
				"agg_convergence_theory_rho", "agg_transport_queue_drops_total",
				"agg_transport_filter_drops_total",
			} {
				if _, ok := seriesValue(page, series); !ok {
					t.Errorf("series %s missing from a mid-run /metrics", series)
				}
			}
			initiated, cycle, scrapes = v, c, 1
		case scrapes == 1 && c > cycle:
			if v < initiated {
				t.Errorf("agg_exchanges_initiated_total fell from %g to %g between mid-run scrapes", initiated, v)
			}
			scrapes = 2
		}
	}
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if d, _ := seriesValue(scrape(reg), "agg_transport_filter_drops_total"); d <= 0 {
		t.Error("the partition dropped nothing on agg_transport_filter_drops_total")
	}
	return o.res
}
