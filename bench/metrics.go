package main

import (
	"math"
	"sort"

	"antientropy/internal/stats"
)

// decl declares one metric: BENCHMARK.json repeats name, unit, better
// and bound, and the smoke test fails when the two drift apart.
type decl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen by
}

// The "operation" of the per-op metrics is the unit of work a caller of
// the workload pays for: a simulated node-cycle (sim-churn), a completed
// push-pull exchange (live-mem, live-udp-count), an HTTP request
// (serve-mix). Every workload emits every metric — the driver contract —
// so the names are generic and README.md gives the per-workload meaning.
var endToEnd = []decl{
	{"setup_s", "s", "lower", 0.25},
	{"mem_mb", "MiB", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"convergence_factor", "ratio", "lower", 0.15},
	{"converge_ms", "ms", "lower", 0.25},
}

// perLayer metrics carry no bound. Ladder rows are workload-independent
// (the same rungs are timed in every traced run); run and traced rows
// read 0 on a workload that never enters the layer.
var perLayer = []decl{
	// core
	{"core.update_scalar_ns", "ns", "lower", 0},
	{"core.map_merge_ns", "ns", "lower", 0},
	{"core.map_merge_allocs", "count", "lower", 0},
	{"core.guard_merge_ns", "ns", "lower", 0},
	{"core.guard_merge_allocs", "count", "lower", 0},
	// overlay
	{"overlay.table_exchange_ns", "ns", "lower", 0},
	{"overlay.table_exchange_allocs", "count", "lower", 0},
	{"overlay.absorb_packed_ns", "ns", "lower", 0},
	{"overlay.absorb_packed_allocs", "count", "lower", 0},
	{"overlay.peer_ns", "ns", "lower", 0},
	// wire
	{"wire.encode_full_ns", "ns", "lower", 0},
	{"wire.encode_full_allocs", "count", "lower", 0},
	{"wire.encode_full_bytes", "B", "lower", 0},
	{"wire.decode_full_ns", "ns", "lower", 0},
	{"wire.decode_full_allocs", "count", "lower", 0},
	{"wire.encode_delta_ns", "ns", "lower", 0},
	{"wire.encode_delta_bytes", "B", "lower", 0},
	{"wire.viewcodec_encode_ns", "ns", "lower", 0},
	{"wire.viewcodec_observe_ns", "ns", "lower", 0},
	{"wire.encode_count_ns", "ns", "lower", 0},
	{"wire.decode_count_ns", "ns", "lower", 0},
	{"wire.bytes_per_exchange", "B", "lower", 0},
	// transport
	{"transport.mem_roundtrip_us", "us", "lower", 0},
	{"transport.mem_roundtrip_allocs", "count", "lower", 0},
	{"transport.mux_roundtrip_us", "us", "lower", 0},
	{"transport.mux_roundtrip_allocs", "count", "lower", 0},
	{"transport.sessions_get_ns", "ns", "lower", 0},
	{"transport.mux_batch_mean", "count", "higher", 0},
	{"transport.mux_queue_depth_max", "count", "lower", 0},
	{"transport.drops", "count", "lower", 0},
	{"transport.send_us", "us", "lower", 0},
	// agent
	{"agent.serve_exchange_us", "us", "lower", 0},
	{"agent.serve_exchange_allocs", "count", "lower", 0},
	{"agent.handler_us", "us", "lower", 0},
	{"agent.bytes_alloc_per_exchange", "B", "lower", 0},
	{"agent.goroutines_per_node", "count", "lower", 0},
	{"agent.rtt_mean_us", "us", "lower", 0},
	{"agent.completed_share", "share", "higher", 0},
	{"agent.busy_refused_share", "share", "lower", 0},
	{"agent.timeout_share", "share", "lower", 0},
	{"agent.frames_full_share", "share", "lower", 0},
	{"agent.entries_per_frame", "count", "lower", 0},
	// sim / parsim / scenario
	{"sim.step_ns_per_node", "ns", "lower", 0},
	{"sim.build_ms", "ms", "lower", 0},
	{"sim.serial_node_cycles_per_s", "1/s", "higher", 0},
	{"parsim.step_ns_per_node_k1", "ns", "lower", 0},
	{"parsim.step_ns_per_node_k4", "ns", "lower", 0},
	{"parsim.build_ms", "ms", "lower", 0},
	{"parsim.sharded_node_cycles_per_s", "1/s", "higher", 0},
	{"scenario.overhead_share", "share", "lower", 0},
	// serve
	{"serve.estimate_us", "us", "lower", 0},
	{"serve.estimate_allocs", "count", "lower", 0},
	{"serve.feed_us", "us", "lower", 0},
	{"serve.feed_allocs", "count", "lower", 0},
	{"serve.api_estimate_us", "us", "lower", 0},
	{"serve.api_feed_us", "us", "lower", 0},
	{"serve.limiter_allow_ns", "ns", "lower", 0},
	{"serve.read_p50_us", "us", "lower", 0},
	{"serve.read_p99_us", "us", "lower", 0},
	{"serve.write_p50_us", "us", "lower", 0},
	{"serve.write_p99_us", "us", "lower", 0},
	{"serve.handler_us", "us", "lower", 0},
	{"serve.converge_after_restart_ms", "ms", "lower", 0},
	{"serve.idle_cpu_share", "share", "lower", 0},
	// obs and the tracing itself
	{"obs.counter_add_ns", "ns", "lower", 0},
	{"obs.histogram_observe_ns", "ns", "lower", 0},
	{"obs.trace_record_ns", "ns", "lower", 0},
	{"trace.cpu_overhead_share", "share", "lower", 0},
}

// metric is one measured value: Value is what the result line reports,
// Q1/Q3/N describe the windows (or batches, or reps) it is the median of.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

// set records a single-valued metric (a count read once, a final state).
func (m metricSet) set(name string, v float64) {
	m[name] = metric{Value: v, Q1: v, Q3: v, N: 1}
}

// windows records a metric as the median of its per-window values.
func (m metricSet) windows(name string, xs []float64) {
	if len(xs) == 0 {
		m.set(name, 0)
		return
	}
	m[name] = metric{Value: quantile(xs, 0.5), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return math.NaN()
	}
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	v, err := stats.Mean(xs)
	if err != nil {
		return math.NaN()
	}
	return v
}

// quartilesExclusive mirrors Python's statistics.quantiles(xs, n=4) —
// the method the driver uses for the run-to-run spread — so that
// -repeat predicts the driver's verdict.
func quartilesExclusive(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	q1, q2, q3 := quartilesExclusive(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
