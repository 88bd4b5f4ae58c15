// Package obs is the live telemetry substrate of the aggregation
// runtime: a zero-allocation metrics registry (atomic counters, gauges
// and fixed-bucket histograms) with a Prometheus text-format exporter,
// an HTTP server wiring /metrics, /debug/trace and net/http/pprof, and
// a bounded ring of structured exchange-lifecycle trace events.
//
// The registry is deliberately minimal: metric instruments are plain
// atomics so the protocol hot paths (one exchange is ~1µs of work) pay
// one uncontended atomic add per event and never allocate. Aggregation
// across many instruments — a scenario supervisor summing its workers'
// per-node counters at every sample — happens off the hot path, read at
// scrape time through func-backed metrics.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the exported value to stay
// monotone; the counter does not enforce it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits
// behind one atomic word. The zero value is ready to use and reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: observation counts per bucket
// plus a running sum and count, all atomics. Buckets follow the
// Prometheus convention: bucket i counts observations v <= Bounds[i]
// (inclusive upper bounds), and one implicit +Inf bucket catches the
// rest. Create with NewHistogram or Registry.Histogram.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// RTTBuckets are the default bounds (seconds) for exchange round-trip
// latency: loopback exchanges land in the sub-millisecond buckets, WAN
// deployments in the tens-of-milliseconds range, and anything beyond
// one second is indistinguishable from the protocol's own timeout.
var RTTBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// FrameBytesBuckets are the default bounds for wire-frame sizes: a
// small fleet's frames sit around 100 B, full 30-descriptor views around
// 800 B, and COUNT payloads can reach a few KiB.
var FrameBytesBuckets = []float64{64, 128, 256, 512, 1024, 2048, 4096, 8192}

// NewHistogram builds a standalone histogram (not registered anywhere)
// over the given sorted, strictly increasing upper bounds. It panics on
// unsorted bounds — bucket layouts are compile-time decisions.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation. Allocation-free: a short linear scan
// over the bounds (histograms here have ~10 buckets) plus three atomic
// operations.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// HistSnapshot is one consistent-enough read of a histogram, also the
// shape in which per-network histograms are merged. Counts are
// per-bucket (not cumulative) with the +Inf bucket last.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot reads the histogram. Buckets, count and sum are each
// atomically read but not mutually synchronized; under concurrent
// observation the snapshot may be off by in-flight observations, which
// is the usual Prometheus scrape contract.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Merge adds o into s (summing buckets, count and sum) and returns s.
// Both snapshots must share the same bucket layout; mismatched layouts
// return s unchanged — merging them would misattribute counts.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	if len(o.Counts) != len(s.Counts) {
		return s
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	return s
}

// CounterVec is a family of counters distinguished by the value of
// one label — the shape of `agg_alerts_total{rule="..."}`. Children
// are created on first use and live forever (label cardinality is
// expected to be a small fixed rule set, not user data).
type CounterVec struct {
	mu       sync.Mutex
	children map[string]*Counter
}

// With returns the child counter for the given label value,
// registering it (at zero) on first use.
func (v *CounterVec) With(label string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[label]
	if !ok {
		c = &Counter{}
		v.children[label] = c
	}
	return c
}

// labeledInt is one (label value, metric value) pair of a family
// snapshot.
type labeledInt struct {
	label string
	value int64
}

// snapshot returns the children sorted by label value.
func (v *CounterVec) snapshot() []labeledInt {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]labeledInt, 0, len(v.children))
	for label, c := range v.children {
		out = append(out, labeledInt{label, c.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// GaugeVec is a family of gauges distinguished by one label — the
// shape of `agg_alert_active{rule="..."}`.
type GaugeVec struct {
	mu       sync.Mutex
	children map[string]*Gauge
}

// With returns the child gauge for the given label value, registering
// it (at zero) on first use.
func (v *GaugeVec) With(label string) *Gauge {
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.children[label]
	if !ok {
		g = &Gauge{}
		v.children[label] = g
	}
	return g
}

// labeledFloat is one (label value, metric value) pair of a family
// snapshot.
type labeledFloat struct {
	label string
	value float64
}

// snapshot returns the children sorted by label value.
func (v *GaugeVec) snapshot() []labeledFloat {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]labeledFloat, 0, len(v.children))
	for label, g := range v.children {
		out = append(out, labeledFloat{label, g.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// metricKind discriminates the registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// metric is one registry entry: an instrument (counter/gauge/histogram)
// or a func-backed view evaluated at scrape time.
type metric struct {
	name, help string
	kind       metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram

	counterFn func() int64
	gaugeFn   func() float64
	histFn    func() HistSnapshot

	// Labeled families: when set, the entry renders one sample per
	// child under a single HELP/TYPE header.
	labelKey string
	cvec     *CounterVec
	gvec     *GaugeVec
}

// Registry names and exports a set of metrics. All methods are safe for
// concurrent use; the instruments themselves are lock-free.
//
// Instrument registration is idempotent: asking for an already
// registered name of the same kind returns the existing instrument, so
// several executors run in one process can share one registry. Func
// metrics replace a previous func of the same name and kind — a
// supervisor re-running a scenario rebinds the aggregation closure to
// the new fleet. A name collision across kinds panics: it is a
// programming error that would corrupt the exported series.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// validName enforces the Prometheus metric-name charset.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// lookup finds or creates the named slot, enforcing name validity and
// kind consistency. Callers hold r.mu.
func (r *Registry) lookup(name, help string, kind metricKind) (*metric, bool) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", name, m.kind, kind))
		}
		return m, true
	}
	m := &metric{name: name, help: help, kind: kind}
	r.metrics[name] = m
	return m, false
}

// mustUnlabeled panics if the slot already holds a labeled family —
// one name cannot export both labeled and unlabeled samples.
func (m *metric) mustUnlabeled() {
	if m.cvec != nil || m.gvec != nil {
		panic(fmt.Sprintf("obs: metric %q already registered as a labeled %s family", m.name, m.kind))
	}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup(name, help, kindCounter)
	m.mustUnlabeled()
	if !existed || m.counter == nil {
		m.counter = &Counter{}
		m.counterFn = nil
	}
	return m.counter
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup(name, help, kindGauge)
	m.mustUnlabeled()
	if !existed || m.gauge == nil {
		m.gauge = &Gauge{}
		m.gaugeFn = nil
	}
	return m.gauge
}

// Histogram returns the named histogram, registering it with the given
// bucket bounds on first use (later calls ignore the bounds and return
// the existing instrument).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup(name, help, kindHistogram)
	if !existed || m.hist == nil {
		m.hist = NewHistogram(bounds)
		m.histFn = nil
	}
	return m.hist
}

// CounterVec returns the named single-label counter family,
// registering it on first use. Re-registering with a different label
// key, or on a name already registered as an unlabeled counter,
// panics: mixing labeled and unlabeled samples of one name would
// corrupt the export.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	if !validName(labelKey) {
		panic(fmt.Sprintf("obs: invalid label key %q for metric %q", labelKey, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup(name, help, kindCounter)
	if existed {
		if m.cvec == nil {
			panic(fmt.Sprintf("obs: metric %q already registered as an unlabeled counter", name))
		}
		if m.labelKey != labelKey {
			panic(fmt.Sprintf("obs: metric %q registered with label %q, requested %q", name, m.labelKey, labelKey))
		}
		return m.cvec
	}
	m.labelKey = labelKey
	m.cvec = &CounterVec{children: make(map[string]*Counter)}
	return m.cvec
}

// GaugeVec returns the named single-label gauge family, registering
// it on first use, with the same consistency rules as CounterVec.
func (r *Registry) GaugeVec(name, help, labelKey string) *GaugeVec {
	if !validName(labelKey) {
		panic(fmt.Sprintf("obs: invalid label key %q for metric %q", labelKey, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, existed := r.lookup(name, help, kindGauge)
	if existed {
		if m.gvec == nil {
			panic(fmt.Sprintf("obs: metric %q already registered as an unlabeled gauge", name))
		}
		if m.labelKey != labelKey {
			panic(fmt.Sprintf("obs: metric %q registered with label %q, requested %q", name, m.labelKey, labelKey))
		}
		return m.gvec
	}
	m.labelKey = labelKey
	m.gvec = &GaugeVec{children: make(map[string]*Gauge)}
	return m.gvec
}

// CounterFunc registers (or rebinds) a counter whose value is computed
// at scrape time — the aggregation hook for fleets: the closure sums
// per-node atomic counters, so the hot path never touches the registry.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _ := r.lookup(name, help, kindCounter)
	m.mustUnlabeled()
	m.counter, m.counterFn = nil, fn
}

// GaugeFunc registers (or rebinds) a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _ := r.lookup(name, help, kindGauge)
	m.mustUnlabeled()
	m.gauge, m.gaugeFn = nil, fn
}

// HistogramFunc registers (or rebinds) a histogram whose snapshot is
// computed at scrape time — how a scenario supervisor exports the RTT
// and batch-size histograms it merged from its workers at the last
// sample.
func (r *Registry) HistogramFunc(name, help string, fn func() HistSnapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _ := r.lookup(name, help, kindHistogram)
	m.hist, m.histFn = nil, fn
}

// snapshot returns the registered metrics sorted by name, for a
// deterministic export order.
func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
