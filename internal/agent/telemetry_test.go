package agent

import (
	"context"
	"strings"
	"testing"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/obs"
	"antientropy/internal/transport"
)

// TestRTTAndTraceTelemetry runs a small fleet with a shared RTT
// histogram and trace ring and checks the exchange lifecycle shows up:
// measured round trips (counted and histogrammed) and initiate/absorb
// trace events.
func TestRTTAndTraceTelemetry(t *testing.T) {
	sched := testSchedule()
	rtt := obs.NewHistogram(obs.RTTBuckets)
	ring := obs.NewTraceRing(256)
	nodes := launchTelemetryCluster(t, 4, sched, rtt, ring)

	deadline := time.Now().Add(5 * time.Second)
	var total Metrics
	for {
		total = Metrics{}
		for _, n := range nodes {
			total.Accumulate(n.Metrics())
		}
		if total.RTTSamples > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if total.RTTSamples == 0 {
		t.Fatal("no exchange round trips measured")
	}
	if total.RTTTotal <= 0 {
		t.Errorf("RTTTotal = %v, want > 0", total.RTTTotal)
	}
	if snap := rtt.Snapshot(); snap.Count == 0 {
		t.Error("shared RTT histogram received no observations")
	}
	kinds := make(map[obs.TraceKind]int)
	for _, ev := range ring.Events() {
		kinds[ev.Kind]++
		if ev.Node == "" {
			t.Error("trace event without node address")
		}
	}
	if kinds[obs.TraceInitiate] == 0 {
		t.Errorf("no initiate trace events: %v", kinds)
	}
	if kinds[obs.TraceAbsorb] == 0 && kinds[obs.TraceServed] == 0 {
		t.Errorf("no absorb/served trace events: %v", kinds)
	}
}

// launchTelemetryCluster mirrors launchCluster but threads a shared RTT
// histogram and trace ring through every node's config.
func launchTelemetryCluster(t *testing.T, n int, sched core.Schedule, rtt *obs.Histogram, ring *obs.TraceRing) []*Node {
	t.Helper()
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 7})
	eps := make([]*transport.MemEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		eps[i] = net.Endpoint()
		addrs[i] = eps[i].Addr()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		v := float64(i)
		node, err := New(Config{
			Endpoint:  eps[i],
			Schedule:  sched,
			Function:  core.Average,
			Value:     func() float64 { return v },
			Bootstrap: addrs,
			Seed:      uint64(i + 1),
			Logger:    quietLogger(),
			RTT:       rtt,
			Trace:     ring,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for _, node := range nodes {
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			_ = node.Stop()
		}
		net.Close()
	})
	return nodes
}

func TestRegisterMetricsExportsCanonicalNames(t *testing.T) {
	reg := obs.NewRegistry()
	snap := Metrics{
		ExchangesInitiated: 10,
		ExchangesCompleted: 8,
		ExchangesServed:    7,
		Timeouts:           2,
		RefusedBusy:        1,
		PeerDeclined:       3,
		RefusedJoining:     4,
		StaleDropped:       5,
		EpochJumps:         6,
		DecodeErrors:       9,
		GossipFramesFull:   11,
		GossipFramesDelta:  12,
		GossipEntriesSent:  13,
	}
	RegisterMetrics(reg, func() Metrics { return snap })
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for name, want := range map[string]string{
		"agg_exchanges_initiated_total":       "10",
		"agg_exchanges_completed_total":       "8",
		"agg_exchanges_served_total":          "7",
		"agg_exchange_timeouts_total":         "2",
		"agg_exchanges_refused_busy_total":    "1",
		"agg_exchanges_declined_total":        "3",
		"agg_exchanges_refused_joining_total": "4",
		"agg_stale_dropped_total":             "5",
		"agg_epoch_jumps_total":               "6",
		"agg_decode_errors_total":             "9",
		"agg_gossip_frames_full_total":        "11",
		"agg_gossip_frames_delta_total":       "12",
		"agg_gossip_entries_sent_total":       "13",
	} {
		if !strings.Contains(out, name+" "+want+"\n") {
			t.Errorf("missing %s %s in export", name, want)
		}
	}
	// Nil registry and nil snapshot are no-ops, not panics.
	RegisterMetrics(nil, func() Metrics { return snap })
	RegisterMetrics(reg, nil)
}

// TestAddressBookGauge: agg_address_book_size reads the process's shared
// book, so it rises by at least the fleet's size when a fleet of
// never-seen addresses starts.
func TestAddressBookGauge(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg, func() Metrics { return Metrics{} })
	gauge := func() int { return int(scrape(t, reg, "agg_address_book_size")) }

	// Earlier tests interned the first addresses every mem network hands
	// out; take endpoints until eight are new to the book.
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 1})
	t.Cleanup(net.Close)
	var eps []*transport.MemEndpoint
	var addrs []string
	for len(eps) < 8 {
		ep := net.Endpoint()
		if _, known := book.Lookup(ep.Addr()); !known {
			eps = append(eps, ep)
			addrs = append(addrs, ep.Addr())
		}
	}
	before := gauge()
	if before != book.Len() {
		t.Fatalf("gauge reads %d, the book holds %d", before, book.Len())
	}
	for _, ep := range eps {
		node, err := New(Config{
			Endpoint: ep, Schedule: testSchedule(), Value: func() float64 { return 1 },
			Bootstrap: addrs, Seed: 1, Logger: quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Stop() })
	}
	if after := gauge(); after < before+len(eps) {
		t.Fatalf("gauge went %d → %d while a fleet of %d new addresses started", before, after, len(eps))
	}
}

// TestMetricsSnapshotAllocFree guards the satellite fix: Metrics() must
// not take the node lock or allocate, so scraping never perturbs the
// exchange path.
func TestMetricsSnapshotAllocFree(t *testing.T) {
	var c counters
	c.exchangesInitiated.Add(3)
	if n := testing.AllocsPerRun(1000, func() { _ = c.snapshot() }); n != 0 {
		t.Errorf("counters.snapshot allocates %.1f times per call", n)
	}
}
