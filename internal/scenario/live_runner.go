package scenario

import (
	"context"
	"io"
	"log/slog"
	"runtime"
	"time"

	"antientropy/internal/obs"
)

// LiveOptions tune the live-fleet executor.
type LiveOptions struct {
	// CycleLen is δ, the wall-clock length of one protocol cycle. The
	// default scales with the fleet size and the machine's cores so that
	// every node can complete its exchange within a cycle — a too-short δ
	// starves the fleet and convergence stalls.
	CycleLen time.Duration
	// CacheSize is the NEWSCAST cache capacity (default 30).
	CacheSize int
	// Logger receives node debug events, supervisor progress and health
	// alert transitions (default: discard).
	Logger *slog.Logger
	// Obs, when set, exposes the fleet on a metrics registry: the
	// aggregated agent counters (agg_*_total, summed over live nodes plus
	// crash-retired ones), the agg_exchange_rtt_seconds histogram, the
	// transport series, the per-cycle scenario gauges and the convergence
	// watch — the series the udp executor exports, refreshed at every
	// sample. Scrapes read the last sample and never block the protocol.
	Obs *obs.Registry
	// Trace, when set, receives exchange-lifecycle events from every node
	// of the fleet (one shared bounded ring).
	Trace *obs.TraceRing
	// Timeline, when set, receives one flight-recorder snapshot per
	// sampled cycle (see obs.Timeline). Health rules are evaluated
	// whenever Obs or Timeline is set, logging alert transitions to
	// Logger.
	Timeline *obs.Timeline
}

func (o LiveOptions) withDefaults(fleet int) LiveOptions {
	if o.CycleLen <= 0 {
		// Budget ~150µs of single-core compute per node per cycle (two
		// goroutine wakeups, two piggybacked-gossip datagrams, timer
		// churn), spread across the available cores, with a 15ms floor
		// for timer accuracy. Measured on one core, a 1000-node fleet
		// converges cleanly at 150ms cycles and starves at 50ms.
		perCore := 150 * time.Microsecond / time.Duration(runtime.GOMAXPROCS(0))
		o.CycleLen = time.Duration(fleet) * perCore
		if o.CycleLen < 15*time.Millisecond {
			o.CycleLen = 15 * time.Millisecond
		}
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 30
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// RunLive executes the scenario against a fleet of real agent nodes over
// the in-memory transport: every node is the paper's active/passive pair
// on real time — cycles, timeouts, epochs and joins, run by the process's
// scheduler and the transport's deliveries; partitions, loss and delay
// bursts are injected at the transport layer. It is the fleet executor
// (see supervisor) on one in-memory network: the same supervisor, script
// and node table as RunUDP, minus the sockets.
// Unlike the simulator executor the run is wall-clock driven and
// therefore not bit-for-bit deterministic, but it chases the identical
// scripted value signal, so the two metric streams are directly
// comparable.
func RunLive(ctx context.Context, sc Scenario, opts LiveOptions) (*RunResult, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(sc.MaxSlots())
	return newSupervisor(ctx, sc, UDPOptions{
		Workers:   1,
		CycleLen:  opts.CycleLen,
		CacheSize: opts.CacheSize,
		Logger:    opts.Logger,
		Obs:       opts.Obs,
		Trace:     opts.Trace,
		Timeline:  opts.Timeline,
	}, "live", newMemNet).run()
}
