package scenario

import (
	"context"
	"time"
)

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
func RunLive(ctx context.Context, sc Scenario, opts FleetOptions) (*RunResult, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	// A node's cycle costs ~150µs of single-core compute (two piggybacked
	// gossip datagrams, a scheduler wakeup, timer churn); the 15ms floor is
	// for timer accuracy. Measured on one core, a 1000-node fleet
	// converges cleanly at 150ms cycles and starves at 50ms.
	opts = opts.withDefaults(sc, 150*time.Microsecond, 15*time.Millisecond)
	return newSupervisor(ctx, sc, opts, "live", newMemNet).run()
}
