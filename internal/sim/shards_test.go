package sim

import (
	"math"
	"runtime"
	"testing"

	"antientropy/internal/core"
	"antientropy/internal/race"
)

func TestShardLayoutCoversNodeSpace(t *testing.T) {
	// Every node must belong to exactly the shard whose range holds it,
	// for awkward N/K combinations included.
	for _, tc := range []struct{ n, k int }{{10, 3}, {7, 7}, {100, 8}, {5, 16}, {1, 1}, {1000, 13}} {
		e, err := New(baseConfig(tc.n, 0, tc.k))
		if err != nil {
			t.Fatal(err)
		}
		if want := min(tc.k, tc.n); e.Shards() != want {
			t.Fatalf("n=%d k=%d: %d shards, want %d", tc.n, tc.k, e.Shards(), want)
		}
		covered := 0
		for _, s := range e.shards {
			if s.lo > s.hi {
				t.Fatalf("n=%d k=%d: shard %d has inverted range [%d,%d)", tc.n, tc.k, s.index, s.lo, s.hi)
			}
			for i := s.lo; i < s.hi; i++ {
				if got := e.shardOf(i); got != s.index {
					t.Fatalf("n=%d k=%d: node %d in range of shard %d but shardOf=%d", tc.n, tc.k, i, s.index, got)
				}
				covered++
			}
		}
		if covered != tc.n {
			t.Fatalf("n=%d k=%d: shards cover %d nodes", tc.n, tc.k, covered)
		}
	}
	// A zero shard count is one shard, whatever the machine.
	if e, err := New(baseConfig(100, 0, 0)); err != nil || e.Shards() != 1 {
		t.Fatalf("Shards: 0 built %d shards (err %v), want 1", e.Shards(), err)
	}
}

// TestNothingDeferredAtOneShard is what makes K = 1 the reference
// execution: whatever the failure script does, no exchange — aggregation
// or gossip — waits in an outbox for a merge, so every exchange has acted
// on current state in one global order.
func TestNothingDeferredAtOneShard(t *testing.T) {
	const n = 300
	side := func(i int) int { return i % 2 }
	cfg := Config{
		N: n, Seed: 21, Fn: core.Average, Init: LinearInit(),
		Overlay:     Newscast(10),
		MessageLoss: 0.1,
		LinkFailure: 0.05,
		Failures: []FailureModel{
			Churn{PerCycle: 5},
			CrashCount{PerCycle: 2},
			probe(func(cycle int, e *Engine) {
				switch cycle {
				case 5:
					e.SetExchangeFilter(func(i, j int) bool { return side(i) == side(j) })
				case 15:
					e.SetExchangeFilter(nil)
				}
			}),
		},
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= 25; c++ {
		e.Step()
		for _, s := range e.shards {
			if len(s.out) != 0 || len(s.gossip) != 0 {
				t.Fatalf("cycle %d: %d exchanges and %d gossip pairs deferred at K = 1", c, len(s.out), len(s.gossip))
			}
		}
	}
	if m := e.Metrics(); m.Timeouts == 0 || m.Refusals == 0 || m.ReplyLosses == 0 || m.PartitionDrops == 0 {
		t.Fatalf("failure script not exercised: %+v", m)
	}
}

// TestOneShardConservesMassExactly: with nothing deferred and no
// failures, the scalar sum and every vector component's sum hold to
// 1e-9 after every cycle.
func TestOneShardConservesMassExactly(t *testing.T) {
	const n, dim = 400, 3
	scalar, err := New(Config{
		N: n, Seed: 22, Fn: core.Average, Init: LinearInit(), Overlay: Newscast(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	vector, err := New(Config{
		N: n, Seed: 23, Dim: dim, Overlay: Newscast(10),
		VecInit: func(node, d int) float64 { return float64((node+1)*(d+1)) / n },
	})
	if err != nil {
		t.Fatal(err)
	}
	vecSums := func() [dim]float64 {
		var sums [dim]float64
		vector.ForEachParticipantVec(func(_ int, vec []float64) {
			for d, v := range vec {
				sums[d] += v
			}
		})
		return sums
	}
	wantScalar, wantVec := participantSum(scalar), vecSums()
	for c := 1; c <= 20; c++ {
		scalar.Step()
		vector.Step()
		if got := participantSum(scalar); math.Abs(got-wantScalar) > 1e-9*wantScalar {
			t.Fatalf("cycle %d: scalar mass %v, want %v", c, got, wantScalar)
		}
		for d, got := range vecSums() {
			if math.Abs(got-wantVec[d]) > 1e-9*wantVec[d] {
				t.Fatalf("cycle %d dim %d: mass %v, want %v", c, d, got, wantVec[d])
			}
		}
	}
}

// serialDrain is the reference for the overlay round's cross-shard
// drain: the deferred pairs applied one at a time, in shard order.
type serialDrain struct{ *newscast }

func (o serialDrain) flushCross(cycle int) {
	var scratch []uint64
	for _, s := range o.e.shards {
		scratch = applyPairs(o.t, scratch, s.gossip, cycle)
	}
}

// TestRowsIndependentOfWorkersAndGOMAXPROCS pins the determinism
// contract: per (seed, K), neither the worker budget nor the cores of
// the machine may change a single estimate or counter, and the level
// drain gives the rows of a serial drain. At N = 500 every level of the
// cross-shard drain runs inline; at N = 4000 the first levels split
// across the workers.
func TestRowsIndependentOfWorkersAndGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rows := func(t *testing.T, n, k int, workers []int) {
		cfg := Config{
			N: n, Cycles: 12, Seed: 24, Shards: k, Workers: 1,
			Fn: core.Average, Init: LinearInit(), Overlay: Newscast(10),
			MessageLoss: 0.05,
			Failures:    []FailureModel{Churn{PerCycle: 4}},
		}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref.overlay = serialDrain{ref.overlay.(*newscast)}
		for ref.cycle < cfg.Cycles {
			ref.Step()
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, w := range workers {
				cfg.Workers = w
				e, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if e.Metrics() != ref.Metrics() {
					t.Fatalf("GOMAXPROCS=%d workers=%d: metrics %+v, want %+v", procs, w, e.Metrics(), ref.Metrics())
				}
				for i := 0; i < cfg.N; i++ {
					if e.Value(i) != ref.Value(i) {
						t.Fatalf("GOMAXPROCS=%d workers=%d: node %d estimate %v, want %v", procs, w, i, e.Value(i), ref.Value(i))
					}
				}
			}
		}
	}
	forEachK(t, func(t *testing.T, k int) { rows(t, 500, k, []int{0, 1, 4}) }, 1, 4)
	t.Run("N=4000", func(t *testing.T) {
		forEachK(t, func(t *testing.T, k int) { rows(t, 4000, k, []int{1, 2, 4}) }, 4, 8)
	})
}

// TestStepAllocs bounds the allocations of a steady-state cycle on the
// NEWSCAST overlay: the two parallel phases' closures. The fan-out adds
// none, for the phases or for however many levels the cross-shard drain
// splits across the workers.
func TestStepAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, tc := range []struct {
		k     int
		limit float64
	}{{1, 2}, {4, 10}} {
		e, err := New(Config{
			N: 20000, Seed: 25, Shards: tc.k, Workers: 2,
			Fn: core.Average, Init: LinearInit(), Overlay: Newscast(30),
		})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 3; c++ { // sizes the outboxes and merge buffers
			e.Step()
		}
		if got := testing.AllocsPerRun(10, e.Step); got > tc.limit {
			t.Errorf("K=%d: Step allocates %.1f times, want at most %v", tc.k, got, tc.limit)
		}
	}
}

// TestExchangeCountsMatchMetrics: at every K the per-node counters of a
// cycle add up to two participations per exchange that changed state —
// completed ones and those whose reply was lost — whether the exchange
// applied inside a shard or at the merge.
func TestExchangeCountsMatchMetrics(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		cfg := baseConfig(600, 0, k)
		cfg.Overlay = Newscast(10)
		cfg.MessageLoss = 0.2
		cfg.TrackExchanges = true
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for c := 1; c <= 5; c++ {
			before := e.Metrics()
			e.Step()
			after := e.Metrics()
			applied := (after.Completed - before.Completed) + (after.ReplyLosses - before.ReplyLosses)
			var counted int64
			for i := 0; i < cfg.N; i++ {
				count, err := e.ExchangeCount(i)
				if err != nil {
					t.Fatal(err)
				}
				counted += int64(count)
			}
			if counted != 2*applied {
				t.Fatalf("cycle %d: %d participations counted, want 2×%d", c, counted, applied)
			}
		}
	})
}
