package parsim

import (
	"math"
	"runtime"
	"testing"

	"antientropy/internal/core"
	"antientropy/internal/sim"
)

func baseConfig(n, cycles int, seed uint64, shards int) Config {
	return Config{
		N: n, Cycles: cycles, Seed: seed, Shards: shards,
		Fn:      core.Average,
		Init:    func(node int) float64 { return float64(node) },
		Overlay: Newscast(30),
	}
}

// script runs fn at the start of every cycle, after BeforeCycle, as the
// engine's one failure model.
func script(fn func(cycle int, e *Engine)) []sim.FailureModel {
	return []sim.FailureModel{scriptModel(fn)}
}

type scriptModel func(cycle int, e *Engine)

func (m scriptModel) Apply(cycle int, e *Engine) { m(cycle, e) }
func (m scriptModel) String() string             { return "script" }

// run executes cfg and returns the finished engine.
func run(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidation(t *testing.T) {
	zero := func(int) float64 { return 0 }
	bad := []Config{
		{},                        // no nodes
		{N: 10},                   // no function
		{N: 10, Fn: core.Average}, // no init
		{N: 10, Cycles: -1, Fn: core.Average, Init: zero},
		{N: 10, InitialAlive: 11, Fn: core.Average, Init: zero},
		{N: 10, MessageLoss: 1.5, Fn: core.Average, Init: zero},
		{N: 10, LinkFailure: -0.1, Fn: core.Average, Init: zero},
		{N: 10, Shards: -2, Fn: core.Average, Init: zero},
	}
	for i, cfg := range bad {
		cfg.Overlay = Newscast(30)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
	valid := Config{N: 10, Fn: core.Average, Init: zero, Overlay: Newscast(30)}
	if _, err := New(valid); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	valid.Overlay = nil
	if _, err := New(valid); err == nil {
		t.Error("config without an overlay accepted: the one rule is that it is required")
	}
}

// TestAliasesAreTheOneEngine pins what this package still promises:
// parsim.New is sim.New — the same estimates bit for bit — except that a
// zero shard count here means GOMAXPROCS.
func TestAliasesAreTheOneEngine(t *testing.T) {
	cfg := baseConfig(400, 10, 5, 1)
	cfg.MessageLoss = 0.05
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 0 // sim reads zero as one shard
	b, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 10; c++ {
		a.Step()
		b.Step()
	}
	for i := 0; i < cfg.N; i++ {
		if a.Value(i) != b.Value(i) {
			t.Fatalf("node %d: parsim.New(Shards: 1) %v, sim.New %v", i, a.Value(i), b.Value(i))
		}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Shards(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("parsim.New(Shards: 0) built %d shards, want GOMAXPROCS = %d", got, want)
	}
}

// TestDeterminismAcrossRuns is the core of the determinism contract:
// the same seed and shard count must reproduce every estimate and every
// metric counter bit-for-bit.
func TestDeterminismAcrossRuns(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		cfg := baseConfig(500, 20, 42, shards)
		cfg.MessageLoss = 0.05
		cfg.LinkFailure = 0.02
		a := run(t, cfg)
		b := run(t, cfg)
		if a.Metrics() != b.Metrics() {
			t.Fatalf("shards=%d: metrics diverged: %+v vs %+v", shards, a.Metrics(), b.Metrics())
		}
		for i := 0; i < cfg.N; i++ {
			if a.Value(i) != b.Value(i) {
				t.Fatalf("shards=%d: node %d estimate diverged: %v vs %v", shards, i, a.Value(i), b.Value(i))
			}
		}
	}
}

// TestDeterminismAcrossWorkerCounts checks that the worker pool size —
// pure execution parallelism — cannot change results: only the shard
// count may.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	ref := baseConfig(400, 15, 7, 8)
	ref.Workers = 1
	par := ref
	par.Workers = 8
	a := run(t, ref)
	b := run(t, par)
	if a.Metrics() != b.Metrics() {
		t.Fatalf("metrics depend on worker count: %+v vs %+v", a.Metrics(), b.Metrics())
	}
	for i := 0; i < ref.N; i++ {
		if a.Value(i) != b.Value(i) {
			t.Fatalf("node %d estimate depends on worker count", i)
		}
	}
}

// TestConvergesToTrueMean checks the protocol's contract on the sharded
// engine at several shard counts: every shard count is a valid execution
// that converges to the same aggregate.
func TestConvergesToTrueMean(t *testing.T) {
	const n = 1000
	want := float64(n-1) / 2
	for _, shards := range []int{1, 2, 8} {
		e := run(t, baseConfig(n, 40, 3, shards))
		m := e.ParticipantMoments()
		if math.Abs(m.Mean()-want) > 1e-6 {
			t.Fatalf("shards=%d: mean %g, want %g", shards, m.Mean(), want)
		}
		if m.StdDev() > 1e-4 {
			t.Fatalf("shards=%d: stddev %g, not converged", shards, m.StdDev())
		}
	}
}

// TestMassConservation verifies the invariant the paper's correctness
// rests on: with no message loss, the participants' total mass is
// unchanged by exchanges — intra-shard, cross-shard, and under a
// partition filter alike.
func TestMassConservation(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		var initial float64
		groupOf := make([]int, 600)
		for i := range groupOf {
			groupOf[i] = i % 2
		}
		cfg := baseConfig(600, 30, 9, shards)
		cfg.Failures = script(func(cycle int, e *Engine) {
			switch cycle {
			case 5:
				e.SetExchangeFilter(func(i, j int) bool { return groupOf[i] == groupOf[j] })
			case 20:
				e.SetExchangeFilter(nil)
			}
		})
		cfg.Observe = func(cycle int, e *Engine) {
			var sum float64
			for i := 0; i < e.N(); i++ {
				if e.Participating(i) {
					sum += e.Value(i)
				}
			}
			if cycle == 0 {
				initial = sum
				return
			}
			if math.Abs(sum-initial) > 1e-6*math.Abs(initial) {
				t.Fatalf("shards=%d cycle %d: mass %g, want %g", shards, cycle, sum, initial)
			}
		}
		run(t, cfg)
	}
}

// TestMassConservationUnderKills checks that a crash removes exactly the
// victim's estimate from the total and nothing else.
func TestMassConservationUnderKills(t *testing.T) {
	const n = 400
	var expected float64
	started := false
	cfg := baseConfig(n, 25, 11, 4)
	cfg.Failures = script(func(cycle int, e *Engine) {
		if cycle%5 != 0 {
			return
		}
		for k := 0; k < 10 && e.AliveCount() > 1; k++ {
			victim := e.RandomAlive()
			expected -= e.Value(victim)
			e.Kill(victim)
		}
	})
	cfg.Observe = func(cycle int, e *Engine) {
		var sum float64
		for i := 0; i < n; i++ {
			if e.Participating(i) {
				sum += e.Value(i)
			}
		}
		if !started {
			expected = sum
			started = true
			return
		}
		if math.Abs(sum-expected) > 1e-6*math.Abs(expected)+1e-9 {
			t.Fatalf("cycle %d: mass %g, want %g", cycle, sum, expected)
		}
	}
	run(t, cfg)
}

// TestJoinerSitsOutEpoch mirrors the §4.2 semantics on the sharded
// engine: a replaced slot refuses the current epoch until Restart.
func TestJoinerSitsOutEpoch(t *testing.T) {
	cfg := baseConfig(100, 6, 5, 4)
	cfg.Failures = script(func(cycle int, e *Engine) {
		if cycle == 2 {
			e.Kill(7)
			e.Replace(7)
		}
		if cycle == 4 {
			e.Restart(nil)
		}
	})
	cfg.Observe = func(cycle int, e *Engine) {
		switch {
		case cycle >= 2 && cycle < 4:
			if e.Participating(7) {
				t.Fatalf("cycle %d: joiner participates before the restart", cycle)
			}
			if !e.Alive(7) {
				t.Fatalf("cycle %d: joiner not alive", cycle)
			}
		case cycle >= 4:
			if !e.Participating(7) {
				t.Fatalf("cycle %d: joiner still refused after restart", cycle)
			}
		}
	}
	run(t, cfg)
}

// TestMetricsAreConsistent checks the exchange-outcome bookkeeping: the
// counters must partition the attempts.
func TestMetricsAreConsistent(t *testing.T) {
	cfg := baseConfig(800, 20, 13, 8)
	cfg.MessageLoss = 0.1
	cfg.LinkFailure = 0.05
	cfg.Failures = script(func(cycle int, e *Engine) {
		if cycle == 3 {
			for k := 0; k < 100; k++ {
				e.Kill(e.RandomAlive())
			}
		}
	})
	e := run(t, cfg)
	m := e.Metrics()
	outcomes := m.Completed + m.Timeouts + m.Refusals + m.LinkDrops +
		m.RequestLosses + m.ReplyLosses + m.PartitionDrops
	if outcomes != m.Attempts {
		t.Fatalf("outcome counters %d do not partition attempts %d: %+v", outcomes, m.Attempts, m)
	}
	if m.Completed == 0 || m.Timeouts == 0 || m.LinkDrops == 0 || m.RequestLosses == 0 {
		t.Fatalf("expected all failure modes to occur: %+v", m)
	}
}

// TestCompleteLiveOverlay runs the fully connected overlay: no timeouts
// can occur because only live peers are drawn.
func TestCompleteLiveOverlay(t *testing.T) {
	cfg := baseConfig(300, 15, 17, 4)
	cfg.Overlay = sim.CompleteLive()
	cfg.Failures = script(func(cycle int, e *Engine) {
		if cycle == 2 {
			for k := 0; k < 200; k++ {
				e.Kill(e.RandomAlive())
			}
		}
	})
	e := run(t, cfg)
	if e.Metrics().Timeouts != 0 {
		t.Fatalf("complete-live overlay produced %d timeouts", e.Metrics().Timeouts)
	}
	if e.AliveCount() != 100 {
		t.Fatalf("alive = %d", e.AliveCount())
	}
}

// TestGossipRespectsFilter: with a partition filter installed from the
// start and one side holding a constant, no information may cross — the
// overlay views and the estimates of each side stay pure.
func TestGossipRespectsFilter(t *testing.T) {
	const n = 200
	groupOf := make([]int, n)
	for i := range groupOf {
		if i >= n/2 {
			groupOf[i] = 1
		}
	}
	cfg := baseConfig(n, 30, 19, 4)
	cfg.Init = func(node int) float64 {
		if groupOf[node] == 0 {
			return 0
		}
		return 100
	}
	cfg.BeforeCycle = func(cycle int, e *Engine) {
		if cycle == 1 {
			e.SetExchangeFilter(func(i, j int) bool { return groupOf[i] == groupOf[j] })
		}
	}
	e := run(t, cfg)
	for i := 0; i < n; i++ {
		want := float64(groupOf[i]) * 100
		if math.Abs(e.Value(i)-want) > 1e-9 {
			t.Fatalf("node %d: estimate %g leaked across the partition (want %g)", i, e.Value(i), want)
		}
	}
}

// TestMillionNodeSmoke is the scale acceptance check: a 10⁶-node run
// must complete in CI-feasible time. It is skipped in -short mode.
func TestMillionNodeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-node smoke run skipped in short mode")
	}
	const n = 1_000_000
	cfg := baseConfig(n, 5, 23, 16)
	e := run(t, cfg)
	m := e.ParticipantMoments()
	want := float64(n-1) / 2
	// Five cycles cut the initial spread by ~(1/2.72)^5; full convergence
	// is not the point — scale and sanity are.
	if math.Abs(m.Mean()-want) > want*0.01 {
		t.Fatalf("1M-node mean %g, want ~%g", m.Mean(), want)
	}
	if got := e.Metrics().Attempts; got < int64(n)*4 {
		t.Fatalf("only %d attempts over 5 cycles at 1M nodes", got)
	}
}

// TestShardedMatchesSerialStatistically compares K = 1 and K = 4 on the
// same workload: their converged estimates must agree to within the
// protocol's variance, though their trajectories differ.
func TestShardedMatchesSerialStatistically(t *testing.T) {
	const n = 500
	serial, err := sim.Run(sim.Config{
		N: n, Cycles: 40, Seed: 31,
		Fn:      core.Average,
		Init:    func(node int) float64 { return float64(node) },
		Overlay: sim.Newscast(30),
	})
	if err != nil {
		t.Fatal(err)
	}
	sharded := run(t, baseConfig(n, 40, 31, 4))
	sm := serial.ParticipantMoments()
	pm := sharded.ParticipantMoments()
	if math.Abs(sm.Mean()-pm.Mean()) > 1e-6 {
		t.Fatalf("engines disagree: serial %g vs sharded %g", sm.Mean(), pm.Mean())
	}
}
