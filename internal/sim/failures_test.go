package sim

import (
	"math"
	"testing"

	"antientropy/internal/core"
)

// baseConfig returns a small scalar AVERAGE run over the live-complete
// overlay, the simplest substrate for failure-path tests.
func baseConfig(n, cycles, k int) Config {
	return Config{
		N:       n,
		Cycles:  cycles,
		Seed:    7,
		Shards:  k,
		Fn:      core.Average,
		Init:    LinearInit(),
		Overlay: CompleteLive(),
	}
}

// participantSum adds up all live participants' estimates — the mass the
// protocol must conserve.
func participantSum(e *Engine) float64 {
	sum := 0.0
	e.ForEachParticipant(func(_ int, v float64) { sum += v })
	return sum
}

func TestCrashFractionKillsProportion(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		cfg := baseConfig(1000, 10, k)
		// A static overlay keeps crashed neighbors in the graph, so attempts
		// at them surface as timeouts (§6.1).
		cfg.Overlay = randomOverlay(20)
		cfg.Failures = []FailureModel{CrashFraction{P: 0.1}}
		e, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// 1000 · 0.9^10 ≈ 348, with integer truncation drift.
		if got := e.AliveCount(); got < 330 || got > 370 {
			t.Fatalf("alive after 10 cycles of 10%% crashes = %d, want ≈ 348", got)
		}
		if e.Metrics().Timeouts == 0 {
			t.Fatal("no timeouts recorded despite mass crashes")
		}
	})
}

func TestSuddenDeathFiresOnceAtCycle(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		alive := make(map[int]int)
		cfg := baseConfig(400, 6, k)
		cfg.Failures = []FailureModel{SuddenDeath{AtCycle: 3, Fraction: 0.5}}
		cfg.Observe = func(cycle int, e *Engine) { alive[cycle] = e.AliveCount() }
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if alive[2] != 400 || alive[3] != 200 || alive[6] != 200 {
			t.Fatalf("alive trajectory %v, want 400 before cycle 3, 200 from cycle 3 on", alive)
		}
	})
}

func TestChurnKeepsSizeAndJoinersRefuse(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		cfg := baseConfig(300, 8, k)
		cfg.Failures = []FailureModel{Churn{PerCycle: 30}}
		e, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.AliveCount(); got != 300 {
			t.Fatalf("churn changed the network size: %d", got)
		}
		if e.ParticipantCount() >= 300 {
			t.Fatal("churned-in joiners should not participate in the running epoch")
		}
		if e.Metrics().Refusals == 0 {
			t.Fatal("no §7.1 refusals recorded despite churned-in joiners")
		}
	})
}

func TestCrashCountNeverKillsLastNode(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		cfg := baseConfig(10, 30, k)
		cfg.Failures = []FailureModel{CrashCount{PerCycle: 4}}
		e, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.AliveCount(); got != 1 {
			t.Fatalf("alive = %d, want the guard to stop at 1", got)
		}
	})
}

// probe is a failure model that runs fn at the start of every cycle.
type probe func(cycle int, e *Engine)

func (p probe) Apply(cycle int, e *Engine) { p(cycle, e) }
func (p probe) String() string             { return "probe" }

func TestScriptRunsEveryCycleBetweenBeforeCycleAndOverlay(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		var order []string
		cfg := baseConfig(50, 4, k)
		cfg.BeforeCycle = func(cycle int, _ *Engine) { order = append(order, "hook") }
		cfg.Failures = []FailureModel{probe(func(cycle int, _ *Engine) {
			order = append(order, "script")
		})}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if len(order) != 8 {
			t.Fatalf("hook+script fired %d times, want 8", len(order))
		}
		for i, step := range order {
			want := "hook"
			if i%2 == 1 {
				want = "script"
			}
			if step != want {
				t.Fatalf("order %v: BeforeCycle must run before the failure models", order)
			}
		}
	})
}

func TestSetMessageLossMidRun(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		cfg := baseConfig(200, 6, k)
		cfg.Failures = []FailureModel{probe(func(cycle int, e *Engine) {
			if cycle == 4 {
				e.SetMessageLoss(0.5)
			}
		})}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 3; c++ {
			e.Step()
		}
		if m := e.Metrics(); m.RequestLosses != 0 || m.ReplyLosses != 0 {
			t.Fatalf("losses before the burst: %+v", m)
		}
		for c := 0; c < 3; c++ {
			e.Step()
		}
		if m := e.Metrics(); m.RequestLosses == 0 {
			t.Fatalf("no request losses after SetMessageLoss(0.5): %+v", m)
		}
		e.SetMessageLoss(2)
		before := e.Metrics().Completed
		e.Step()
		if got := e.Metrics().Completed; got != before {
			t.Fatal("SetMessageLoss(2) clamped to 1 should lose every request")
		}
	})
}

// TestExchangeFilterPartitionConservesMass is the scenario subsystem's
// core invariant: a partition enforced through the exchange filter keeps
// the global mass constant, each side converges to its own average, and
// after the heal the network re-converges to the original global mean.
func TestExchangeFilterPartitionConservesMass(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		const n = 400
		side := func(i int) int { return i % 2 }
		var sideMeans [2]float64
		for i := 0; i < n; i++ {
			sideMeans[side(i)] += float64(i) * 2 / n
		}
		globalMean := float64(n-1) / 2

		cfg := baseConfig(n, 40, k)
		cfg.Failures = []FailureModel{probe(func(cycle int, e *Engine) {
			switch cycle {
			case 1:
				e.SetExchangeFilter(func(i, j int) bool { return side(i) == side(j) })
			case 21:
				e.SetExchangeFilter(nil)
			}
		})}
		var mass []float64
		cfg.Observe = func(cycle int, e *Engine) {
			mass = append(mass, participantSum(e))
			if cycle == 20 {
				// Mid-partition: each side must have converged to its own mean.
				var got [2]float64
				var count [2]int
				e.ForEachParticipant(func(i int, v float64) {
					got[side(i)] += v
					count[side(i)]++
				})
				for s := 0; s < 2; s++ {
					if m := got[s] / float64(count[s]); math.Abs(m-sideMeans[s]) > 1e-6 {
						t.Errorf("side %d mean = %g, want %g", s, m, sideMeans[s])
					}
				}
			}
		}
		e, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := mass[0]
		for c, got := range mass {
			if math.Abs(got-want) > 1e-6*math.Abs(want) {
				t.Fatalf("cycle %d: mass %g, want %g (conservation violated)", c, got, want)
			}
		}
		if e.Metrics().PartitionDrops == 0 {
			t.Fatal("no partition drops recorded while the filter was active")
		}
		m := e.ParticipantMoments()
		if math.Abs(m.Mean()-globalMean) > 1e-6 {
			t.Fatalf("post-heal mean = %g, want %g", m.Mean(), globalMean)
		}
		if m.Variance() > 1e-6 {
			t.Fatalf("post-heal variance = %g, want ≈ 0 (re-convergence)", m.Variance())
		}
	})
}

func TestInitialAliveReplaceAndRestart(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		cfg := baseConfig(100, 0, k)
		cfg.InitialAlive = 60
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.AliveCount(); got != 60 {
			t.Fatalf("alive = %d, want 60", got)
		}
		if e.Alive(60) {
			t.Fatal("slot 60 must start vacant")
		}
		e.Replace(60)
		if !e.Alive(60) || e.Participating(60) {
			t.Fatal("a replaced slot must be alive but not participating")
		}
		if got := e.ParticipantCount(); got != 60 {
			t.Fatalf("participants = %d, want 60 before the restart", got)
		}
		e.Restart(func(node int) float64 { return 42 })
		if !e.Participating(60) {
			t.Fatal("restart must fold joiners into the new epoch")
		}
		if got := e.Value(60); got != 42 {
			t.Fatalf("restart value = %g, want 42", got)
		}
		if got := e.ParticipantCount(); got != 61 {
			t.Fatalf("participants = %d, want 61 after the restart", got)
		}
	})
}

func TestInitialAliveValidation(t *testing.T) {
	cfg := baseConfig(10, 1, 1)
	cfg.InitialAlive = 11
	if _, err := New(cfg); err == nil {
		t.Fatal("InitialAlive > N must be rejected")
	}
	vec := Config{N: 10, InitialAlive: 5, Cycles: 1, Seed: 1, Dim: 1,
		Leaders: []int{7}, Overlay: CompleteLive()}
	if _, err := New(vec); err == nil {
		t.Fatal("a leader in a vacant slot must be rejected")
	}
}

func TestRandomAliveDrawsLiveNodes(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		cfg := baseConfig(10, 0, k)
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 10; i++ {
			e.Kill(i)
		}
		for k := 0; k < 20; k++ {
			if got := e.RandomAlive(); got != 0 {
				t.Fatalf("RandomAlive = %d, want 0 (only survivor)", got)
			}
		}
		e.Kill(0)
		if got := e.RandomAlive(); got != -1 {
			t.Fatalf("RandomAlive on an empty network = %d, want -1", got)
		}
	})
}
