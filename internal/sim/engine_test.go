package sim

import (
	"fmt"
	"math"
	"testing"

	"antientropy/internal/core"
	"antientropy/internal/stats"
	"antientropy/internal/theory"
	"antientropy/internal/topology"
)

// forEachK runs fn as one subtest per shard count — {1, 2, 8} unless ks
// says otherwise. Every behaviour the engine promises holds at every K:
// K = 1 applies all exchanges at once in one global order, larger K
// defers the cross-shard ones to the merge.
func forEachK(t *testing.T, fn func(t *testing.T, k int), ks ...int) {
	if len(ks) == 0 {
		ks = []int{1, 2, 8}
	}
	for _, k := range ks {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) { fn(t, k) })
	}
}

// randomOverlay is the paper's standard test overlay: random 20-out.
func randomOverlay(k int) OverlaySpec {
	return Static(func(n int, rng *stats.RNG) (topology.Graph, error) {
		if k > n-1 {
			k = n - 1
		}
		return topology.NewRandomKOut(n, k, rng)
	})
}

func completeOverlay() OverlaySpec {
	return Static(func(n int, _ *stats.RNG) (topology.Graph, error) {
		return topology.NewComplete(n)
	})
}

func TestConfigValidation(t *testing.T) {
	base := Config{
		N:       10,
		Cycles:  1,
		Fn:      core.Average,
		Init:    ConstInit(1),
		Overlay: completeOverlay(),
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero nodes", func(c *Config) { c.N = 0 }},
		{"negative cycles", func(c *Config) { c.Cycles = -1 }},
		{"no mode", func(c *Config) { c.Fn = core.Function{}; c.Dim = 0 }},
		{"both modes", func(c *Config) { c.Dim = 1; c.Leaders = []int{0} }},
		{"missing init", func(c *Config) { c.Init = nil }},
		{"no overlay", func(c *Config) { c.Overlay = nil }},
		{"bad link failure", func(c *Config) { c.LinkFailure = 1.5 }},
		{"bad message loss", func(c *Config) { c.MessageLoss = -0.1 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	// Vector mode validation.
	vec := Config{N: 10, Cycles: 1, Dim: 2, Leaders: []int{0, 1}, Overlay: completeOverlay()}
	if _, err := New(vec); err != nil {
		t.Fatalf("valid vector config rejected: %v", err)
	}
	vec.Leaders = []int{0}
	if _, err := New(vec); err == nil {
		t.Error("leader/dim mismatch accepted")
	}
	vec.Leaders = []int{0, 99}
	if _, err := New(vec); err == nil {
		t.Error("out-of-range leader accepted")
	}
}

func TestAverageConvergesAndConservesMass(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		const n = 1000
		e, err := Run(Config{
			N:       n,
			Cycles:  30,
			Seed:    1,
			Shards:  k,
			Fn:      core.Average,
			Init:    LinearInit(), // true average (n-1)/2
			Overlay: randomOverlay(20),
		})
		if err != nil {
			t.Fatal(err)
		}
		m := e.ParticipantMoments()
		want := float64(n-1) / 2
		if math.Abs(m.Mean()-want) > 1e-9*want {
			t.Fatalf("global average drifted: %g, want %g", m.Mean(), want)
		}
		// Initial variance ≈ 83k; after 30 cycles of ρ ≈ 0.303 the residual
		// is ~1e-11 — anything above 1e-6 would mean broken convergence.
		if m.Variance() > 1e-6 {
			t.Fatalf("variance after 30 cycles = %g, want ~0", m.Variance())
		}
		// Every node individually converged.
		if m.Max()-m.Min() > 1e-2 {
			t.Fatalf("spread after 30 cycles = %g", m.Max()-m.Min())
		}
	})
}

func TestPeakDistributionConverges(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		// Figure 2 scenario: one node holds N, the rest 0; all estimates must
		// converge to 1.
		const n = 2000
		e, err := Run(Config{
			N:       n,
			Cycles:  30,
			Seed:    2,
			Shards:  k,
			Fn:      core.Average,
			Init:    PeakInit(n, 0),
			Overlay: randomOverlay(20),
		})
		if err != nil {
			t.Fatal(err)
		}
		m := e.ParticipantMoments()
		if math.Abs(m.Mean()-1) > 1e-6 {
			t.Fatalf("mean = %g, want 1", m.Mean())
		}
		if m.Min() < 0.999 || m.Max() > 1.001 {
			t.Fatalf("estimates not converged: [%g, %g]", m.Min(), m.Max())
		}
	})
}

// TestConvergenceFactorMatchesTheory checks the law that motivates
// push-pull (§3): on a sufficiently random overlay its per-cycle variance
// ratio is ρ ≈ 1/(2√e) ≈ 0.303, and it contracts strictly faster than
// push-only and push-sum (about 0.65 and 0.52 here) run on the same
// seeds, values and graphs. Push-sum's estimate is s/w, from
// (s, w) = (x, 1).
func TestConvergenceFactorMatchesTheory(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		// Average the measured factor over cycles and repetitions; the
		// tolerance is generous but tight enough to catch a broken
		// exchange schedule (random-pair gives 1/e ≈ 0.368).
		const n, cycles, reps = 5000, 15, 5
		rules := []Rule{PushPull, PushOnly, PushSum}
		factors := make([][]float64, len(rules))
		for r := range factors {
			factors[r] = make([]float64, reps)
		}
		err := ParallelReps(reps, 99, func(rep int, seed uint64) error {
			values := make([]float64, n)
			draw := UniformInit(0, 1, seed+1)
			for i := range values {
				values[i] = draw(i)
			}
			for r, rule := range rules {
				var tracker stats.ConvergenceTracker
				cfg := Config{
					N:       n,
					Cycles:  cycles,
					Seed:    seed,
					Shards:  k,
					Rule:    rule,
					Overlay: randomOverlay(20),
					Observe: func(cycle int, e *Engine) {
						if rule != PushSum {
							tracker.Record(e.ParticipantMoments().Variance())
							return
						}
						var m stats.Moments
						e.ForEachParticipantVec(func(_ int, v []float64) { m.Add(v[0] / v[1]) })
						tracker.Record(m.Variance())
					},
				}
				if rule == PushSum {
					cfg.Dim = 2
					cfg.VecInit = func(i, d int) float64 { return []float64{values[i], 1}[d] }
				} else {
					cfg.Fn = core.Average
					cfg.Init = func(i int) float64 { return values[i] }
				}
				if _, err := Run(cfg); err != nil {
					return err
				}
				f, err := tracker.AverageFactor(cycles)
				if err != nil {
					return err
				}
				factors[r][rep] = f
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		means := make([]float64, len(rules))
		for r := range rules {
			if means[r], err = stats.Mean(factors[r]); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("convergence factor: push-pull %.4f, push-only %.4f, push-sum %.4f", means[0], means[1], means[2])
		if math.Abs(means[0]-theory.RhoPushPull) > 0.02 {
			t.Fatalf("push-pull convergence factor = %.4f, theory %.4f", means[0], theory.RhoPushPull)
		}
		for r := 1; r < len(rules); r++ {
			if means[0] >= means[r] {
				t.Errorf("push-pull factor %.4f does not beat rule %d's %.4f", means[0], rules[r], means[r])
			}
		}
	}, 1, 4)
}

func TestMinMaxBroadcast(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		const n = 512
		for _, tc := range []struct {
			fn   core.Function
			want float64
		}{
			{core.Min, 0},
			{core.Max, float64(n - 1)},
		} {
			e, err := Run(Config{
				N:       n,
				Cycles:  20, // super-exponential spread: 20 cycles is plenty
				Seed:    3,
				Shards:  k,
				Fn:      tc.fn,
				Init:    LinearInit(),
				Overlay: randomOverlay(10),
			})
			if err != nil {
				t.Fatal(err)
			}
			m := e.ParticipantMoments()
			if m.Min() != tc.want || m.Max() != tc.want {
				t.Fatalf("%s did not broadcast: [%g, %g], want %g", tc.fn.Name, m.Min(), m.Max(), tc.want)
			}
		}
	})
}

func TestGeometricMeanConverges(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		const n = 500
		e, err := Run(Config{
			N:       n,
			Cycles:  40,
			Seed:    4,
			Shards:  k,
			Fn:      core.GeometricMean,
			Init:    func(i int) float64 { return float64(i%9) + 1 }, // values 1..9
			Overlay: randomOverlay(10),
		})
		if err != nil {
			t.Fatal(err)
		}
		// True geometric mean of the initial values.
		vals := make([]float64, n)
		init := func(i int) float64 { return float64(i%9) + 1 }
		for i := range vals {
			vals[i] = init(i)
		}
		want, err := stats.GeometricMean(vals)
		if err != nil {
			t.Fatal(err)
		}
		m := e.ParticipantMoments()
		if math.Abs(m.Mean()-want) > 1e-6*want {
			t.Fatalf("geometric mean = %g, want %g", m.Mean(), want)
		}
	})
}

func TestVectorModeCountSingleLeader(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		const n = 1000
		e, err := Run(Config{
			N:       n,
			Cycles:  30,
			Seed:    5,
			Shards:  k,
			Dim:     1,
			Leaders: []int{17},
			Overlay: randomOverlay(20),
		})
		if err != nil {
			t.Fatal(err)
		}
		sizes := e.SizeMoments()
		if sizes.N() != n {
			t.Fatalf("only %d of %d nodes produced estimates", sizes.N(), n)
		}
		if math.Abs(sizes.Mean()-n) > 0.01 {
			t.Fatalf("size estimate = %g, want %d", sizes.Mean(), n)
		}
	})
}

func TestVectorModeMultiInstance(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		const n, dim = 600, 9
		leaders := make([]int, dim)
		for d := range leaders {
			leaders[d] = d * 7
		}
		e, err := Run(Config{
			N:       n,
			Cycles:  30,
			Seed:    6,
			Shards:  k,
			Dim:     dim,
			Leaders: leaders,
			Overlay: randomOverlay(20),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Every instance conserves unit mass: summed over nodes each
		// dimension must still hold exactly 1 (no failures configured).
		for d := 0; d < dim; d++ {
			total := 0.0
			for i := 0; i < n; i++ {
				total += e.Vector(i)[d]
			}
			if math.Abs(total-1) > 1e-9 {
				t.Fatalf("instance %d mass = %g, want 1", d, total)
			}
		}
		sizes := e.SizeMoments()
		if math.Abs(sizes.Mean()-n) > 0.1 {
			t.Fatalf("combined size estimate = %g, want %d", sizes.Mean(), n)
		}
	})
}

func TestDeterminism(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		run := func() []float64 {
			e, err := Run(Config{
				N:       200,
				Cycles:  10,
				Seed:    7,
				Shards:  k,
				Fn:      core.Average,
				Init:    LinearInit(),
				Overlay: Newscast(10),
				Failures: []FailureModel{
					Churn{PerCycle: 3},
				},
				LinkFailure: 0.1,
				MessageLoss: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			out := make([]float64, 0, 200)
			e.ForEachParticipant(func(_ int, v float64) { out = append(out, v) })
			return out
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("participant counts differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("run diverged at participant %d: %g vs %g", i, a[i], b[i])
			}
		}
	})
}

func TestMassConservedWithLinkFailureAndTimeouts(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		// Link failure and crashed-peer timeouts skip whole exchanges and
		// must not change the global sum over live nodes... crashes remove
		// mass, so run without crashes here.
		const n = 400
		e, err := Run(Config{
			N:           n,
			Cycles:      20,
			Seed:        8,
			Shards:      k,
			Fn:          core.Average,
			Init:        LinearInit(),
			Overlay:     randomOverlay(10),
			LinkFailure: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := e.ParticipantMoments()
		want := float64(n-1) / 2
		if math.Abs(m.Mean()-want) > 1e-9*want {
			t.Fatalf("link failure changed the mean: %g, want %g", m.Mean(), want)
		}
		if e.Metrics().LinkDrops == 0 {
			t.Fatal("no link drops recorded at Pd=0.4")
		}
	})
}

func TestReplyLossChangesMass(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		// §7.2: losing responses changes the global average.
		const n = 400
		e, err := Run(Config{
			N:           n,
			Cycles:      10,
			Seed:        9,
			Shards:      k,
			Fn:          core.Average,
			Init:        PeakInit(n, 0),
			Overlay:     randomOverlay(10),
			MessageLoss: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		met := e.Metrics()
		if met.ReplyLosses == 0 || met.RequestLosses == 0 {
			t.Fatalf("loss not exercised: %+v", met)
		}
		total := 0.0
		e.ForEachParticipant(func(_ int, v float64) { total += v })
		if math.Abs(total-n) < 1e-9 {
			t.Fatal("30% message loss left the global sum exactly intact — reply-loss semantics missing")
		}
	})
}

func TestLinkFailureSlowsConvergence(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		rho := func(pd float64) float64 {
			var tracker stats.ConvergenceTracker
			_, err := Run(Config{
				N:           3000,
				Cycles:      12,
				Seed:        10,
				Shards:      k,
				Fn:          core.Average,
				Init:        UniformInit(0, 1, 11),
				Overlay:     randomOverlay(20),
				LinkFailure: pd,
				Observe: func(_ int, e *Engine) {
					m := e.ParticipantMoments()
					tracker.Record(m.Variance())
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			f, err := tracker.AverageFactor(12)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		r0, r5, r8 := rho(0), rho(0.5), rho(0.8)
		if !(r0 < r5 && r5 < r8) {
			t.Fatalf("convergence factor not increasing with Pd: %.3f, %.3f, %.3f", r0, r5, r8)
		}
		// §6.2 upper bound.
		if bound := theory.LinkFailureBound(0.5); r5 > bound+0.03 {
			t.Fatalf("rho(0.5) = %.3f exceeds theoretical bound %.3f", r5, bound)
		}
	})
}

func TestCrashFractionRemovesNodes(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		const n = 1000
		e, err := Run(Config{
			N:        n,
			Cycles:   5,
			Seed:     12,
			Shards:   k,
			Fn:       core.Average,
			Init:     ConstInit(1),
			Overlay:  completeOverlay(),
			Failures: []FailureModel{CrashFraction{P: 0.1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		// After 5 cycles of 10% proportional crashes: n·0.9⁵ ≈ 590.
		want := float64(n) * math.Pow(0.9, 5)
		if math.Abs(float64(e.AliveCount())-want) > 3 {
			t.Fatalf("alive = %d, want ≈ %.0f", e.AliveCount(), want)
		}
	})
}

func TestSuddenDeathTriggersOnce(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		const n = 1000
		e, err := New(Config{
			N:        n,
			Cycles:   10,
			Seed:     13,
			Shards:   k,
			Fn:       core.Average,
			Init:     ConstInit(1),
			Overlay:  completeOverlay(),
			Failures: []FailureModel{SuddenDeath{AtCycle: 3, Fraction: 0.5}},
		})
		if err != nil {
			t.Fatal(err)
		}
		counts := []int{}
		for i := 0; i < 6; i++ {
			e.Step()
			counts = append(counts, e.AliveCount())
		}
		if counts[0] != n || counts[1] != n {
			t.Fatalf("early crash: %v", counts)
		}
		if counts[2] != n/2 {
			t.Fatalf("sudden death at cycle 3 left %d alive, want %d", counts[2], n/2)
		}
		if counts[5] != n/2 {
			t.Fatalf("sudden death re-triggered: %v", counts)
		}
	})
}

func TestChurnKeepsSizeConstant(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		const n = 500
		e, err := Run(Config{
			N:        n,
			Cycles:   10,
			Seed:     14,
			Shards:   k,
			Fn:       core.Average,
			Init:     ConstInit(2),
			Overlay:  Newscast(10),
			Failures: []FailureModel{Churn{PerCycle: 20}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if e.AliveCount() != n {
			t.Fatalf("churn changed network size: %d", e.AliveCount())
		}
		// Participants shrink by roughly the substituted count (some slots
		// are hit more than once).
		participants := 0
		e.ForEachParticipant(func(int, float64) { participants++ })
		if participants >= n || participants < n-10*20 {
			t.Fatalf("participants = %d after churning 200 slots", participants)
		}
		if e.Metrics().Refusals == 0 {
			t.Fatal("joiners never refused an exchange — §7.1 semantics missing")
		}
	})
}

func TestCrashCount(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		e, err := Run(Config{
			N:        100,
			Cycles:   5,
			Seed:     15,
			Shards:   k,
			Fn:       core.Average,
			Init:     ConstInit(1),
			Overlay:  completeOverlay(),
			Failures: []FailureModel{CrashCount{PerCycle: 10}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if e.AliveCount() != 50 {
			t.Fatalf("alive = %d, want 50", e.AliveCount())
		}
	})
}

func TestKillNeverEmptiesNetwork(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		e, err := Run(Config{
			N:        10,
			Cycles:   20,
			Seed:     16,
			Shards:   k,
			Fn:       core.Average,
			Init:     ConstInit(1),
			Overlay:  completeOverlay(),
			Failures: []FailureModel{CrashCount{PerCycle: 5}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if e.AliveCount() < 1 {
			t.Fatal("network emptied out")
		}
	})
}

func TestMetricsAccounting(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		e, err := Run(Config{
			N:           300,
			Cycles:      10,
			Seed:        17,
			Shards:      k,
			Fn:          core.Average,
			Init:        ConstInit(1),
			Overlay:     Newscast(8),
			Failures:    []FailureModel{Churn{PerCycle: 5}},
			LinkFailure: 0.1,
			MessageLoss: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := e.Metrics()
		sum := m.Completed + m.Timeouts + m.Refusals + m.LinkDrops + m.RequestLosses + m.ReplyLosses
		if sum != m.Attempts {
			t.Fatalf("metrics do not add up: %+v (sum %d != attempts %d)", m, sum, m.Attempts)
		}
		if m.Attempts == 0 {
			t.Fatal("no attempts recorded")
		}
	})
}

func TestExchangeDistributionMatchesPoissonModel(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		// §4.5: exchanges per node per cycle ≈ 1 + Poisson(1): mean 2,
		// variance 1.
		const n = 5000
		var m stats.Moments
		e, err := New(Config{
			N:              n,
			Cycles:         5,
			Seed:           18,
			Shards:         k,
			Fn:             core.Average,
			Init:           ConstInit(1),
			Overlay:        completeOverlay(),
			TrackExchanges: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 5; c++ {
			e.Step()
			for i := 0; i < n; i++ {
				count, err := e.ExchangeCount(i)
				if err != nil {
					t.Fatal(err)
				}
				m.Add(float64(count))
			}
		}
		if math.Abs(m.Mean()-2) > 0.05 {
			t.Fatalf("mean exchanges = %.3f, want ≈ 2", m.Mean())
		}
		if math.Abs(m.Variance()-1) > 0.1 {
			t.Fatalf("exchange variance = %.3f, want ≈ 1", m.Variance())
		}
	}, 1, 4)
}

func TestExchangeCountRequiresTracking(t *testing.T) {
	e, err := New(Config{
		N: 10, Cycles: 1, Fn: core.Average, Init: ConstInit(1),
		Overlay: completeOverlay(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExchangeCount(0); err == nil {
		t.Fatal("ExchangeCount without tracking should error")
	}
}

func TestObserverCalledEveryCycle(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		var cycles []int
		_, err := Run(Config{
			N: 10, Cycles: 3, Seed: 19, Shards: k, Fn: core.Average, Init: ConstInit(1),
			Overlay: completeOverlay(),
			Observe: func(cycle int, _ *Engine) { cycles = append(cycles, cycle) },
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []int{0, 1, 2, 3}
		if len(cycles) != len(want) {
			t.Fatalf("observer calls = %v", cycles)
		}
		for i := range want {
			if cycles[i] != want[i] {
				t.Fatalf("observer calls = %v, want %v", cycles, want)
			}
		}
	})
}

func TestIndexSet(t *testing.T) {
	s := NewIndexSet(5, false)
	if s.Len() != 0 {
		t.Fatal("empty set has members")
	}
	s.Add(3)
	s.Add(1)
	s.Add(3) // duplicate add is a no-op
	if s.Len() != 2 || !s.Contains(3) || !s.Contains(1) || s.Contains(0) {
		t.Fatalf("set state wrong after adds")
	}
	s.Remove(3)
	if s.Contains(3) || s.Len() != 1 {
		t.Fatal("remove failed")
	}
	s.Remove(3) // double remove is a no-op
	if s.Len() != 1 {
		t.Fatal("double remove corrupted set")
	}
	full := NewIndexSet(4, true)
	if full.Len() != 4 {
		t.Fatal("full set incomplete")
	}
	rng := stats.NewRNG(1)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[full.Random(rng)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("random sampling missed members: %v", seen)
	}
}

func TestRepSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for rep := 0; rep < 1000; rep++ {
		s := RepSeed(42, rep)
		if seen[s] {
			t.Fatalf("seed collision at rep %d", rep)
		}
		seen[s] = true
	}
}

func TestParallelRepsRunsAll(t *testing.T) {
	const reps = 37
	done := make([]bool, reps)
	err := ParallelReps(reps, 1, func(rep int, seed uint64) error {
		done[rep] = true
		if seed != RepSeed(1, rep) {
			t.Errorf("rep %d got wrong seed", rep)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rep, ok := range done {
		if !ok {
			t.Fatalf("rep %d never ran", rep)
		}
	}
}

func TestParallelRepsPropagatesError(t *testing.T) {
	err := ParallelReps(10, 1, func(rep int, _ uint64) error {
		if rep == 5 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Fatalf("error not propagated: %v", err)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }
