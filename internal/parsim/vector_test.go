package parsim

import (
	"math"
	"testing"

	"antientropy/internal/core"
	"antientropy/internal/sim"
	"antientropy/internal/stats"
	"antientropy/internal/topology"
)

func vectorConfig(n, cycles, dim int, seed uint64, shards int) Config {
	return Config{
		N: n, Cycles: cycles, Seed: seed, Shards: shards,
		Dim: dim,
		VecInit: func(node, d int) float64 {
			return float64((node+1)*(d+1)) / float64(n)
		},
		Overlay: Newscast(30),
	}
}

func TestVectorConfigValidation(t *testing.T) {
	leaders := []int{0, 1}
	bad := []Config{
		// Both modes at once.
		{N: 10, Fn: core.Average, Init: func(int) float64 { return 0 }, Dim: 1, Leaders: []int{0}},
		// Vector mode without leaders or init.
		{N: 10, Dim: 2},
		// Both leaders and VecInit.
		{N: 10, Dim: 2, Leaders: leaders, VecInit: func(int, int) float64 { return 0 }},
		// Leader count != Dim.
		{N: 10, Dim: 3, Leaders: leaders},
		// Leader outside the initially alive range.
		{N: 10, InitialAlive: 5, Dim: 2, Leaders: []int{0, 7}},
		// Leader out of range.
		{N: 10, Dim: 2, Leaders: []int{0, 10}},
	}
	for i, cfg := range bad {
		cfg.Overlay = Newscast(30)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid vector config accepted", i)
		}
	}
}

// TestVectorMassConservation is the invariant the COUNT protocol rests
// on, at every shard count: with no loss, every component's total mass
// over participants is unchanged by exchanges — intra-shard and
// cross-shard (deferred merge) alike.
func TestVectorMassConservation(t *testing.T) {
	const n, dim = 600, 3
	for _, shards := range []int{1, 2, 8} {
		initial := make([]float64, dim)
		seen := false
		cfg := vectorConfig(n, 30, dim, 9, shards)
		cfg.Observe = func(cycle int, e *Engine) {
			sums := make([]float64, dim)
			e.ForEachParticipantVec(func(_ int, vec []float64) {
				for d, v := range vec {
					sums[d] += v
				}
			})
			if !seen {
				copy(initial, sums)
				seen = true
				return
			}
			for d := range sums {
				if math.Abs(sums[d]-initial[d]) > 1e-6*math.Abs(initial[d]) {
					t.Fatalf("shards=%d cycle %d dim %d: mass %g, want %g",
						shards, cycle, d, sums[d], initial[d])
				}
			}
		}
		run(t, cfg)
	}
}

// TestVectorDeterminism pins the determinism contract in vector mode:
// the same seed and shard count reproduce every component bit-for-bit.
func TestVectorDeterminism(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := vectorConfig(400, 20, 4, 42, shards)
		cfg.MessageLoss = 0.05
		va, vb := participantVecs(run(t, cfg)), participantVecs(run(t, cfg))
		if len(va) != len(vb) {
			t.Fatalf("shards=%d: %d vs %d participant components", shards, len(va), len(vb))
		}
		for k := range va {
			if va[k] != vb[k] {
				t.Fatalf("shards=%d: component %d diverged: %v vs %v", shards, k, va[k], vb[k])
			}
		}
	}
}

// participantVecs concatenates every participant's state vector in the
// engine's participant order.
func participantVecs(e *Engine) []float64 {
	var out []float64
	e.ForEachParticipantVec(func(_ int, vec []float64) {
		out = append(out, vec...)
	})
	return out
}

// TestVectorCountConverges runs a two-instance COUNT (leaders hold the
// peak) and checks the combined size estimates converge to N on every
// shard count.
func TestVectorCountConverges(t *testing.T) {
	const n = 1000
	for _, shards := range []int{1, 2, 8} {
		cfg := Config{
			N: n, Cycles: 40, Seed: 7, Shards: shards,
			Dim: 2, Leaders: []int{0, n / 2},
			Overlay: Newscast(30),
		}
		e := run(t, cfg)
		m := e.SizeMoments()
		if m.N() == 0 {
			t.Fatalf("shards=%d: no finite size estimates", shards)
		}
		if math.Abs(m.Mean()-n)/n > 0.01 {
			t.Fatalf("shards=%d: size estimate %g, want ≈ %d", shards, m.Mean(), n)
		}
	}
}

// TestVectorReplaceAndRestartVec mirrors the §4.2/§5 lifecycle in vector
// mode: a replaced slot loses its mass and sits out the epoch until
// RestartVec reinstates everyone with a fresh per-component init.
func TestVectorReplaceAndRestartVec(t *testing.T) {
	cfg := vectorConfig(100, 8, 2, 5, 4)
	cfg.Failures = script(func(cycle int, e *Engine) {
		if cycle == 2 {
			e.Kill(7)
			e.Replace(7)
		}
		if cycle == 5 {
			e.RestartVec(func(node, d int) float64 { return float64(d) })
		}
	})
	// The participants' mass after cycle 1, less what slot 7 held then, is
	// what cycle 2's loss-free exchanges must conserve: the crashed node's
	// mass leaves with it and the joiner brings none.
	want := make([]float64, cfg.Dim)
	sums := func(e *Engine) []float64 {
		s := make([]float64, cfg.Dim)
		e.ForEachParticipantVec(func(node int, vec []float64) {
			for d, v := range vec {
				s[d] += v
			}
		})
		return s
	}
	cfg.Observe = func(cycle int, e *Engine) {
		switch {
		case cycle == 1:
			copy(want, sums(e))
			e.ForEachParticipantVec(func(node int, vec []float64) {
				if node == 7 {
					for d, v := range vec {
						want[d] -= v
					}
				}
			})
		case cycle >= 2 && cycle < 5:
			if e.Participating(7) {
				t.Fatalf("cycle %d: joiner participates before RestartVec", cycle)
			}
			if cycle == 2 {
				for d, got := range sums(e) {
					if math.Abs(got-want[d]) > 1e-9*math.Abs(want[d]) {
						t.Fatalf("dim %d: participants hold mass %g after the replace, want %g", d, got, want[d])
					}
				}
			}
		case cycle == 5:
			if !e.Participating(7) {
				t.Fatal("joiner still refused after RestartVec")
			}
		}
	}
	run(t, cfg)
}

// TestStaticTopologySharded checks the packed static overlay: a random
// k-out graph drives the exchanges (deterministically per seed + shard
// count), the protocol converges to the true mean, and joins/reseeds are
// no-ops.
func TestStaticTopologySharded(t *testing.T) {
	const n = 800
	build := func(n int, rng *stats.RNG) (topology.Graph, error) {
		return topology.NewRandomKOut(n, 20, rng)
	}
	want := float64(n-1) / 2
	for _, shards := range []int{1, 4} {
		cfg := baseConfig(n, 40, 13, shards)
		cfg.Overlay = sim.Static(build)
		a := run(t, cfg)
		m := a.ParticipantMoments()
		if math.Abs(m.Mean()-want) > 1e-6 {
			t.Fatalf("shards=%d: mean %g, want %g", shards, m.Mean(), want)
		}
		if m.StdDev() > 1e-4 {
			t.Fatalf("shards=%d: stddev %g, not converged", shards, m.StdDev())
		}
		b := run(t, cfg)
		for i := 0; i < n; i++ {
			if a.Value(i) != b.Value(i) {
				t.Fatalf("shards=%d: static topology run not deterministic at node %d", shards, i)
			}
		}
	}
}

// TestFrozenNewscastSharded: the frozen overlay still carries the
// aggregate (its bootstrapped views form a connected random graph) but
// performs no gossip, so a crashed peer's descriptor never ages out —
// timeouts keep accruing, unlike with fresh NEWSCAST.
func TestFrozenNewscastSharded(t *testing.T) {
	const n = 500
	cfg := baseConfig(n, 40, 17, 4)
	cfg.Overlay = sim.NewscastFrozen(30)
	e := run(t, cfg)
	m := e.ParticipantMoments()
	want := float64(n-1) / 2
	if math.Abs(m.Mean()-want) > 1e-6 {
		t.Fatalf("frozen overlay mean %g, want %g", m.Mean(), want)
	}
	kill := baseConfig(n, 30, 17, 4)
	kill.Overlay = sim.NewscastFrozen(30)
	kill.Failures = script(func(cycle int, e *Engine) {
		if cycle == 2 {
			for k := 0; k < 100; k++ {
				e.Kill(e.RandomAlive())
			}
		}
	})
	froze := run(t, kill)
	fresh := kill
	fresh.Overlay = Newscast(30)
	warm := run(t, fresh)
	if froze.Metrics().Timeouts <= warm.Metrics().Timeouts {
		t.Fatalf("frozen overlay should accrue more timeouts than fresh NEWSCAST: %d vs %d",
			froze.Metrics().Timeouts, warm.Metrics().Timeouts)
	}
}

// TestFailureModelsOnShardedEngine drives the paper's failure models
// through Config.Failures at K = 4 and checks their semantics.
func TestFailureModelsOnShardedEngine(t *testing.T) {
	const n = 400
	cfg := baseConfig(n, 10, 19, 4)
	cfg.Failures = []sim.FailureModel{sim.Churn{PerCycle: 20}}
	e := run(t, cfg)
	if got := e.AliveCount(); got != n {
		t.Fatalf("churn changed the network size: %d", got)
	}
	if got := e.ParticipantCount(); got >= n {
		t.Fatalf("churn joiners should sit out the epoch: %d participants of %d", got, n)
	}

	crash := baseConfig(n, 10, 19, 4)
	crash.Failures = []sim.FailureModel{sim.SuddenDeath{AtCycle: 3, Fraction: 0.5}}
	e = run(t, crash)
	if got := e.AliveCount(); got != n/2 {
		t.Fatalf("sudden death left %d alive, want %d", got, n/2)
	}
}
