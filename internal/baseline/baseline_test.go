// Package baseline holds the laws of the two designs the paper positions
// itself against (§8) — Kempe et al.'s push-sum over (s, w) pairs and
// naive push-only averaging — as tests of sim.Config.Rule, the exchange
// rules of the one engine. They were written against the separate round
// loop this directory used to export; the loop is gone, the laws are the
// same, and each runs at K = 1 and K = 4 wherever it does not depend on K.
// The directory has no non-test code.
package baseline

import (
	"fmt"
	"math"
	"testing"

	"antientropy/internal/core"
	"antientropy/internal/sim"
	"antientropy/internal/stats"
	"antientropy/internal/topology"
)

func forEachK(t *testing.T, fn func(t *testing.T, k int)) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) { fn(t, k) })
	}
}

func overlay(k int) sim.OverlaySpec {
	return sim.Static(func(n int, rng *stats.RNG) (topology.Graph, error) {
		return topology.NewRandomKOut(n, min(k, n-1), rng)
	})
}

// pushSumConfig runs push-sum over (s, w) = (sInit(i), wInit(i)).
func pushSumConfig(n, k int, sInit, wInit func(int) float64) sim.Config {
	return sim.Config{
		N: n, Cycles: 40, Seed: 1, Shards: k,
		Dim: 2,
		VecInit: func(i, d int) float64 {
			if d == 0 {
				return sInit(i)
			}
			return wInit(i)
		},
		Overlay: overlay(20),
		Rule:    sim.PushSum,
	}
}

// pushOnlyConfig runs push-only averaging from init in scalar mode.
func pushOnlyConfig(n, k int, init func(int) float64) sim.Config {
	return sim.Config{
		N: n, Cycles: 40, Seed: 1, Shards: k,
		Fn: core.Average, Init: init,
		Overlay: overlay(20),
		Rule:    sim.PushOnly,
	}
}

func run(t *testing.T, cfg sim.Config) *sim.Engine {
	t.Helper()
	e, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// estimates summarizes the push-sum estimates s/w of the nodes holding
// weight.
func estimates(e *sim.Engine) stats.Moments {
	var m stats.Moments
	e.ForEachParticipantVec(func(_ int, sw []float64) {
		if sw[1] > 0 {
			m.Add(sw[0] / sw[1])
		}
	})
	return m
}

// mass returns the global sums Σs and Σw.
func mass(e *sim.Engine) (sumS, sumW float64) {
	e.ForEachParticipantVec(func(_ int, sw []float64) {
		sumS += sw[0]
		sumW += sw[1]
	})
	return sumS, sumW
}

func TestPushSumValidation(t *testing.T) {
	if _, err := sim.New(pushSumConfig(10, 1, sim.LinearInit(), sim.ConstInit(1))); err != nil {
		t.Fatalf("valid push-sum config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*sim.Config)
	}{
		{"zero nodes", func(c *sim.Config) { c.N = 0 }},
		{"negative rounds", func(c *sim.Config) { c.Cycles = -1 }},
		{"missing sinit", func(c *sim.Config) { c.VecInit = nil }},
		// Scalar mode has no weight component for push-sum to halve.
		{"missing winit", func(c *sim.Config) {
			c.Dim, c.VecInit, c.Fn, c.Init = 0, nil, core.Average, sim.ConstInit(1)
		}},
		{"missing overlay", func(c *sim.Config) { c.Overlay = nil }},
		{"bad loss", func(c *sim.Config) { c.MessageLoss = 2 }},
		{"unknown rule", func(c *sim.Config) { c.Rule = sim.PushSum + 1 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := pushSumConfig(10, 1, sim.LinearInit(), sim.ConstInit(1))
			tc.mutate(&cfg)
			if _, err := sim.New(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestPushSumConvergesToAverage(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		const n = 1000
		m := estimates(run(t, pushSumConfig(n, k, sim.LinearInit(), sim.ConstInit(1))))
		want := float64(n-1) / 2
		if math.Abs(m.Mean()-want) > 1e-6*want {
			t.Fatalf("push-sum mean = %g, want %g", m.Mean(), want)
		}
		// Push-sum diffuses more slowly than push-pull; after 40 cycles the
		// relative spread should nevertheless be tiny.
		if (m.Max()-m.Min())/want > 1e-4 {
			t.Fatalf("push-sum not converged: spread %g", m.Max()-m.Min())
		}
	})
}

func TestPushSumMassConservation(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		const n = 500
		cfg := pushSumConfig(n, k, sim.LinearInit(), sim.ConstInit(1))
		cfg.Cycles = 10
		sumS, sumW := mass(run(t, cfg))
		if wantS := float64(n*(n-1)) / 2; math.Abs(sumS-wantS) > 1e-6 {
			t.Fatalf("s mass = %g, want %g", sumS, wantS)
		}
		if math.Abs(sumW-n) > 1e-9 {
			t.Fatalf("w mass = %g, want %d", sumW, n)
		}
	})
}

func TestPushSumCountMode(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		// COUNT via push-sum: s = 1 everywhere, w = 1 at a single node.
		const n = 800
		cfg := pushSumConfig(n, k, sim.ConstInit(1), sim.PeakInit(1, 0))
		cfg.Cycles = 60
		m := estimates(run(t, cfg))
		if m.N() < n*9/10 {
			t.Fatalf("only %d nodes hold weight after 60 cycles", m.N())
		}
		if math.Abs(m.Mean()-n) > 0.01*n {
			t.Fatalf("count estimate = %g, want %d", m.Mean(), n)
		}
	})
}

func TestPushSumLosesMassUnderMessageLoss(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		const n = 500
		cfg := pushSumConfig(n, k, sim.LinearInit(), sim.ConstInit(1))
		cfg.Cycles = 20
		cfg.MessageLoss = 0.2
		e := run(t, cfg)
		if met := e.Metrics(); met.RequestLosses == 0 || met.ReplyLosses != 0 {
			t.Fatalf("a push is one message with no reply: %+v", met)
		}
		sumS, sumW := mass(e)
		if wantS := float64(n*(n-1)) / 2; sumS >= wantS {
			t.Fatalf("message loss should destroy s-mass: %g >= %g", sumS, wantS)
		}
		if sumW >= n {
			t.Fatalf("message loss should destroy w-mass: %g >= %d", sumW, n)
		}
		// The ratio bias is bounded because s and w decay together — this
		// is Kempe's robustness argument; the estimate should still be
		// usable.
		want := float64(n-1) / 2
		if m := estimates(e); math.Abs(m.Mean()-want) > 0.2*want {
			t.Fatalf("push-sum estimate too biased: %g vs %g", m.Mean(), want)
		}
	})
}

func TestPushSumObserverAndRound(t *testing.T) {
	calls := 0
	cfg := pushSumConfig(50, 1, sim.LinearInit(), sim.ConstInit(1))
	cfg.Cycles = 5
	cfg.Observe = func(cycle int, _ *sim.Engine) {
		if cycle != calls {
			t.Errorf("observer cycle %d, want %d", cycle, calls)
		}
		calls++
	}
	if e := run(t, cfg); calls != 6 || e.Cycle() != 5 {
		t.Fatalf("observer called %d times after %d cycles, want 6 after 5", calls, e.Cycle())
	}
}

func TestPushSumEstimateNoWeight(t *testing.T) {
	cfg := pushSumConfig(10, 1, sim.ConstInit(3), sim.PeakInit(1, 0))
	cfg.Cycles = 0
	// Only the node holding weight has an estimate, and it is s/w.
	if m := estimates(run(t, cfg)); m.N() != 1 || m.Mean() != 3 {
		t.Fatalf("estimates over %d nodes with mean %g, want the leader's 3 alone", m.N(), m.Mean())
	}
}

func TestPushOnlyConvergesInExpectation(t *testing.T) {
	// K = 1 only: the law needs exchanges in one random order. At K > 1
	// the merge drains cross-shard pushes in shard order, so with values
	// that grow with the node index the low shards push first and the
	// sum drifts (about −7 % at K = 4 here).
	const n = 1000
	cfg := pushOnlyConfig(n, 1, sim.LinearInit())
	cfg.Cycles = 60
	m := run(t, cfg).ParticipantMoments()
	want := float64(n-1) / 2
	// Push-only drifts: only statistical accuracy, a few percent here.
	if math.Abs(m.Mean()-want)/want > 0.05 {
		t.Fatalf("push-only mean = %g, want ≈ %g", m.Mean(), want)
	}
	if m.Variance() > 1 {
		t.Fatalf("push-only failed to tighten estimates: variance %g", m.Variance())
	}
}

func TestPushOnlyDoesNotConserveMass(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		const n = 200
		cfg := pushOnlyConfig(n, k, sim.PeakInit(n, 0))
		cfg.Cycles = 5
		total := 0.0
		run(t, cfg).ForEachParticipant(func(_ int, v float64) { total += v })
		if math.Abs(total-n) < 1e-9 {
			t.Fatal("push-only conserved the sum exactly — that would make it push-pull")
		}
	})
}

func TestPushOnlyDefaultsWInit(t *testing.T) {
	// Push-only needs no weight: it runs in scalar mode with no VecInit.
	if _, err := sim.New(pushOnlyConfig(20, 1, sim.LinearInit())); err != nil {
		t.Fatalf("scalar push-only rejected: %v", err)
	}
}

func TestPushPullBeatsPushOnlyOnAccuracy(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		// The paper's central design claim, quantified: with the same
		// overlay and cycles, push-pull's worst-node error on the peak
		// distribution is orders of magnitude below push-only's mean
		// drift.
		const n = 1000
		cfg := pushOnlyConfig(n, k, sim.PeakInit(n, 0))
		cfg.Cycles, cfg.Seed = 30, 3
		pom := run(t, cfg).ParticipantMoments()
		cfg.Rule = sim.PushPull
		pp := run(t, cfg).ParticipantMoments()

		ppErr := math.Max(math.Abs(pp.Max()-1), math.Abs(pp.Min()-1))
		poErr := math.Abs(pom.Mean() - 1)
		if ppErr*10 > poErr && poErr > 1e-12 {
			t.Fatalf("push-pull error %g not clearly below push-only drift %g", ppErr, poErr)
		}
	})
}
