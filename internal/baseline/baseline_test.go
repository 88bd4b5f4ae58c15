package baseline

import (
	"math"
	"testing"

	"antientropy/internal/core"
	"antientropy/internal/sim"
	"antientropy/internal/stats"
	"antientropy/internal/topology"
)

func overlay(k int) func(n int, rng *stats.RNG) (topology.Graph, error) {
	return func(n int, rng *stats.RNG) (topology.Graph, error) {
		if k > n-1 {
			k = n - 1
		}
		return topology.NewRandomKOut(n, k, rng)
	}
}

func baseConfig(n int) Config {
	return Config{
		N:       n,
		Rounds:  40,
		Seed:    1,
		SInit:   func(i int) float64 { return float64(i) },
		WInit:   func(int) float64 { return 1 },
		Overlay: overlay(20),
	}
}

func TestPushSumValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero nodes", func(c *Config) { c.N = 0 }},
		{"negative rounds", func(c *Config) { c.Rounds = -1 }},
		{"missing sinit", func(c *Config) { c.SInit = nil }},
		{"missing winit", func(c *Config) { c.WInit = nil }},
		{"missing overlay", func(c *Config) { c.Overlay = nil }},
		{"bad loss", func(c *Config) { c.MessageLoss = 2 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(10)
			tc.mutate(&cfg)
			if _, err := NewPushSum(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestPushSumConvergesToAverage(t *testing.T) {
	const n = 1000
	ps, err := RunPushSum(baseConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	m := ps.Moments()
	want := float64(n-1) / 2
	if math.Abs(m.Mean()-want) > 1e-6*want {
		t.Fatalf("push-sum mean = %g, want %g", m.Mean(), want)
	}
	// Push-sum diffuses more slowly than push-pull; after 40 rounds the
	// relative spread should nevertheless be tiny.
	if (m.Max()-m.Min())/want > 1e-4 {
		t.Fatalf("push-sum not converged: spread %g", m.Max()-m.Min())
	}
}

func TestPushSumMassConservation(t *testing.T) {
	const n = 500
	cfg := baseConfig(n)
	cfg.Rounds = 10
	ps, err := RunPushSum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sumS, sumW := ps.TotalMass()
	wantS := float64(n*(n-1)) / 2
	if math.Abs(sumS-wantS) > 1e-6 {
		t.Fatalf("s mass = %g, want %g", sumS, wantS)
	}
	if math.Abs(sumW-float64(n)) > 1e-9 {
		t.Fatalf("w mass = %g, want %d", sumW, n)
	}
}

func TestPushSumCountMode(t *testing.T) {
	// COUNT via push-sum: s = 1 everywhere, w = 1 at a single node.
	const n = 800
	cfg := baseConfig(n)
	cfg.Rounds = 60
	cfg.SInit = func(int) float64 { return 1 }
	cfg.WInit = func(i int) float64 {
		if i == 0 {
			return 1
		}
		return 0
	}
	ps, err := RunPushSum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := ps.Moments()
	if m.N() < n*9/10 {
		t.Fatalf("only %d nodes hold weight after 60 rounds", m.N())
	}
	if math.Abs(m.Mean()-n) > 0.01*n {
		t.Fatalf("count estimate = %g, want %d", m.Mean(), n)
	}
}

func TestPushSumLosesMassUnderMessageLoss(t *testing.T) {
	const n = 500
	cfg := baseConfig(n)
	cfg.Rounds = 20
	cfg.MessageLoss = 0.2
	ps, err := RunPushSum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sumS, sumW := ps.TotalMass()
	wantS := float64(n*(n-1)) / 2
	if sumS >= wantS {
		t.Fatalf("message loss should destroy s-mass: %g >= %g", sumS, wantS)
	}
	if sumW >= float64(n) {
		t.Fatalf("message loss should destroy w-mass: %g >= %d", sumW, n)
	}
	// The ratio bias is bounded because s and w decay together — this is
	// Kempe's robustness argument; the estimate should still be usable.
	m := ps.Moments()
	want := float64(n-1) / 2
	if math.Abs(m.Mean()-want) > 0.2*want {
		t.Fatalf("push-sum estimate too biased: %g vs %g", m.Mean(), want)
	}
}

func TestPushSumObserverAndRound(t *testing.T) {
	calls := 0
	cfg := baseConfig(50)
	cfg.Rounds = 5
	cfg.Observe = func(round int, ps *PushSum) {
		if round != calls {
			t.Errorf("observer round %d, want %d", round, calls)
		}
		calls++
	}
	ps, err := RunPushSum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 6 {
		t.Fatalf("observer called %d times, want 6", calls)
	}
	if ps.Round() != 5 {
		t.Fatalf("Round = %d", ps.Round())
	}
}

func TestPushSumEstimateNoWeight(t *testing.T) {
	cfg := baseConfig(10)
	cfg.Rounds = 0
	cfg.WInit = func(i int) float64 {
		if i == 0 {
			return 1
		}
		return 0
	}
	ps, err := RunPushSum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ps.Estimate(5); ok {
		t.Fatal("weightless node produced an estimate")
	}
	if _, ok := ps.Estimate(0); !ok {
		t.Fatal("leader should have an estimate")
	}
}

func TestPushOnlyConvergesInExpectation(t *testing.T) {
	const n = 1000
	cfg := baseConfig(n)
	cfg.Rounds = 60
	po, err := RunPushOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := po.Moments()
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
	const n = 200
	cfg := baseConfig(n)
	cfg.Rounds = 5
	cfg.SInit = sim.PeakInit(float64(n), 0)
	po, err := RunPushOnly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += po.Value(i)
	}
	if math.Abs(total-float64(n)) < 1e-9 {
		t.Fatal("push-only conserved the sum exactly — that would make it push-pull")
	}
}

func TestPushOnlyDefaultsWInit(t *testing.T) {
	cfg := baseConfig(20)
	cfg.WInit = nil
	if _, err := NewPushOnly(cfg); err != nil {
		t.Fatalf("WInit should default for push-only: %v", err)
	}
}

func TestPushPullBeatsPushOnlyOnAccuracy(t *testing.T) {
	// The paper's central design claim, quantified: with the same overlay
	// and rounds, push-pull's worst-node error on the peak distribution
	// is orders of magnitude below push-only's mean drift.
	const n, rounds = 1000, 30
	ppCfg := sim.Config{
		N: n, Cycles: rounds, Seed: 3,
		Fn:      core.Average,
		Init:    sim.PeakInit(float64(n), 0),
		Overlay: sim.Static(overlay(20)),
	}
	e, err := sim.Run(ppCfg)
	if err != nil {
		t.Fatal(err)
	}
	pp := e.ParticipantMoments()

	poCfg := baseConfig(n)
	poCfg.Rounds = rounds
	poCfg.Seed = 3
	poCfg.SInit = sim.PeakInit(float64(n), 0)
	po, err := RunPushOnly(poCfg)
	if err != nil {
		t.Fatal(err)
	}
	pom := po.Moments()

	ppErr := math.Max(math.Abs(pp.Max()-1), math.Abs(pp.Min()-1))
	poErr := math.Abs(pom.Mean() - 1)
	if ppErr*10 > poErr && poErr > 1e-12 {
		t.Fatalf("push-pull error %g not clearly below push-only drift %g", ppErr, poErr)
	}
}
