package sim

import (
	"math"
	"testing"

	"antientropy/internal/stats"
)

func derivedConfig(n int) DerivedConfig {
	return DerivedConfig{
		N:       n,
		Cycles:  30,
		Seed:    11,
		Values:  func(i int) float64 { return float64(i%10) + 1 }, // values 1..10
		Overlay: randomOverlay(20),
		Leader:  0,
	}
}

func TestDerivedConfigValidation(t *testing.T) {
	base := derivedConfig(100)
	tests := []struct {
		name   string
		mutate func(*DerivedConfig)
	}{
		{"zero nodes", func(c *DerivedConfig) { c.N = 0 }},
		{"zero cycles", func(c *DerivedConfig) { c.Cycles = 0 }},
		{"no values", func(c *DerivedConfig) { c.Values = nil }},
		{"no overlay", func(c *DerivedConfig) { c.Overlay = nil }},
		{"bad leader", func(c *DerivedConfig) { c.Leader = -1 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := RunSum(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestRunSum(t *testing.T) {
	const n = 1000
	cfg := derivedConfig(n)
	res, err := RunSum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// True sum: 100 groups of (1+…+10) = 100·55 = 5500... n=1000 → values
	// repeat 100 times.
	want := 0.0
	for i := 0; i < n; i++ {
		want += cfg.Values(i)
	}
	if res.Name != "sum" {
		t.Fatalf("name = %q", res.Name)
	}
	if res.Estimates.N() != n {
		t.Fatalf("%d estimates, want %d", res.Estimates.N(), n)
	}
	if math.Abs(res.Estimates.Mean()-want)/want > 0.001 {
		t.Fatalf("sum estimate %g, want %g", res.Estimates.Mean(), want)
	}
}

func TestRunVariance(t *testing.T) {
	const n = 1000
	cfg := derivedConfig(n)
	res, err := RunVariance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = cfg.Values(i)
	}
	var m stats.Moments
	m.AddAll(vals)
	want := m.PopVariance() // a2 − a² is the population variance
	if math.Abs(res.Estimates.Mean()-want)/want > 0.001 {
		t.Fatalf("variance estimate %g, want %g", res.Estimates.Mean(), want)
	}
}

// TestRunSumSkipsNodesWithoutCountMass: two cycles after the COUNT
// leader starts, most nodes hold no COUNT mass and so no finite size;
// they are left out of the SUM estimates instead of turning their mean
// into NaN.
func TestRunSumSkipsNodesWithoutCountMass(t *testing.T) {
	const n = 1000
	cfg := derivedConfig(n)
	cfg.Cycles, cfg.Seed, cfg.Overlay = 2, 7, Newscast(30)
	res, err := RunSum(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Estimates
	if math.IsNaN(m.Mean()) || math.IsInf(m.Mean(), 0) || math.IsInf(m.Max(), 0) {
		t.Fatalf("sum estimates mean %g, max %g: want finite", m.Mean(), m.Max())
	}
	if m.N() == 0 || m.N() == n {
		t.Fatalf("%d of %d nodes estimated, want some but not all", m.N(), n)
	}
}

func TestVecInitMode(t *testing.T) {
	// VecInit and Leaders are mutually exclusive; VecInit alone works.
	const n = 400
	e, err := Run(Config{
		N: n, Cycles: 25, Seed: 3, Dim: 2,
		VecInit: func(node, dim int) float64 {
			if dim == 0 {
				return float64(node)
			}
			return 1
		},
		Overlay: randomOverlay(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.ForEachParticipantVec(func(node int, vec []float64) {
		if math.Abs(vec[0]-float64(n-1)/2) > 1e-3 {
			t.Fatalf("dim 0 at node %d = %g", node, vec[0])
		}
		if math.Abs(vec[1]-1) > 1e-9 {
			t.Fatalf("dim 1 at node %d = %g", node, vec[1])
		}
	})
	// Both set: rejected.
	_, err = New(Config{
		N: n, Cycles: 1, Dim: 1, Leaders: []int{0},
		VecInit: func(int, int) float64 { return 0 },
		Overlay: randomOverlay(10),
	})
	if err == nil {
		t.Fatal("Leaders+VecInit accepted")
	}
	// Neither set: rejected.
	_, err = New(Config{N: n, Cycles: 1, Dim: 1, Overlay: randomOverlay(10)})
	if err == nil {
		t.Fatal("vector mode without initialization accepted")
	}
}
