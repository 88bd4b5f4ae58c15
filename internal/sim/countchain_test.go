package sim

import (
	"math"
	"testing"
)

func countChainConfig(n int) CountChainConfig {
	return CountChainConfig{
		N:            n,
		Epochs:       4,
		Gamma:        30,
		Seed:         13,
		Concurrency:  8,
		InitialGuess: float64(n),
		Overlay:      Newscast(20),
	}
}

func TestCountChainValidation(t *testing.T) {
	base := countChainConfig(100)
	tests := []struct {
		name   string
		mutate func(*CountChainConfig)
	}{
		{"zero nodes", func(c *CountChainConfig) { c.N = 0 }},
		{"zero epochs", func(c *CountChainConfig) { c.Epochs = 0 }},
		{"zero gamma", func(c *CountChainConfig) { c.Gamma = 0 }},
		{"zero concurrency", func(c *CountChainConfig) { c.Concurrency = 0 }},
		{"bad guess", func(c *CountChainConfig) { c.InitialGuess = 0 }},
		{"no overlay", func(c *CountChainConfig) { c.Overlay = nil }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := RunCountEpochChain(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestCountChainEstimatesSize(t *testing.T) {
	const n = 2000
	results, err := RunCountEpochChain(countChainConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	sawEstimate := false
	for _, r := range results {
		if r.Outputs.N() == 0 {
			continue // leaderless epoch: acceptable Poisson outcome
		}
		sawEstimate = true
		if math.Abs(r.Outputs.Mean()-n)/n > 0.05 {
			t.Errorf("epoch %d: estimate %g, want ≈ %d (instances %d)",
				r.Epoch, r.Outputs.Mean(), n, r.Instances)
		}
	}
	if !sawEstimate {
		t.Fatal("no epoch produced an estimate")
	}
}

func TestCountChainRecoversFromBadGuess(t *testing.T) {
	// A wildly low initial N̂ makes P_lead ≈ 1 (everyone a leader, capped
	// by MaxInstances); one epoch later the estimate is correct and the
	// election normalizes to ≈ C leaders.
	const n = 1500
	cfg := countChainConfig(n)
	cfg.InitialGuess = 2
	cfg.Epochs = 3
	results, err := RunCountEpochChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := results[0]
	if first.PLead != 1 {
		t.Fatalf("P_lead with N̂=2 and C=8 should clamp to 1, got %g", first.PLead)
	}
	if first.Instances > 64 {
		t.Fatalf("instance cap not applied: %d", first.Instances)
	}
	if first.Outputs.N() == 0 {
		t.Fatal("first epoch produced no estimate")
	}
	// Later epochs elect roughly C leaders, not N.
	last := results[len(results)-1]
	if last.LeadersElected > 40 {
		t.Fatalf("election did not normalize: %d leaders at epoch %d (P_lead %g)",
			last.LeadersElected, last.Epoch, last.PLead)
	}
	if math.Abs(last.Outputs.Mean()-n)/n > 0.05 {
		t.Fatalf("final estimate %g, want ≈ %d", last.Outputs.Mean(), n)
	}
}

func TestCountChainUnderChurn(t *testing.T) {
	const n = 1500
	cfg := countChainConfig(n)
	cfg.Failures = []FailureModel{Churn{PerCycle: n / 100}}
	results, err := RunCountEpochChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Outputs.N() == 0 {
			continue
		}
		if math.Abs(r.Outputs.Mean()-n)/n > 0.25 {
			t.Errorf("epoch %d under churn: estimate %g", r.Epoch, r.Outputs.Mean())
		}
	}
}

func TestCountChainDeterminism(t *testing.T) {
	forEachK(t, testCountChainDeterminism)
}

func testCountChainDeterminism(t *testing.T, k int) {
	run := func() []float64 {
		cfg := countChainConfig(500)
		cfg.Shards = k
		results, err := RunCountEpochChain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, len(results))
		for _, r := range results {
			out = append(out, r.Outputs.Mean())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("count chain not deterministic: %v vs %v", a, b)
		}
	}
}
