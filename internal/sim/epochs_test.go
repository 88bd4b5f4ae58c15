package sim

import (
	"math"
	"testing"
)

func TestEpochChainValidation(t *testing.T) {
	base := EpochChainConfig{
		N: 100, Epochs: 2, Gamma: 10, Seed: 1,
		ValueAt: func(epoch, node int) float64 { return 1 },
		Overlay: randomOverlay(10),
	}
	if _, err := RunEpochChain(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*EpochChainConfig)
	}{
		{"zero nodes", func(c *EpochChainConfig) { c.N = 0 }},
		{"zero epochs", func(c *EpochChainConfig) { c.Epochs = 0 }},
		{"zero gamma", func(c *EpochChainConfig) { c.Gamma = 0 }},
		{"no values", func(c *EpochChainConfig) { c.ValueAt = nil }},
		{"no overlay", func(c *EpochChainConfig) { c.Overlay = nil }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := RunEpochChain(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestEpochChainTracksDriftingSignal(t *testing.T) {
	// §4.1: each epoch's output converges to that epoch's true average.
	results, err := RunEpochChain(EpochChainConfig{
		N: 500, Epochs: 4, Gamma: 30, Seed: 2,
		ValueAt: func(epoch, node int) float64 {
			return float64(100*(epoch+1)) + float64(node%10)
		},
		Overlay: randomOverlay(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	for _, r := range results {
		wantTruth := float64(100*(r.Epoch+1)) + 4.5
		if math.Abs(r.TrueAverage-wantTruth) > 1e-9 {
			t.Fatalf("epoch %d truth = %g, want %g", r.Epoch, r.TrueAverage, wantTruth)
		}
		if math.Abs(r.Outputs.Mean()-r.TrueAverage)/r.TrueAverage > 1e-6 {
			t.Errorf("epoch %d output %g vs truth %g", r.Epoch, r.Outputs.Mean(), r.TrueAverage)
		}
		if r.Outputs.N() != 500 {
			t.Errorf("epoch %d has %d outputs", r.Epoch, r.Outputs.N())
		}
	}
}

func TestEpochChainWithFailures(t *testing.T) {
	// The chain composes with failure models: under churn the epoch
	// outputs still land near the truth.
	results, err := RunEpochChain(EpochChainConfig{
		N: 500, Epochs: 3, Gamma: 30, Seed: 3,
		ValueAt:  func(epoch, node int) float64 { return 10 },
		Overlay:  Newscast(20),
		Failures: []FailureModel{Churn{PerCycle: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if math.Abs(r.Outputs.Mean()-10) > 1e-6 {
			t.Errorf("epoch %d output %g under churn (constant values)", r.Epoch, r.Outputs.Mean())
		}
		if r.Outputs.N() >= 500 {
			t.Errorf("epoch %d: joiners should not be counted", r.Epoch)
		}
	}
}

func TestEpochChainDeterminism(t *testing.T) {
	forEachK(t, testEpochChainDeterminism)
}

func testEpochChainDeterminism(t *testing.T, k int) {
	run := func() []float64 {
		results, err := RunEpochChain(EpochChainConfig{
			N: 200, Epochs: 3, Gamma: 10, Seed: 7, Shards: k,
			ValueAt:     func(epoch, node int) float64 { return float64(epoch + node) },
			Overlay:     Newscast(10),
			MessageLoss: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, 3)
		for _, r := range results {
			out = append(out, r.Outputs.Mean())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch chain not deterministic: %v vs %v", a, b)
		}
	}
}
