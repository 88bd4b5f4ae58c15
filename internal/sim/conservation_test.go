package sim

import (
	"math"
	"testing"
	"testing/quick"

	"antientropy/internal/core"
)

// TestEngineMassConservationProperty checks the engine's core physical
// invariant over arbitrary failure-free configurations: with AVERAGE and
// no crashes or message loss, the sum of all estimates never changes, no
// matter the topology, seed, size, shard count or link-failure rate.
func TestEngineMassConservationProperty(t *testing.T) {
	overlays := []OverlaySpec{
		randomOverlay(8),
		completeOverlay(),
		Newscast(8),
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(func(seedRaw uint32, nRaw, overlayPick, pdRaw, kRaw uint8) bool {
		n := 50 + int(nRaw)%200
		pd := float64(pdRaw%90) / 100
		e, err := Run(Config{
			N:           n,
			Cycles:      8,
			Seed:        uint64(seedRaw) + 1,
			Shards:      1 + int(kRaw)%8,
			Fn:          core.Average,
			Init:        LinearInit(),
			Overlay:     overlays[int(overlayPick)%len(overlays)],
			LinkFailure: pd,
		})
		if err != nil {
			t.Log(err)
			return false
		}
		want := float64(n*(n-1)) / 2
		got := 0.0
		e.ForEachParticipant(func(_ int, v float64) { got += v })
		return math.Abs(got-want) < 1e-6*want
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestEngineVectorMassConservationProperty is the same invariant for the
// vector engine: each instance's unit mass is preserved, under push-pull
// and under push-sum, whose failure-free pushes all arrive.
func TestEngineVectorMassConservationProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(func(seedRaw uint32, nRaw, dimRaw, kRaw, ruleRaw uint8) bool {
		n := 50 + int(nRaw)%150
		dim := 1 + int(dimRaw)%8
		leaders := make([]int, dim)
		for d := range leaders {
			leaders[d] = (d * 13) % n
		}
		e, err := Run(Config{
			N:       n,
			Cycles:  6,
			Seed:    uint64(seedRaw) + 1,
			Shards:  1 + int(kRaw)%8,
			Dim:     dim,
			Leaders: leaders,
			Overlay: randomOverlay(8),
			Rule:    []Rule{PushPull, PushSum}[ruleRaw%2],
		})
		if err != nil {
			t.Log(err)
			return false
		}
		// Duplicate leader slots stack their mass: compute expected mass
		// per dimension (1 each).
		for d := 0; d < dim; d++ {
			total := 0.0
			for i := 0; i < n; i++ {
				total += e.Vector(i)[d]
			}
			if math.Abs(total-1) > 1e-9 {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTotalMessageLossLedger: with every message lost, a push-sum sender
// still gives up the half it pushed, so every node's s and w — and with
// them Σw — halve exactly once per cycle, while push-pull and push-only
// exchanges that never arrive change nothing.
func TestTotalMessageLossLedger(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		for _, rule := range []Rule{PushPull, PushOnly, PushSum} {
			_, err := Run(Config{
				N: 200, Cycles: 6, Seed: 5, Shards: k,
				Dim:         2,
				VecInit:     func(i, d int) float64 { return float64(i*(1-d) + d) }, // (s, w) = (i, 1)
				Overlay:     randomOverlay(10),
				MessageLoss: 1,
				Rule:        rule,
				Observe: func(cycle int, e *Engine) {
					scale := 1.0
					if rule == PushSum {
						scale = math.Ldexp(1, -cycle)
					}
					e.ForEachParticipantVec(func(i int, v []float64) {
						if v[0] != float64(i)*scale || v[1] != scale {
							t.Fatalf("rule %d, cycle %d: node %d holds %v, want (%g, %g)", rule, cycle, i, v, float64(i)*scale, scale)
						}
					})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}, 1, 4)
}

// TestVarianceNeverIncreasesWithoutFailures: each AVERAGE exchange can
// only shrink the spread, so the per-cycle variance sequence must be
// non-increasing in a failure-free run.
func TestVarianceNeverIncreasesWithoutFailures(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		var variances []float64
		_, err := Run(Config{
			N:       500,
			Cycles:  25,
			Seed:    9,
			Shards:  k,
			Fn:      core.Average,
			Init:    UniformInit(0, 100, 10),
			Overlay: Newscast(15),
			Observe: func(_ int, e *Engine) {
				m := e.ParticipantMoments()
				variances = append(variances, m.Variance())
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(variances); i++ {
			if variances[i] > variances[i-1]*(1+1e-12) {
				t.Fatalf("variance grew at cycle %d: %g -> %g", i, variances[i-1], variances[i])
			}
		}
	})
}
