package sim

import (
	"math"
	"testing"

	"antientropy/internal/core"
	"antientropy/internal/stats"
	"antientropy/internal/theory"
	"antientropy/internal/topology"
)

// fixedGraph is a Static builder that ignores n and always yields a
// complete graph over size nodes.
func fixedGraph(size int) OverlaySpec {
	return Static(func(int, *stats.RNG) (topology.Graph, error) {
		return topology.NewComplete(size)
	})
}

func TestStaticOverlayRejectsWrongSize(t *testing.T) {
	_, err := New(Config{
		N: 10, Cycles: 1, Fn: core.Average, Init: ConstInit(1),
		Overlay: fixedGraph(5),
	})
	if err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestStaticOverlayFixedGraph(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		e, err := Run(Config{
			N: 50, Cycles: 10, Seed: 1, Shards: k, Fn: core.Average, Init: LinearInit(),
			Overlay: fixedGraph(50),
		})
		if err != nil {
			t.Fatal(err)
		}
		m := e.ParticipantMoments()
		if math.Abs(m.Mean()-24.5) > 1e-9 {
			t.Fatalf("mean = %g", m.Mean())
		}
	})
}

// newscastEngine builds a bare engine over NEWSCAST(c) and returns it
// with its overlay, for tests that inspect the caches.
func newscastEngine(t *testing.T, n, c, k int, seed uint64) (*Engine, *newscast) {
	t.Helper()
	e, err := New(Config{
		N: n, Seed: seed, Shards: k, Fn: core.Average, Init: ConstInit(1),
		Overlay: Newscast(c),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, e.overlay.(*newscast)
}

func TestNewscastOverlayBootstraps(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		_, ns := newscastEngine(t, 100, 20, k, 1)
		for i := 0; i < 100; i++ {
			if ns.t.At(i).Len() != 20 {
				t.Fatalf("node %d bootstrapped with %d entries, want 20", i, ns.t.At(i).Len())
			}
			if ns.t.At(i).Contains(int32(i)) {
				t.Fatalf("node %d knows itself", i)
			}
		}
	})
}

func TestNewscastOverlaySmallNetwork(t *testing.T) {
	// Cache size larger than the network must degrade gracefully.
	_, ns := newscastEngine(t, 3, 30, 1, 2)
	if ns.t.At(0).Len() != 2 {
		t.Fatalf("bootstrap len = %d, want 2", ns.t.At(0).Len())
	}
}

func TestNewscastNeighborFromCache(t *testing.T) {
	_, ns := newscastEngine(t, 50, 10, 1, 3)
	rng := stats.NewRNG(4)
	for trial := 0; trial < 100; trial++ {
		p := ns.neighbor(7, rng)
		if p < 0 || p >= 50 || p == 7 {
			t.Fatalf("bad neighbor %d", p)
		}
		if !ns.t.At(7).Contains(int32(p)) {
			t.Fatalf("neighbor %d not in cache", p)
		}
	}
}

func TestNewscastStepRefreshesStamps(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		e, ns := newscastEngine(t, 60, 8, k, 5)
		for cycle := 1; cycle <= 10; cycle++ {
			e.Step()
		}
		// After 10 cycles of gossip the caches should hold recent stamps.
		stale := 0
		for i := 0; i < 60; i++ {
			if oldest, ok := ns.t.At(i).Oldest(); ok && oldest < 5 {
				stale++
			}
		}
		if stale > 6 {
			t.Fatalf("%d of 60 caches still hold stamps older than cycle 5", stale)
		}
	})
}

func TestNewscastOnJoinReseeds(t *testing.T) {
	e, ns := newscastEngine(t, 40, 10, 1, 6)
	for cycle := 1; cycle <= 17; cycle++ {
		e.Step()
	}
	e.ReseedOverlay(5)
	after := ns.t.At(5).Entries()
	if len(after) == 0 {
		t.Fatal("join left empty cache")
	}
	for _, e := range after {
		if e.Stamp != 17 {
			t.Fatalf("joiner seeded with stale stamp %d", e.Stamp)
		}
		if e.Key == 5 {
			t.Fatal("joiner seeded with itself")
		}
	}
}

func TestNewscastAggregationConvergesLikeRandom(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		// §4.4 / Figure 4(b): with c = 30 NEWSCAST converges about as fast as
		// a random graph (rho within a few percent of 1/(2√e)).
		w := stats.RhoWindow{To: 15}
		_, err := Run(Config{
			N:       3000,
			Cycles:  15,
			Seed:    7,
			Shards:  k,
			Fn:      core.Average,
			Init:    UniformInit(0, 1, 8),
			Overlay: Newscast(30),
			Observe: func(cycle int, e *Engine) {
				w.Add(0, cycle, e.ParticipantMoments().Variance())
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rho, ok := w.Factor()
		if !ok {
			t.Fatal("no convergence factor")
		}
		if math.Abs(rho-theory.RhoPushPull) > 0.05 {
			t.Fatalf("NEWSCAST rho = %.4f, want ≈ %.4f", rho, theory.RhoPushPull)
		}
	})
}

func TestNewscastSmallCacheConvergesSlower(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		// Figure 4(b): tiny caches (c = 2) hurt convergence.
		rho := func(c int) float64 {
			w := stats.RhoWindow{To: 15}
			_, err := Run(Config{
				N:       1500,
				Cycles:  15,
				Seed:    9,
				Shards:  k,
				Fn:      core.Average,
				Init:    UniformInit(0, 1, 10),
				Overlay: Newscast(c),
				Observe: func(cycle int, e *Engine) {
					w.Add(0, cycle, e.ParticipantMoments().Variance())
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			f, ok := w.Factor()
			if !ok {
				t.Fatal("no convergence factor")
			}
			return f
		}
		small, large := rho(2), rho(30)
		if small <= large+0.02 {
			t.Fatalf("c=2 (%.3f) should converge measurably slower than c=30 (%.3f)", small, large)
		}
	})
}

func TestNewscastSurvivesMassCrash(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		// The overlay must stay usable when half the network dies: exchanges
		// keep completing and estimates keep converging.
		e, err := Run(Config{
			N:        2000,
			Cycles:   30,
			Seed:     11,
			Shards:   k,
			Fn:       core.Average,
			Init:     ConstInit(5),
			Overlay:  Newscast(30),
			Failures: []FailureModel{SuddenDeath{AtCycle: 10, Fraction: 0.5}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if e.AliveCount() != 1000 {
			t.Fatalf("alive = %d", e.AliveCount())
		}
		m := e.ParticipantMoments()
		if math.Abs(m.Mean()-5) > 1e-9 {
			t.Fatalf("constant distribution disturbed: %g", m.Mean())
		}
		// In the last cycles exchanges must mostly succeed again (overlay
		// repaired): timeouts happen right after the crash, then fade.
		met := e.Metrics()
		if met.Completed == 0 {
			t.Fatal("no exchanges completed")
		}
		ratio := float64(met.Timeouts) / float64(met.Attempts)
		if ratio > 0.25 {
			t.Fatalf("timeout ratio %.2f — overlay not repairing", ratio)
		}
	})
}
