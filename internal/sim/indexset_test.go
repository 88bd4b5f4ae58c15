package sim

import (
	"testing"
	"testing/quick"

	"antientropy/internal/core"
	"antientropy/internal/stats"
	"antientropy/internal/topology"
)

// TestIndexSetModelProperty drives the index set with arbitrary
// add/remove sequences and checks it against a plain map model.
func TestIndexSetModelProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(ops []uint16) bool {
		const n = 64
		s := NewIndexSet(n, false)
		model := make(map[int]bool)
		for _, op := range ops {
			id := int(op) % n
			if op&0x8000 != 0 {
				s.Remove(id)
				delete(model, id)
			} else {
				s.Add(id)
				model[id] = true
			}
			if s.Len() != len(model) {
				return false
			}
			if s.Contains(id) != model[id] {
				return false
			}
		}
		// Every model member must be present, and sampling must only
		// return members.
		for id := range model {
			if !s.Contains(id) {
				return false
			}
		}
		if len(model) > 0 {
			rng := stats.NewRNG(1)
			for i := 0; i < 32; i++ {
				if !model[s.Random(rng)] {
					return false
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCompleteLiveSamplesOnlyAlive(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		// Kill most of the network; the live-complete overlay must never
		// select a dead neighbor, so no timeouts can occur.
		e, err := Run(Config{
			N:        200,
			Cycles:   10,
			Seed:     5,
			Shards:   k,
			Fn:       core.Average,
			Init:     ConstInit(3),
			Overlay:  CompleteLive(),
			Failures: []FailureModel{SuddenDeath{AtCycle: 2, Fraction: 0.9}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if e.Metrics().Timeouts != 0 {
			t.Fatalf("live-complete overlay produced %d timeouts", e.Metrics().Timeouts)
		}
		if e.AliveCount() != 20 {
			t.Fatalf("alive = %d", e.AliveCount())
		}
		m := e.ParticipantMoments()
		if m.Mean() != 3 {
			t.Fatalf("constant distribution disturbed: %g", m.Mean())
		}
	})
}

func TestCompleteLiveSingleSurvivor(t *testing.T) {
	forEachK(t, func(t *testing.T, k int) {
		// One live node left: Neighbor must return -1 (no one to talk to)
		// rather than looping forever.
		e, err := New(Config{
			N:       4,
			Cycles:  5,
			Seed:    6,
			Shards:  k,
			Fn:      core.Average,
			Init:    ConstInit(1),
			Overlay: CompleteLive(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, victim := range []int{1, 2, 3} {
			e.Kill(victim)
		}
		e.Step() // must terminate
		if got := e.AliveCount(); got != 1 {
			t.Fatalf("alive = %d", got)
		}
	})
}

func TestStaticPropagatesBuildErrors(t *testing.T) {
	builder := Static(func(n int, rng *stats.RNG) (topology.Graph, error) {
		return nil, errBuild
	})
	_, err := New(Config{
		N: 10, Cycles: 1, Fn: core.Average, Init: ConstInit(1),
		Overlay: builder,
	})
	if err == nil {
		t.Fatal("builder error swallowed")
	}
}

var errBuild = &buildError{}

type buildError struct{}

func (*buildError) Error() string { return "build failed" }
