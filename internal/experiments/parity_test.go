package experiments

import (
	"math"
	"testing"

	"antientropy/internal/scenario"
)

func TestEngineAutoSelection(t *testing.T) {
	cases := []struct {
		sel  Options
		n    int
		want string
	}{
		{Options{}, scenario.AutoEngineThreshold, EngineSharded},
		{Options{}, scenario.AutoEngineThreshold - 1, EngineSerial},
		{Options{Engine: EngineAuto}, scenario.AutoEngineThreshold, EngineSharded},
		// An explicit choice always wins over size-based selection.
		{Options{Engine: EngineSerial}, 10 * scenario.AutoEngineThreshold, EngineSerial},
		{Options{Engine: EngineSharded}, 10, EngineSharded},
	}
	for i, tc := range cases {
		eng, err := tc.sel.resolve(tc.n, 3)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if eng.name != tc.want {
			t.Errorf("case %d: resolved %q, want %q", i, eng.name, tc.want)
		}
	}
	if _, err := (Options{Engine: "warp"}).resolve(100, 1); err == nil {
		t.Error("unknown engine accepted")
	}
}

// K = 1 (-engine serial) and K = 4 (-engine sharded) are different
// (equally valid) executions of the same protocol on the one engine:
// trajectories differ per run, but the rep-averaged series a figure plots
// must agree statistically. These tests run fig2 (the AVERAGE envelope
// trajectory) and fig6b (COUNT under churn) at both shard counts at
// reduced scale and bound the disagreement; the only differences are the
// RNG stream layout and the deferred cross-shard exchange order, so a
// widening here would indicate an engine-level regression.

func runBothEngines(t *testing.T, r row, o Options) (serial, sharded *Result) {
	t.Helper()
	o.Engine = EngineSerial
	serial, err := r.run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Engine, o.Shards = EngineSharded, 4
	sharded, err = r.run(o)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Engine != EngineSerial || sharded.Engine != EngineSharded {
		t.Fatalf("engines not echoed: %q / %q", serial.Engine, sharded.Engine)
	}
	return serial, sharded
}

func TestFig2SerialShardedParity(t *testing.T) {
	r := rowByID(t, "fig2")
	r.cycles = 25
	serial, sharded := runBothEngines(t, r, Options{N: 600, Reps: 6})
	for _, label := range []string{"Minimum", "Maximum"} {
		ss := seriesOf(t, serial, label)
		ps := seriesOf(t, sharded, label)
		if len(ss.Points) != len(ps.Points) {
			t.Fatalf("%s: series lengths differ: %d vs %d", label, len(ss.Points), len(ps.Points))
		}
		// Both engines must converge the envelope to the true average 1.
		last := len(ss.Points) - 1
		if math.Abs(ss.Points[last].Mean-1) > 0.01 || math.Abs(ps.Points[last].Mean-1) > 0.01 {
			t.Errorf("%s: final envelopes %g (serial) vs %g (sharded), want ≈ 1",
				label, ss.Points[last].Mean, ps.Points[last].Mean)
		}
	}
	// Trajectory parity on the closing Maximum envelope: per cycle, the
	// rep-averaged means must agree within a small factor once the decay
	// is underway (the first cycles are dominated by single-exchange
	// variance).
	ss := seriesOf(t, serial, "Maximum")
	ps := seriesOf(t, sharded, "Maximum")
	for c := 5; c < len(ss.Points); c++ {
		a, b := ss.Points[c].Mean, ps.Points[c].Mean
		if a <= 1 || b <= 1 {
			continue // converged to the floor at both shard counts
		}
		// Compare the decaying excess over the limit on a log scale.
		ratio := math.Log(a-1+1e-12) - math.Log(b-1+1e-12)
		if math.Abs(ratio) > math.Log(8) {
			t.Errorf("cycle %d: max envelope serial %g vs sharded %g beyond tolerance", c, a, b)
		}
	}
}

func TestFig6bSerialShardedParity(t *testing.T) {
	r := rowByID(t, "fig6b") // up to N/40 per cycle: the paper's 2.5%
	r.steps = 3
	serial, sharded := runBothEngines(t, r, Options{N: 1000, Reps: 4})
	ss := serial.Series[0].Points
	ps := sharded.Series[0].Points
	if len(ss) != len(ps) {
		t.Fatalf("series lengths differ: %d vs %d", len(ss), len(ps))
	}
	n := 1000.0
	for i := range ss {
		if ss[i].Reps == 0 || ps[i].Reps == 0 {
			t.Fatalf("point %d: no finite estimates (serial %d, sharded %d reps)", i, ss[i].Reps, ps[i].Reps)
		}
		// Both engines report the pre-churn size within the paper's
		// "reasonable range"…
		if math.Abs(ss[i].Mean-n)/n > 0.25 || math.Abs(ps[i].Mean-n)/n > 0.25 {
			t.Errorf("churn=%g: estimates %g (serial) vs %g (sharded) stray from N=%g",
				ss[i].X, ss[i].Mean, ps[i].Mean, n)
		}
		// …and agree with each other.
		if math.Abs(ss[i].Mean-ps[i].Mean)/n > 0.2 {
			t.Errorf("churn=%g: serial %g and sharded %g disagree beyond tolerance",
				ss[i].X, ss[i].Mean, ps[i].Mean)
		}
	}
}
