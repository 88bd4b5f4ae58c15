package experiments

import (
	"testing"
)

// runAblation runs an ablation row at 1 500 nodes, 3 repetitions and at
// most 25 cycles (A3 measures 20).
func runAblation(t *testing.T, id string) *Result {
	t.Helper()
	r := rowByID(t, id)
	r.cycles = min(r.cycles, 25)
	res, err := r.run(Options{N: 1500, Reps: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAblationPushPull(t *testing.T) {
	res := runAblation(t, "ablation-pushpull")
	pp := seriesOf(t, res, "push-pull")
	ps := seriesOf(t, res, "push-sum")
	po := seriesOf(t, res, "push-only")
	// Loss-free: push-pull and push-sum are exact (error ~ 0); push-only
	// drifts.
	if pp.Points[0].Mean > 1e-9 {
		t.Errorf("loss-free push-pull error %g", pp.Points[0].Mean)
	}
	// Push-sum diffuses more slowly, so after the same number of rounds a
	// small residual spread remains.
	if ps.Points[0].Mean > 1e-4 {
		t.Errorf("loss-free push-sum error %g", ps.Points[0].Mean)
	}
	if po.Points[0].Mean < 1e-9 {
		t.Errorf("loss-free push-only error suspiciously zero")
	}
	// Under 30% loss every protocol degrades (error > loss-free case).
	last := len(pp.Points) - 1
	if pp.Points[last].Mean <= pp.Points[0].Mean {
		t.Errorf("push-pull error did not grow under loss")
	}
}

func TestAblationCombiner(t *testing.T) {
	res := runAblation(t, "ablation-combiner")
	trimmed := seriesOf(t, res, "trimmed mean (paper)")
	plain := seriesOf(t, res, "plain mean")
	// Averaged over the sweep, trimming should never be much worse and
	// usually better. Assert it wins or ties (within noise) at the
	// largest t.
	last := len(trimmed.Points) - 1
	if trimmed.Points[last].Mean > plain.Points[last].Mean*1.6+0.01 {
		t.Errorf("trimmed error %.4f much worse than plain %.4f",
			trimmed.Points[last].Mean, plain.Points[last].Mean)
	}
}

func TestAblationPeerSelection(t *testing.T) {
	res := runAblation(t, "ablation-peer-selection")
	rho := func(label string) float64 {
		s := seriesOf(t, res, label)
		return s.Points[0].Mean
	}
	uniform := rho("uniform random (ideal)")
	fresh := rho("newscast c=30 (fresh)")
	// Fresh NEWSCAST must track the uniform ideal closely.
	if fresh > uniform+0.05 {
		t.Errorf("fresh newscast rho %.3f far above uniform %.3f", fresh, uniform)
	}
	// A tiny cache is measurably worse than the ideal.
	if small := rho("newscast c=5 (fresh)"); small <= uniform+0.01 {
		t.Errorf("c=5 rho %.3f not worse than uniform %.3f", small, uniform)
	}
}
