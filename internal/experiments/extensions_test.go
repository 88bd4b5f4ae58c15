package experiments

import (
	"testing"

	"antientropy/internal/theory"
)

func TestExtensionAdaptivity(t *testing.T) {
	res, err := rowByID(t, "extension-adaptivity").run(Options{N: 1000, Reps: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	if len(pts) != 8 {
		t.Fatalf("%d epochs", len(pts))
	}
	// Every epoch's output must track that epoch's truth tightly — this
	// is the §4.1 adaptivity claim.
	for _, p := range pts {
		if p.Mean > 1e-4 {
			t.Errorf("epoch %g: relative error %g", p.X, p.Mean)
		}
	}
}

func TestExtensionMinMax(t *testing.T) {
	res, err := rowByID(t, "extension-minmax").run(Options{N: 10000, Reps: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	measured := seriesOf(t, res, "cycles to full MIN propagation")
	bound := seriesOf(t, res, "Pittel push bound")
	// Logarithmic growth: going from n=100 to n=10000 (100×) should add
	// only a few cycles, and every point sits below the bound.
	first := measured.Points[0]
	last := measured.Points[len(measured.Points)-1]
	if last.Mean > 3*first.Mean {
		t.Errorf("propagation not logarithmic: %g cycles at n=%g vs %g at n=%g",
			first.Mean, first.X, last.Mean, last.X)
	}
	for i, p := range measured.Points {
		if p.Max > bound.Points[i].Mean {
			t.Errorf("n=%g: %g cycles exceeds Pittel bound %g", p.X, p.Max, bound.Points[i].Mean)
		}
	}
	if b := theory.EpidemicRoundsBound(1); b != 0 {
		t.Errorf("bound for n=1 should be 0, got %g", b)
	}
}

func TestExtensionConfigValidation(t *testing.T) {
	checkRejects(t, "extension-", true)
}

func TestExtensionCountChain(t *testing.T) {
	res, err := rowByID(t, "extension-countchain").run(Options{N: 1500, Reps: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ests := seriesOf(t, res, "size estimate")
	leaders := seriesOf(t, res, "leaders elected")
	// From epoch 1 on, estimates must sit near the true size despite the
	// absurd initial guess.
	for _, p := range ests.Points[1:] {
		if p.Reps == 0 {
			continue // all reps leaderless at this epoch (very unlikely)
		}
		if p.Mean < 1400 || p.Mean > 1600 {
			t.Errorf("epoch %g: estimate %g, want ≈ 1500", p.X, p.Mean)
		}
	}
	// Epoch 0 elects (nearly) everyone — P_lead clamps to 1; later epochs
	// settle near C = 8.
	if leaders.Points[0].Mean < 1400 {
		t.Errorf("epoch 0 elected %g leaders, want ≈ N", leaders.Points[0].Mean)
	}
	last := leaders.Points[len(leaders.Points)-1]
	if last.Mean < 1 || last.Mean > 25 {
		t.Errorf("final epoch elected %g leaders, want ≈ 8", last.Mean)
	}
}
