package experiments

import "testing"

func TestScenarioFigRegeneratesSeries(t *testing.T) {
	r, err := Lookup("scenario-partition-heal")
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(Options{N: 120, Reps: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "scenario-partition-heal" {
		t.Fatalf("result id %q", res.ID)
	}
	if len(res.Series) != 3 {
		t.Fatalf("got %d series, want rel error / stddev / live fraction", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 91 {
			t.Fatalf("series %q has %d points, want 91", s.Label, len(s.Points))
		}
	}
	final := seriesOf(t, res, "rel error")
	if got := final.Points[len(final.Points)-1].Mean; got > 1e-9 {
		t.Fatalf("final rel error %g: partition-heal must re-converge", got)
	}
	if _, err := Lookup("scenario-no-such"); err == nil {
		t.Fatal("unknown scenario must be rejected")
	}
}
