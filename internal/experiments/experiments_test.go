package experiments

import (
	"encoding/csv"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"antientropy/internal/theory"
)

// Test scale: big enough for statistical shape, small enough for CI.
const (
	testN    = 2000
	testReps = 3
)

// rowByID copies a registered row, so a test can shrink its axis.
func rowByID(t *testing.T, id string) row {
	t.Helper()
	t.Parallel()
	for _, r := range rows() {
		if r.id == id {
			return r
		}
	}
	t.Fatalf("no row %q", id)
	return row{}
}

// seriesOf returns res's series of that label.
func seriesOf(t *testing.T, res *Result, label string) Series {
	t.Helper()
	s, err := res.SeriesByLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runTest runs r at the test scale.
func runTest(t *testing.T, r row) *Result {
	t.Helper()
	res, err := r.run(Options{N: testN, Reps: testReps})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFig2Shape(t *testing.T) {
	r := rowByID(t, "fig2")
	res := runTest(t, r)
	minS := seriesOf(t, res, "Minimum")
	maxS := seriesOf(t, res, "Maximum")
	if len(minS.Points) != r.cycles+1 || len(maxS.Points) != r.cycles+1 {
		t.Fatalf("series lengths %d/%d, want %d", len(minS.Points), len(maxS.Points), r.cycles+1)
	}
	// Cycle 0: min 0, max N (the peak).
	if minS.Points[0].Mean != 0 {
		t.Errorf("initial min = %g", minS.Points[0].Mean)
	}
	if maxS.Points[0].Mean != testN {
		t.Errorf("initial max = %g", maxS.Points[0].Mean)
	}
	// Final cycle: both envelopes at the true average 1 within 1%.
	last := r.cycles
	if math.Abs(minS.Points[last].Mean-1) > 0.01 || math.Abs(maxS.Points[last].Mean-1) > 0.01 {
		t.Errorf("envelopes did not converge to 1: min %g max %g",
			minS.Points[last].Mean, maxS.Points[last].Mean)
	}
	// Max must be non-increasing and min non-decreasing (monotone closing
	// envelopes).
	for c := 1; c <= last; c++ {
		if maxS.Points[c].Mean > maxS.Points[c-1].Mean*(1+1e-9) {
			t.Fatalf("max envelope grew at cycle %d", c)
		}
		if minS.Points[c].Mean < minS.Points[c-1].Mean-1e-9 {
			t.Fatalf("min envelope shrank at cycle %d", c)
		}
	}
}

func TestFig3aShape(t *testing.T) {
	r := rowByID(t, "fig3a")
	r.cycles = 15
	res, err := r.run(Options{N: 1000, Reps: testReps})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 8 {
		t.Fatalf("%d series, want 8 topologies", len(res.Series))
	}
	// Shape 1: random/complete/scale-free/newscast near the theory value
	// at every size; W-S(0) way above.
	for _, label := range []string{"Random", "Complete", "Newscast"} {
		s := seriesOf(t, res, label)
		for _, p := range s.Points {
			if math.Abs(p.Mean-theory.RhoPushPull) > 0.06 {
				t.Errorf("%s at n=%g: rho %.3f, want ≈ %.3f", label, p.X, p.Mean, theory.RhoPushPull)
			}
		}
	}
	ws0 := seriesOf(t, res, "W-S (beta=0.00)")
	for _, p := range ws0.Points {
		if p.Mean < 0.5 {
			t.Errorf("W-S(0) at n=%g: rho %.3f suspiciously good", p.X, p.Mean)
		}
	}
	// Shape 2: size independence — for the random topology the factor at
	// the smallest and largest size differ by little.
	rand := seriesOf(t, res, "Random")
	first, last := rand.Points[0].Mean, rand.Points[len(rand.Points)-1].Mean
	if math.Abs(first-last) > 0.08 {
		t.Errorf("convergence factor not size-independent: %.3f vs %.3f", first, last)
	}
	// Shape 3: more rewiring converges faster (ordering of W-S curves).
	rhoAt := func(label string) float64 {
		s := seriesOf(t, res, label)
		return s.Points[len(s.Points)-1].Mean
	}
	if !(rhoAt("W-S (beta=0.00)") > rhoAt("W-S (beta=0.25)") &&
		rhoAt("W-S (beta=0.25)") > rhoAt("W-S (beta=0.50)") &&
		rhoAt("W-S (beta=0.50)") > rhoAt("W-S (beta=0.75)")) {
		t.Errorf("W-S ordering violated: %.3f, %.3f, %.3f, %.3f",
			rhoAt("W-S (beta=0.00)"), rhoAt("W-S (beta=0.25)"),
			rhoAt("W-S (beta=0.50)"), rhoAt("W-S (beta=0.75)"))
	}
}

func TestFig3bShape(t *testing.T) {
	r := rowByID(t, "fig3b")
	r.cycles = 20
	res := runTest(t, r)
	// Normalized variance starts at 1 and decays monotonically (modulo
	// tiny noise) for every topology; random reaches below 1e-8 by cycle
	// 20 while W-S(0) stays orders of magnitude higher.
	for _, s := range res.Series {
		if math.Abs(s.Points[0].Mean-1) > 1e-9 {
			t.Errorf("%s: initial normalized variance %g != 1", s.Label, s.Points[0].Mean)
		}
		if s.Points[len(s.Points)-1].Mean > s.Points[0].Mean {
			t.Errorf("%s: variance grew", s.Label)
		}
	}
	rand := seriesOf(t, res, "Random")
	if final := rand.Points[len(rand.Points)-1].Mean; final > 1e-8 {
		t.Errorf("random topology reduction after 20 cycles = %g, want < 1e-8", final)
	}
	ws0 := seriesOf(t, res, "W-S (beta=0.00)")
	if final := ws0.Points[len(ws0.Points)-1].Mean; final < 1e-6 {
		t.Errorf("lattice reduced variance implausibly fast: %g", final)
	}
}

func TestFig4aShape(t *testing.T) {
	r := rowByID(t, "fig4a")
	r.steps, r.cycles = 5, 15
	pts := runTest(t, r).Series[0].Points
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	// Overall trend: rho at beta=0 clearly above rho at beta=1; no point
	// below the theoretical floor.
	if pts[0].Mean <= pts[len(pts)-1].Mean+0.1 {
		t.Errorf("no improvement from rewiring: %.3f -> %.3f", pts[0].Mean, pts[len(pts)-1].Mean)
	}
	for _, p := range pts {
		if p.Mean < theory.RhoPushPull-0.05 {
			t.Errorf("beta=%g: rho %.3f below theoretical floor", p.X, p.Mean)
		}
	}
}

func TestFig4bShape(t *testing.T) {
	r := rowByID(t, "fig4b")
	r.cycles, r.axis = 15, list(2, 5, 30)
	pts := runTest(t, r).Series[0].Points
	// c=2 clearly worse than c=30; c=30 near theory.
	if pts[0].Mean <= pts[2].Mean+0.02 {
		t.Errorf("c=2 (%.3f) not worse than c=30 (%.3f)", pts[0].Mean, pts[2].Mean)
	}
	if math.Abs(pts[2].Mean-theory.RhoPushPull) > 0.05 {
		t.Errorf("c=30 rho = %.3f, want ≈ %.3f", pts[2].Mean, theory.RhoPushPull)
	}
}

func TestFig5MatchesTheorem1(t *testing.T) {
	r := rowByID(t, "fig5")
	r.steps, r.series = 4, r.series[:1] // the fully connected series only
	res, err := r.run(Options{N: testN, Reps: 60})
	if err != nil {
		t.Fatal(err)
	}
	emp := seriesOf(t, res, "fully connected topology")
	pred := seriesOf(t, res, "predicted")
	// At Pf = 0 both are 0; at the largest Pf the empirical normalized
	// variance must be within a factor ~3 of Theorem 1 (it is a variance
	// estimate from 60 samples — generous band, still catches e.g. a
	// missing (1-Pf)^i term, which would change it by orders of
	// magnitude).
	if emp.Points[0].Mean > 1e-12 {
		t.Errorf("empirical variance at Pf=0 is %g", emp.Points[0].Mean)
	}
	lastE, lastP := emp.Points[len(emp.Points)-1], pred.Points[len(pred.Points)-1]
	if lastP.Mean <= 0 {
		t.Fatalf("prediction at max Pf = %g", lastP.Mean)
	}
	ratio := lastE.Mean / lastP.Mean
	if ratio < 1.0/3 || ratio > 3 {
		t.Errorf("empirical/predicted = %.2f at Pf=%.2f (emp %.3g, pred %.3g)",
			ratio, lastE.X, lastE.Mean, lastP.Mean)
	}
	// Variance grows with Pf.
	if emp.Points[len(emp.Points)-1].Mean <= emp.Points[1].Mean {
		t.Errorf("empirical variance not increasing with Pf")
	}
}

// TestSummarizeWithoutFiniteRep: a point whose every repetition diverged
// has no estimate, so it reads NaN with Reps 0, and Plot leaves it out.
func TestSummarizeWithoutFiniteRep(t *testing.T) {
	p := summarize(1, []float64{math.Inf(1), math.NaN()})
	if p.Reps != 0 || !math.IsNaN(p.Mean) || !math.IsNaN(p.Min) || !math.IsNaN(p.Max) {
		t.Fatalf("summary of diverged repetitions %+v, want NaN with Reps 0", p)
	}
	if p := summarize(2, []float64{math.Inf(1), 4, 6}); p.Reps != 2 || p.Mean != 5 || p.Min != 4 || p.Max != 6 {
		t.Fatalf("summary %+v, want mean 5 over [4, 6] from 2 repetitions", p)
	}
}

// TestFig6aShape: late sudden death leaves the estimate ≈ N, early death
// disturbs it far more. A death early enough can take every mass holder
// in every repetition — at N = 1000, death at cycle 1 does — and such a
// point has no estimate: it reads NaN with Reps 0, not a size of 0, and
// the comparison uses the earliest death that left one.
func TestFig6aShape(t *testing.T) {
	r := rowByID(t, "fig6a")
	r.steps, r.max = 17, 16
	for _, n := range []int{testN, 1000} {
		res, err := r.run(Options{N: n, Reps: testReps})
		if err != nil {
			t.Fatal(err)
		}
		pts := res.Series[0].Points
		for _, p := range pts {
			if p.Reps == 0 && !(math.IsNaN(p.Mean) && math.IsNaN(p.Min) && math.IsNaN(p.Max)) {
				t.Errorf("N=%d, death at cycle %g: no finite repetition, yet it reads %g [%g, %g]", n, p.X, p.Mean, p.Min, p.Max)
			}
		}
		last := pts[len(pts)-1]
		if last.Reps == 0 {
			t.Fatalf("N=%d: late death left no finite estimate", n)
		}
		// Late sudden death (cycle 16 of 30): estimate ≈ N within a few
		// percent.
		if math.Abs(last.Mean-float64(n))/float64(n) > 0.05 {
			t.Errorf("N=%d: late death estimate %g, want ≈ %d", n, last.Mean, n)
		}
		// Early death must disturb the estimate far more than late death
		// (often upward by a lot — mass holders die).
		i := slices.IndexFunc(pts[1:], func(p Point) bool { return p.Reps > 0 })
		if i < 0 || pts[1+i].X > 2 {
			t.Fatalf("N=%d: no death before cycle 3 left a finite estimate", n)
		}
		early := pts[1+i]
		lateErr := math.Abs(last.Mean - float64(n))
		earlyErr := math.Abs(early.Mean - float64(n))
		if earlyErr <= lateErr {
			t.Errorf("N=%d: early death at cycle %g (err %g) not worse than late (err %g)", n, early.X, earlyErr, lateErr)
		}
	}
}

func TestFig6bShape(t *testing.T) {
	r := rowByID(t, "fig6b") // up to testN/40 per cycle: the paper's 2.5%
	r.steps = 3
	pts := runTest(t, r).Series[0].Points
	// No churn: estimate exact. Heavy churn: mean still within ~25% of N
	// (paper: "most of the estimates are included in a reasonable
	// range").
	if math.Abs(pts[0].Mean-testN) > 1 {
		t.Errorf("churn-free estimate %g", pts[0].Mean)
	}
	heavy := pts[len(pts)-1]
	if heavy.Reps == 0 {
		t.Fatal("no finite estimates under churn")
	}
	if math.Abs(heavy.Mean-testN)/testN > 0.25 {
		t.Errorf("heavy churn estimate %g, want within 25%% of %d", heavy.Mean, testN)
	}
}

func TestFig7aShape(t *testing.T) {
	r := rowByID(t, "fig7a")
	r.steps, r.max = 4, 0.75
	res := runTest(t, r)
	meas := seriesOf(t, res, "Average Convergence Factor")
	bound := seriesOf(t, res, "Theoretical Upper Bound")
	// Monotone degradation with Pd, always at or below the bound (small
	// statistical slack).
	for i := 1; i < len(meas.Points); i++ {
		if meas.Points[i].Mean <= meas.Points[i-1].Mean-0.02 {
			t.Errorf("factor not increasing at Pd=%g", meas.Points[i].X)
		}
	}
	for i, p := range meas.Points {
		if p.Mean > bound.Points[i].Mean+0.04 {
			t.Errorf("Pd=%g: measured %.3f above bound %.3f", p.X, p.Mean, bound.Points[i].Mean)
		}
	}
}

func TestFig7bShape(t *testing.T) {
	r := rowByID(t, "fig7b")
	r.steps = 3
	res := runTest(t, r)
	maxS := seriesOf(t, res, "Max values")
	minS := seriesOf(t, res, "Min values")
	// No loss: both envelopes ≈ N. Half the messages lost: spread over
	// at least an order of magnitude (paper: "several orders").
	if math.Abs(maxS.Points[0].Mean-testN)/testN > 0.02 {
		t.Errorf("loss-free max %g", maxS.Points[0].Mean)
	}
	lastMax, lastMin := maxS.Points[len(maxS.Points)-1], minS.Points[len(minS.Points)-1]
	if lastMin.Reps > 0 && lastMax.Reps > 0 && lastMax.Mean/lastMin.Mean < 10 {
		t.Errorf("at 50%% loss max/min = %.1f, want ≥ 10", lastMax.Mean/lastMin.Mean)
	}
}

func TestFig8TightensWithInstances(t *testing.T) {
	r := rowByID(t, "fig8b")
	r.axis = list(1, 20)
	res := runTest(t, r)
	maxS := seriesOf(t, res, "Max")
	minS := seriesOf(t, res, "Min")
	spread := func(i int) float64 {
		if minS.Points[i].Mean <= 0 {
			return math.Inf(1)
		}
		return maxS.Points[i].Mean / minS.Points[i].Mean
	}
	if spread(1) >= spread(0) {
		t.Errorf("t=20 spread %.2f not tighter than t=1 spread %.2f", spread(1), spread(0))
	}
	// With 20 instances the envelopes should be within ~50% of N.
	n := float64(testN)
	if maxS.Points[1].Mean > 1.5*n || minS.Points[1].Mean < 0.5*n {
		t.Errorf("t=20 envelopes [%g, %g] too loose around %g",
			minS.Points[1].Mean, maxS.Points[1].Mean, n)
	}
}

func TestFig8aChurn(t *testing.T) {
	r := rowByID(t, "fig8a") // churn testN/100 per cycle: the paper's 1%
	r.axis = list(10)
	res := runTest(t, r)
	maxS := seriesOf(t, res, "Max")
	minS := seriesOf(t, res, "Min")
	n := float64(testN)
	if maxS.Points[0].Mean > 1.5*n || minS.Points[0].Mean < 0.6*n {
		t.Errorf("churned t=10 envelopes [%g, %g] around %g",
			minS.Points[0].Mean, maxS.Points[0].Mean, n)
	}
}

func TestResultFormatting(t *testing.T) {
	res := &Result{
		ID: "figX", Title: "Test", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "s", Points: []Point{{X: 1, Mean: 2, Min: 1.5, Max: 2.5, Reps: 3}}}},
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	csv := sb.String()
	if !strings.Contains(csv, "figure,series,x,mean,min,max,reps") ||
		!strings.Contains(csv, "figX,s,1,2,1.5,2.5,3") {
		t.Errorf("CSV output wrong:\n%s", csv)
	}
	text := res.String()
	if !strings.Contains(text, "figX") || !strings.Contains(text, "[s]") {
		t.Errorf("text output wrong:\n%s", text)
	}
	if _, err := res.SeriesByLabel("missing"); err == nil {
		t.Error("missing series lookup succeeded")
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	wantIDs := []string{
		"ablation-combiner", "ablation-peer-selection", "ablation-pushpull",
		"advbias-inject-extreme", "advbias-sybil-flood",
		"extension-adaptivity", "extension-countchain", "extension-minmax",
		"fig2", "fig3a", "fig3b", "fig4a", "fig4b", "fig5",
		"fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b",
		"scenario-partition-heal", "scenario-steady-churn",
	}
	if len(reg) != len(wantIDs) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(wantIDs))
	}
	for i, want := range wantIDs {
		if reg[i].ID != want {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, want)
		}
		if reg[i].Description == "" || reg[i].Run == nil {
			t.Errorf("registry entry %s incomplete", reg[i].ID)
		}
	}
	if _, err := Lookup("fig2"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown lookup succeeded")
	}
}

// rejects names, for every registered row, Options the row must refuse:
// a network below its floor, or one repetition for fig5's variance.
var rejects = map[string]Options{
	"fig2": {N: 1}, "fig3a": {N: 99}, "fig3b": {N: 9}, "fig4a": {N: 9}, "fig4b": {N: 9},
	"fig5": {N: 300, Reps: 1}, "fig6a": {N: 9}, "fig6b": {N: 9}, "fig7a": {N: 9},
	"fig7b": {N: 9}, "fig8a": {N: 9}, "fig8b": {N: 9},
	"extension-adaptivity": {N: 9}, "extension-countchain": {N: 9}, "extension-minmax": {N: 9},
	"scenario-steady-churn": {N: 1}, "scenario-partition-heal": {N: 1},
	"advbias-inject-extreme": {N: 1}, "advbias-sybil-flood": {N: 1},
	"ablation-pushpull": {N: 9}, "ablation-combiner": {N: 9}, "ablation-peer-selection": {N: 9},
}

// checkRejects runs every registered row whose ID has the given prefix
// (or lacks it, if !has) with its rejects entry.
func checkRejects(t *testing.T, prefix string, has bool) {
	for _, r := range Registry() {
		if strings.HasPrefix(r.ID, prefix) != has {
			continue
		}
		o, ok := rejects[r.ID]
		if !ok {
			t.Errorf("%s: no invalid-options case", r.ID)
			continue
		}
		if _, err := r.Run(o); err == nil {
			t.Errorf("%s accepted %+v", r.ID, o)
		}
	}
}

func TestConfigValidationErrors(t *testing.T) {
	checkRejects(t, "extension-", false)
}

// TestRegistryRunsEveryRow drives every registered row through
// Runner.Run, the path cmd/aggsim takes, at K = 1 and K = 4.
func TestRegistryRunsEveryRow(t *testing.T) {
	for _, k := range []int{1, 4} {
		engine := EngineSerial
		if k > 1 {
			engine = EngineSharded
		}
		for _, r := range Registry() {
			t.Run(fmt.Sprintf("%s/K=%d", r.ID, k), func(t *testing.T) {
				t.Parallel()
				res, err := r.Run(Options{N: 300, Reps: 2, Engine: engine, Shards: k})
				if err != nil {
					t.Fatal(err)
				}
				if res.ID != r.ID || res.Engine != engine || len(res.Series) == 0 {
					t.Fatalf("result %q on %q with %d series", res.ID, res.Engine, len(res.Series))
				}
				for _, s := range res.Series {
					if len(s.Points) == 0 {
						t.Errorf("series %q is empty", s.Label)
					}
					// Only a point whose every repetition diverged
					// (fig6a's death at cycle 1, here) may read NaN.
					for _, p := range s.Points {
						if math.IsInf(p.Mean, 0) || math.IsNaN(p.Mean) && p.Reps > 0 {
							t.Errorf("series %q at x=%g: mean %g over %d repetitions", s.Label, p.X, p.Mean, p.Reps)
						}
					}
				}
			})
		}
	}
}

// TestCSVOneHeaderPerStream writes two results the way cmd/aggsim -exp
// all does and reads them back as one CSV table.
func TestCSVOneHeaderPerStream(t *testing.T) {
	pt := []Point{{X: 1, Mean: 2, Min: 1, Max: 3, Reps: 2}}
	a := &Result{ID: "a", Series: []Series{{Label: "s", Points: pt}}}
	b := &Result{ID: "b", Series: []Series{{Label: "s", Points: pt}, {Label: "u", Points: pt}}}
	var sb strings.Builder
	if err := a.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSVRows(&sb); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || strings.Join(recs[0], ",") != csvHeader {
		t.Fatalf("want a header and 3 rows, got %q", recs)
	}
	for _, rec := range recs[1:] {
		if _, err := strconv.ParseFloat(rec[3], 64); err != nil {
			t.Errorf("row %q: %v", rec, err)
		}
	}
}

func TestLogGrid(t *testing.T) {
	got := logGrid(100, 10000)
	want := []int{100, 300, 1000, 3000, 10000}
	if len(got) != len(want) {
		t.Fatalf("logGrid = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logGrid = %v, want %v", got, want)
		}
	}
}

func TestLeadersForDistinct(t *testing.T) {
	leaders := leadersFor(100, 50, 7)
	seen := map[int]bool{}
	for _, l := range leaders {
		if l < 0 || l >= 100 || seen[l] {
			t.Fatalf("bad leader set %v", leaders)
		}
		seen[l] = true
	}
}
