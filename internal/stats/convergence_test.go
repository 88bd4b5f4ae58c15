package stats

import (
	"math"
	"testing"
)

// oneEpoch feeds variances as cycles 0, 1, … of one epoch into a window
// over cycles [from, to] and returns its factor.
func oneEpoch(from, to int, variances ...float64) (float64, bool) {
	w := RhoWindow{From: from, To: to}
	for c, v := range variances {
		w.Add(0, c, v)
	}
	return w.Factor()
}

func TestConvergenceTrackerFactors(t *testing.T) {
	vs := []float64{100, 25, 5} // cycle factors 0.25, then 0.2
	f1, ok := oneEpoch(0, 1, vs...)
	if !ok || !almostEqual(f1, 0.25, 1e-12) {
		t.Fatalf("factor over cycle 1 = %g, %v", f1, ok)
	}
	f2, ok := oneEpoch(1, 2, vs...)
	if !ok || !almostEqual(f2, 0.2, 1e-12) {
		t.Fatalf("factor over cycle 2 = %g, %v", f2, ok)
	}
	if f, ok := Rho(25, 5, 1); !ok || f != 0.2 {
		t.Fatalf("Rho(25, 5, 1) = %g, %v; want exactly 0.2", f, ok)
	}
}

func TestConvergenceTrackerAverageFactorIsGeometricMean(t *testing.T) {
	// Factors 0.5, 0.2, 0.5.
	avg, ok := oneEpoch(0, 3, 1, 0.5, 0.1, 0.05)
	if !ok {
		t.Fatal("no factor")
	}
	want := math.Pow(0.5*0.2*0.5, 1.0/3)
	if !almostEqual(avg, want, 1e-12) {
		t.Fatalf("average factor = %g, want %g", avg, want)
	}
	// One epoch reads exactly (v_last/v_0)^(1/last), bit for bit.
	vs := []float64{0.7, 0.31, 0.093, 0.0301, 0.0088}
	got, _ := oneEpoch(0, 4, vs...)
	if exact := math.Pow(vs[4]/vs[0], 1/float64(4)); got != exact {
		t.Fatalf("one epoch = %.17g, want exactly %.17g", got, exact)
	}
}

func TestConvergenceTrackerUnderflowHandling(t *testing.T) {
	// Once the variance underflows to exactly zero the average factor
	// must use the last positive cycle instead of reporting 0.
	avg, ok := oneEpoch(0, 2, 1, 0.25, 0)
	if !ok || !almostEqual(avg, 0.25, 1e-12) {
		t.Fatalf("average factor with underflow = %g, %v; want 0.25", avg, ok)
	}
}

func TestConvergenceTrackerZeroFromStart(t *testing.T) {
	avg, ok := oneEpoch(0, 2, 1, 0, 0)
	if !ok || avg != 0 {
		t.Fatalf("average factor = %g, %v; want 0 (instant convergence)", avg, ok)
	}
	// A window that opens on a zero variance has no rate to read.
	if f, ok := oneEpoch(1, 2, 1, 0, 0); ok {
		t.Fatalf("factor after zero variance = %g, want none", f)
	}
}

func TestConvergenceTrackerErrors(t *testing.T) {
	if _, ok := oneEpoch(0, 1); ok {
		t.Error("an empty window reported a factor")
	}
	if _, ok := oneEpoch(0, 1, 1); ok {
		t.Error("a window without its end sample reported a factor")
	}
	if _, ok := oneEpoch(0, 1, 0, 0); ok {
		t.Error("zero initial variance reported a factor")
	}
}

// TestRhoWindowPoolsEpochs: per epoch the window reads cycles From → To
// only, a new epoch number restarts it, an epoch that stops early or
// opens on no spread is left out, and the epochs' factors pool by their
// geometric mean — in the log domain, so a hundred epochs whose product
// underflows still pool.
func TestRhoWindowPoolsEpochs(t *testing.T) {
	w := RhoWindow{From: 2, To: 4}
	feed := func(epoch int, rho float64, last int) {
		for c := 1; c <= last; c++ {
			w.Add(epoch, c, math.Pow(rho, float64(c)))
		}
	}
	feed(0, 0.25, 6)
	feed(1, 0.36, 4)
	feed(2, 0.5, 3) // stops before To
	w.Add(3, 2, 0)  // no spread at From
	w.Add(3, 4, 1)
	if f := w.Factors(); len(f) != 2 || !almostEqual(f[0], 0.25, 1e-12) || !almostEqual(f[1], 0.36, 1e-12) {
		t.Fatalf("factors = %v, want [0.25 0.36]", f)
	}
	if got, ok := w.Factor(); !ok || !almostEqual(got, 0.3, 1e-12) {
		t.Fatalf("pooled = %g, %v; want 0.3", got, ok)
	}
	w.Add(4, 2, 1) // underflows at To: read from cycle 3
	w.Add(4, 3, 1e-2)
	w.Add(4, 4, 0)
	if got, ok := w.Factor(); !ok || !almostEqual(got, math.Pow(0.25*0.36*1e-2, 1.0/3), 1e-12) {
		t.Fatalf("pooled with an underflowing epoch = %g, %v", got, ok)
	}

	many := RhoWindow{From: 0, To: 1}
	for e := range 100 {
		many.Add(e, 0, 1)
		many.Add(e, 1, 1e-5)
	}
	if got, ok := many.Factor(); !ok || !almostEqual(got, 1e-5, 1e-15) {
		t.Fatalf("100 epochs pooled = %g, %v; want 1e-5", got, ok)
	}
	zero := RhoWindow{From: 0, To: 1}
	zero.Add(0, 0, 1)
	zero.Add(0, 1, 0.5)
	zero.Add(1, 0, 1)
	zero.Add(1, 1, 0)
	if got, ok := zero.Factor(); !ok || got != 0 {
		t.Fatalf("pooled with an instantly converged epoch = %g, %v; want 0", got, ok)
	}
}

func TestNormalizedReduction(t *testing.T) {
	got := NormalizedReduction([]float64{10, 5, 1})
	want := []float64{1, 0.5, 0.1}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("reduction[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if NormalizedReduction(nil) != nil {
		t.Error("no variances should return nil")
	}
}
