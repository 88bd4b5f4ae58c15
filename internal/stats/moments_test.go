package stats

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMomentsAgainstNaive(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		mean float64
		vari float64
	}{
		{"pair", []float64{2, 4}, 3, 2},
		{"constant", []float64{5, 5, 5, 5}, 5, 0},
		{"integers", []float64{1, 2, 3, 4, 5}, 3, 2.5},
		{"negatives", []float64{-3, 0, 3}, 0, 9},
		{"peak", []float64{100, 0, 0, 0}, 25, 2500},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var m Moments
			m.AddAll(tc.xs)
			if !almostEqual(m.Mean(), tc.mean, 1e-12) {
				t.Errorf("mean = %g, want %g", m.Mean(), tc.mean)
			}
			if !almostEqual(m.Variance(), tc.vari, 1e-9) {
				t.Errorf("variance = %g, want %g", m.Variance(), tc.vari)
			}
			if m.N() != len(tc.xs) {
				t.Errorf("n = %d, want %d", m.N(), len(tc.xs))
			}
		})
	}
}

func TestMomentsMinMax(t *testing.T) {
	var m Moments
	m.AddAll([]float64{3, -1, 7, 0})
	if m.Min() != -1 || m.Max() != 7 {
		t.Fatalf("min/max = %g/%g, want -1/7", m.Min(), m.Max())
	}
}

func TestMomentsFewObservations(t *testing.T) {
	var m Moments
	if m.Variance() != 0 || m.Mean() != 0 || m.N() != 0 {
		t.Fatal("zero-value accumulator should report zeros")
	}
	m.Add(42)
	if m.Variance() != 0 {
		t.Fatal("single observation has zero variance")
	}
	if m.Mean() != 42 {
		t.Fatalf("mean = %g", m.Mean())
	}
}

func TestMomentsNumericalStability(t *testing.T) {
	// Welford must survive a large common offset that would destroy the
	// naive sum-of-squares formula.
	var m Moments
	offset := 1e12
	for _, x := range []float64{1, 2, 3, 4, 5} {
		m.Add(x + offset)
	}
	if !almostEqual(m.Variance(), 2.5, 1e-3) {
		t.Fatalf("variance with offset = %g, want 2.5", m.Variance())
	}
}

func TestMomentsMatchesPaperEquation1(t *testing.T) {
	// Equation (1): unbiased variance with denominator N−1 over the peak
	// distribution used throughout the paper: one node at N, rest 0.
	n := 1000
	var m Moments
	m.Add(float64(n))
	for i := 1; i < n; i++ {
		m.Add(0)
	}
	mean := m.Mean()
	if !almostEqual(mean, 1, 1e-12) {
		t.Fatalf("peak mean = %g, want 1", mean)
	}
	// σ²₀ = (1/(N−1))·((N−1)²·1 + (N−1)·1) = N
	want := float64(n)
	if !almostEqual(m.Variance(), want, 1e-6) {
		t.Fatalf("peak variance = %g, want %g", m.Variance(), want)
	}
}

func TestPopVariance(t *testing.T) {
	var m Moments
	m.AddAll([]float64{2, 4})
	if !almostEqual(m.PopVariance(), 1, 1e-12) {
		t.Fatalf("population variance = %g, want 1", m.PopVariance())
	}
}

func TestEmptyErrors(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Error("Mean(nil) should return ErrEmpty")
	}
	if _, err := Variance(nil); !errors.Is(err, ErrEmpty) {
		t.Error("Variance(nil) should return ErrEmpty")
	}
	if _, _, err := MinMax(nil); !errors.Is(err, ErrEmpty) {
		t.Error("MinMax(nil) should return ErrEmpty")
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Error("Quantile(nil) should return ErrEmpty")
	}
	if _, err := TrimmedMean(nil, 3); !errors.Is(err, ErrEmpty) {
		t.Error("TrimmedMean(nil) should return ErrEmpty")
	}
	if _, err := GeometricMean(nil); !errors.Is(err, ErrEmpty) {
		t.Error("GeometricMean(nil) should return ErrEmpty")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {1.0 / 3, 2},
	}
	for _, tc := range tests {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatalf("Quantile(%g): %v", tc.q, err)
		}
		if !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileRangeError(t *testing.T) {
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("negative quantile accepted")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("quantile > 1 accepted")
	}
}

func TestMedian(t *testing.T) {
	got, err := Median([]float64{9, 1, 5})
	if err != nil || got != 5 {
		t.Fatalf("Median = %g, %v; want 5", got, err)
	}
}

func TestTrimmedMeanPaperCombiner(t *testing.T) {
	// §7.3: with t estimates, drop ⌊t/3⌋ lowest and ⌊t/3⌋ highest.
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		// t=6: drop 2 lowest (1,2) and 2 highest (100, 1000) -> mean(3,4)
		{"six", []float64{1000, 1, 3, 100, 2, 4}, 3.5},
		// t=3: drop 1 low, 1 high -> middle value
		{"three", []float64{10, 1, 5}, 5},
		// t=2: drop nothing (⌊2/3⌋=0) -> plain mean
		{"two", []float64{1, 3}, 2},
		// t=1
		{"one", []float64{7}, 7},
		// outlier robustness: huge outlier removed entirely
		{"outlier", []float64{1e9, 100, 101, 99, 100, 1}, 100},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := TrimmedMean(tc.xs, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tc.want, 1e-9) {
				t.Errorf("TrimmedMean = %g, want %g", got, tc.want)
			}
		})
	}
}

func TestTrimmedMeanDegenerateTrim(t *testing.T) {
	// k=1 would discard everything; must fall back to the plain mean.
	got, err := TrimmedMean([]float64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 2, 1e-12) {
		t.Fatalf("TrimmedMean fallback = %g, want 2", got)
	}
}

func TestTrimmedMeanBadDivisor(t *testing.T) {
	if _, err := TrimmedMean([]float64{1}, 0); err == nil {
		t.Error("divisor 0 accepted")
	}
}

func TestTrimmedMeanBoundsProperty(t *testing.T) {
	// The trimmed mean always lies within [min, max] of the input.
	if err := quick.Check(func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// Tame magnitudes to avoid float overflow in sums.
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		tm, err := TrimmedMean(xs, 3)
		if err != nil {
			return false
		}
		lo, hi, _ := MinMax(xs)
		return tm >= lo-1e-9 && tm <= hi+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricMean(t *testing.T) {
	got, err := GeometricMean([]float64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 4, 1e-9) {
		t.Fatalf("GeometricMean(2,8) = %g, want 4", got)
	}
	if _, err := GeometricMean([]float64{1, -1}); err == nil {
		t.Error("negative input accepted")
	}
	if _, err := GeometricMean([]float64{0}); err == nil {
		t.Error("zero input accepted")
	}
}

func TestMeanVarianceHelpers(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3})
	if err != nil || m != 2 {
		t.Fatalf("Mean = %g, %v", m, err)
	}
	v, err := Variance([]float64{1, 2, 3})
	if err != nil || !almostEqual(v, 1, 1e-12) {
		t.Fatalf("Variance = %g, %v", v, err)
	}
	lo, hi, err := MinMax([]float64{3, 1, 2})
	if err != nil || lo != 1 || hi != 3 {
		t.Fatalf("MinMax = %g, %g, %v", lo, hi, err)
	}
}

// TestMomentsMergeMatchesSinglePass: merging the accumulators of any
// partition of a sample — empty and single-element parts included —
// equals adding the whole sample to one accumulator. The last case is the
// converged-fleet regime (spread 1e-9 around mean 50) where combining raw
// sums Σx, Σx² across parts reads a standard deviation of 0 or 1e-6; there
// a running mean near 50 resolves to 7e-15, five digits below the spread,
// so two stable summation orders agree on the variance to 1e-4, not 1e-12.
func TestMomentsMergeMatchesSinglePass(t *testing.T) {
	relClose := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol*math.Abs(want)
	}
	rng := NewRNG(11)
	for _, tc := range []struct {
		name        string
		mean, sigma float64
		varTol      float64
	}{
		{"unit", 0, 1, 1e-12},
		{"wide", -3e6, 1e4, 1e-12},
		{"converged", 50, 1e-9, 1e-4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 200; trial++ {
				xs := make([]float64, 1+rng.Intn(64))
				var whole Moments
				for i := range xs {
					xs[i] = tc.mean + tc.sigma*(2*rng.Float64()-1)
					whole.Add(xs[i])
				}
				parts := make([]Moments, 1+rng.Intn(8))
				for _, x := range xs {
					parts[rng.Intn(len(parts))].Add(x)
				}
				var merged Moments
				for _, p := range parts {
					merged.Merge(p)
				}
				if merged.N() != whole.N() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
					t.Fatalf("trial %d: merged n/min/max = %d/%g/%g, want %d/%g/%g", trial,
						merged.N(), merged.Min(), merged.Max(), whole.N(), whole.Min(), whole.Max())
				}
				if !relClose(merged.Mean(), whole.Mean(), 1e-12) {
					t.Fatalf("trial %d: merged mean %g, single-pass %g", trial, merged.Mean(), whole.Mean())
				}
				if !relClose(merged.Variance(), whole.Variance(), tc.varTol) {
					t.Fatalf("trial %d (%d values, %d parts): merged variance %g, single-pass %g",
						trial, len(xs), len(parts), merged.Variance(), whole.Variance())
				}
			}
		})
	}
}

// TestMomentsJSONRoundTrip: the transport form restores the accumulator
// exactly, so a decoded partial merges like the original.
func TestMomentsJSONRoundTrip(t *testing.T) {
	var m Moments
	m.AddAll([]float64{49.5, 49.5000001, 51, -2})
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Moments
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Fatalf("round trip %s gave %+v, want %+v", data, back, m)
	}
	if err := json.Unmarshal([]byte(`{"n":-1}`), &back); err == nil {
		t.Fatal("negative count accepted")
	}
}
