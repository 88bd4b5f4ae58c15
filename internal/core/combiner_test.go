package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"antientropy/internal/race"
)

func TestCombinerByName(t *testing.T) {
	for _, name := range CombinerNames() {
		min, max := 0.0, 0.0
		if name == CombinerClampedMean {
			min, max = -1, 1
		}
		c, err := CombinerByName(name, min, max)
		if err != nil {
			t.Fatalf("CombinerByName(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("CombinerByName(%q).Name() = %q", name, c.Name())
		}
	}
	if _, err := CombinerByName("vibes", 0, 0); err == nil {
		t.Fatal("unknown combiner accepted")
	}
	if _, err := CombinerByName(CombinerClampedMean, 5, 5); err == nil {
		t.Fatal("clamped-mean accepted an empty range")
	}
	if _, err := CombinerByName(CombinerClampedMean, math.Inf(-1), 0); err == nil {
		t.Fatal("clamped-mean accepted a non-finite bound")
	}
}

// TestMeanPairBitCompat pins the honest-path compatibility contract: the
// Mean combiner over exactly {local, peer} must be bit-identical to the
// classical (local+peer)/2 push-pull step — it is what every engine runs
// when no defense is configured.
func TestMeanPairBitCompat(t *testing.T) {
	if err := quick.Check(func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		return Mean{}.Combine([]float64{a, b}) == (a+b)/2
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMedianWithinHonestRangeProperty is the median's breakdown
// guarantee: with a minority of arbitrarily corrupted samples, the
// median stays inside the honest sample range.
func TestMedianWithinHonestRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		k := 3 + rng.Intn(8) // 3..10 samples
		bad := (k+1)/2 - 1   // strict minority: ceil(k/2)-1 corrupted
		honest := make([]float64, 0, k)
		samples := make([]float64, 0, k)
		for i := 0; i < k-bad; i++ {
			v := rng.NormFloat64() * 100
			honest = append(honest, v)
			samples = append(samples, v)
		}
		for i := 0; i < bad; i++ {
			v := (rng.Float64() - 0.5) * 1e15 // arbitrary extremes, both signs
			samples = append(samples, v)
		}
		rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		got := MedianOfK{}.Combine(samples)
		lo, hi := honest[0], honest[0]
		for _, v := range honest {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		if got < lo || got > hi {
			t.Fatalf("trial %d: median %g escaped honest range [%g, %g] with %d/%d corrupted",
				trial, got, lo, hi, bad, k)
		}
	}
}

// TestMedianOfKOrderStatistics pins the even/odd central-element rule
// and input-order independence.
func TestMedianOfKOrderStatistics(t *testing.T) {
	if got := (MedianOfK{}).Combine([]float64{5, 1, 9}); got != 5 {
		t.Fatalf("odd median = %g, want 5", got)
	}
	if got := (MedianOfK{}).Combine([]float64{9, 1, 5, 3}); got != 4 {
		t.Fatalf("even median = %g, want 4", got)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		b := append([]float64(nil), a...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		if (MedianOfK{}).Combine(a) != (MedianOfK{}).Combine(b) {
			t.Fatal("median depends on sample order")
		}
	}
}

// TestCombinersDiscardNonFinite: NaN/Inf peer reports are dropped before
// combining, and an all-garbage sample set combines to 0 rather than
// propagating NaN into the estimate.
func TestCombinersDiscardNonFinite(t *testing.T) {
	garbage := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	combiners := []Combiner{Mean{}, ClampedMean{Min: -100, Max: 100}, MedianOfK{}, TrimmedMean{}}
	for _, c := range combiners {
		if got := c.Combine(garbage); got != 0 {
			t.Fatalf("%s over garbage = %g, want 0", c.Name(), got)
		}
		mixed := []float64{math.NaN(), 4, math.Inf(1), 6}
		if got := c.Combine(mixed); got != 5 {
			t.Fatalf("%s over {NaN,4,+Inf,6} = %g, want 5", c.Name(), got)
		}
	}
}

func TestClampedMeanBoundsContribution(t *testing.T) {
	c := ClampedMean{Min: -10, Max: 10}
	if got := c.Combine([]float64{1e12, 0}); got != 5 {
		t.Fatalf("clamped mean = %g, want 5 (extreme clamped to 10)", got)
	}
	if err := quick.Check(func(xs []float64) bool {
		got := c.Combine(xs)
		return got >= c.Min-1e-12 && got <= c.Max+1e-12 || got == 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrimmedMeanMatchesHistoricalCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 50
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		want, err := Combine(sorted)
		if err != nil {
			t.Fatal(err)
		}
		got := (TrimmedMean{}).Combine(xs)
		if !almostEqual(got, want, 1e-9*(math.Abs(want)+1)) {
			t.Fatalf("trial %d: TrimmedMean = %g, historical Combine = %g", trial, got, want)
		}
	}
}

// TestMergeGuardMeanBitCompat: a Mean guard with the minimal window is
// the classical push-pull step, bit for bit — turning the guard on
// without a defense must not change honest runs.
func TestMergeGuardMeanBitCompat(t *testing.T) {
	g := NewMergeGuard(Mean{}, 2, 4)
	if err := quick.Check(func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		return g.Merge(1, a, b) == (a+b)/2
	}, nil); err != nil {
		t.Fatal(err)
	}
	if g.Rejected() != 0 {
		t.Fatalf("honest merges rejected: %d", g.Rejected())
	}
}

// TestMergeGuardWindowVotes: with a median guard and window k, one
// extreme peer sample after a run of honest ones is outvoted.
func TestMergeGuardWindowVotes(t *testing.T) {
	g := NewMergeGuard(MedianOfK{}, 5, 1)
	for i := 0; i < 4; i++ {
		g.Merge(0, 10, 10)
	}
	if got := g.Merge(0, 10, 1e12); got != 10 {
		t.Fatalf("median guard let the extreme through: %g", got)
	}
	if g.Merges() != 5 {
		t.Fatalf("merges = %d, want 5", g.Merges())
	}
}

// TestMergeGuardResetDropsWindow: epoch restarts must clear the sample
// windows — samples gathered under the previous epoch's value
// assignment must not vote in the next.
func TestMergeGuardResetDropsWindow(t *testing.T) {
	g := NewMergeGuard(MedianOfK{}, 5, 2)
	for i := 0; i < 4; i++ {
		g.Merge(0, 10, 10)
		g.Merge(1, 10, 10)
	}
	g.ResetNode(0)
	// Node 0's window is empty: {local, peer} median is the pair mean.
	if got := g.Merge(0, 0, 8); got != 4 {
		t.Fatalf("after ResetNode, merge = %g, want 4", got)
	}
	g.ResetAll()
	if got := g.Merge(1, 0, 8); got != 4 {
		t.Fatalf("after ResetAll, merge = %g, want 4", got)
	}
}

// TestMergeGuardRejectsGarbageAndCounts: non-finite peers are rejected
// outright (the local value survives) and counted.
func TestMergeGuardRejectsGarbageAndCounts(t *testing.T) {
	g := NewMergeGuard(Mean{}, 2, 1)
	if got := g.Merge(0, 7, math.NaN()); got != 7 {
		t.Fatalf("NaN peer changed the estimate: %g", got)
	}
	if got := g.Merge(0, 7, math.Inf(1)); got != 7 {
		t.Fatalf("Inf peer changed the estimate: %g", got)
	}
	if g.Rejected() != 2 {
		t.Fatalf("rejected = %d, want 2", g.Rejected())
	}
	cg := NewMergeGuard(ClampedMean{Min: -1, Max: 1}, 2, 1)
	cg.Merge(0, 0, 50) // clamped, counts as a rejection
	if cg.Rejected() != 1 {
		t.Fatalf("clamp rejections = %d, want 1", cg.Rejected())
	}
}

// opaque hides a combiner's type from MergeGuard, so its merges take the
// path for a combiner the guard does not know.
type opaque struct{ Combiner }

// referenceMerge is MergeGuard.Merge as first written: the samples in a
// fresh slice, combined through the interface.
func referenceMerge(c Combiner, k int, win *[]float64, local, peer float64) float64 {
	samples := []float64{local}
	if math.IsNaN(peer) || math.IsInf(peer, 0) {
		if len(*win) == 0 {
			return local
		}
		return c.Combine(append(samples, *win...))
	}
	out := c.Combine(append(append(samples, peer), *win...))
	if k > 2 {
		if len(*win) >= k-2 {
			*win = (*win)[1:]
		}
		*win = append(*win, peer)
	}
	return out
}

// TestMergeGuardMatchesReference: the stack-buffered merge returns the
// reference's value bit for bit — every shipped combiner, one the guard
// cannot see into, windows on both sides of the stack buffer, non-finite
// peers mixed in.
func TestMergeGuardMatchesReference(t *testing.T) {
	combiners := []Combiner{
		Mean{}, ClampedMean{Min: -2, Max: 2}, MedianOfK{}, TrimmedMean{Divisor: TrimDivisor},
		opaque{MedianOfK{}},
	}
	for _, c := range combiners {
		for _, k := range []int{2, 3, DefaultMergeK, stackSamples, stackSamples + 1, 40} {
			rng := rand.New(rand.NewSource(int64(k)))
			g := NewMergeGuard(c, k, 1)
			var win []float64
			local, want := 0.5, 0.5
			for i := 0; i < 200; i++ {
				peer := rng.NormFloat64() * 3
				switch rng.Intn(12) {
				case 0:
					peer = math.NaN()
				case 1:
					peer = math.Inf(1)
				}
				local = g.Merge(0, local, peer)
				want = referenceMerge(c, k, &win, want, peer)
				if local != want {
					t.Fatalf("%s k=%d merge %d: got %v, reference %v", c.Name(), k, i, local, want)
				}
			}
		}
	}
}

// TestMergeGuardAllocs gates the defended merge next to the exchange
// path's other gates: with a window that fits the stack buffer, a merge
// allocates nothing, whichever shipped combiner screens it.
func TestMergeGuardAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, c := range []Combiner{Mean{}, ClampedMean{Min: -2, Max: 2}, MedianOfK{}, TrimmedMean{Divisor: TrimDivisor}} {
		for _, k := range []int{DefaultMergeK, stackSamples} {
			g := NewMergeGuard(c, k, 1)
			local := 0.0
			for i := 0; i < k; i++ { // fill the window
				local = g.Merge(0, local, float64(i))
			}
			if n := testing.AllocsPerRun(100, func() { local = g.Merge(0, local, local+1) }); n != 0 {
				t.Errorf("%s k=%d: Merge allocates %.1f times, want 0", c.Name(), k, n)
			}
		}
	}
}

// BenchmarkCombinerMedianOfK measures the per-merge cost of the
// outlier-rejection defense at the default window size — the hot path
// of every defended exchange.
func BenchmarkCombinerMedianOfK(b *testing.B) {
	g := NewMergeGuard(MedianOfK{}, DefaultMergeK, 1)
	rng := rand.New(rand.NewSource(1))
	peers := make([]float64, 1024)
	for i := range peers {
		peers[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = g.Merge(0, sink, peers[i&1023])
	}
	_ = sink
}
