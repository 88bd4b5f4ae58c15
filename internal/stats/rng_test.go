package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("streams diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 outputs", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded generator produced duplicates: %d distinct of 100", len(seen))
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// The child's stream must differ from the parent's subsequent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and child streams collided %d times", same)
	}
}

func TestStreamRNGStability(t *testing.T) {
	// Stream s of seed is a pure function of (seed, s): re-deriving it
	// must reproduce the stream bit-for-bit.
	a := NewStreamRNG(42, 3)
	b := NewStreamRNG(42, 3)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream re-derivation diverged at step %d", i)
		}
	}
}

func TestStreamRNGIndependence(t *testing.T) {
	// Distinct streams of one seed, the same stream across seeds, and the
	// root generator itself must all produce disjoint output prefixes.
	gens := []*RNG{
		NewRNG(11),
		NewStreamRNG(11, 0),
		NewStreamRNG(11, 1),
		NewStreamRNG(11, 2),
		NewStreamRNG(12, 0),
	}
	seen := make(map[uint64][]int)
	for g, r := range gens {
		for i := 0; i < 200; i++ {
			v := r.Uint64()
			if prior := seen[v]; len(prior) > 0 {
				t.Fatalf("generators %v and %d emitted identical value %d", prior, g, v)
			}
			seen[v] = append(seen[v], g)
		}
	}
}

func TestStreamRNGUniformity(t *testing.T) {
	// Stream generators must still look uniform: the mean of many
	// Float64 draws concentrates around 1/2.
	for stream := uint64(0); stream < 4; stream++ {
		r := NewStreamRNG(5, stream)
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += r.Float64()
		}
		if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
			t.Fatalf("stream %d mean %g, want ~0.5", stream, mean)
		}
	}
}

func TestRNGSplitDeterminism(t *testing.T) {
	c1 := NewRNG(9).Split()
	c2 := NewRNG(9).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	if err := quick.Check(func(raw uint16) bool {
		n := int(raw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIntnGolden pins Intn's outputs to values recorded from the
// hand-rolled 128-bit product it used before math/bits.Mul64: the first
// draw at each bound, then a fold of a thousand more. The bounds near
// 2⁶² and 3·2⁶¹ reject a quarter of their words, so the rejection loop
// runs, which the word count below checks.
func TestIntnGolden(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 30, 1000, 20000, 1 << 31, 1<<62 + 1, 3 << 61, 1<<63 - 1}
	for _, g := range []struct {
		seed  uint64
		first []int
		fold  uint64
	}{
		{seed: 0x1, first: []int{0, 1, 0, 5, 5, 590, 19737, 1124029156, 619320757017230085, 6366759041830352475, 3168237733809651673}, fold: 0x7c15a9827fdc1647},
		{seed: 0x2a, first: []int{0, 0, 2, 4, 23, 588, 2507, 1299490563, 957926376162554673, 6456455779173252175, 5160840725889760416}, fold: 0x848d7898d0c9a5ee},
		{seed: 0xdeadbeef, first: []int{0, 0, 2, 2, 26, 263, 10235, 1408720901, 1142973665063031890, 345729576296757445, 1229080057287007830}, fold: 0x6b2f3cf089e2c729},
	} {
		r := NewRNG(g.seed)
		var first []int
		for _, n := range bounds {
			first = append(first, r.Intn(n))
		}
		if !slices.Equal(first, g.first) {
			t.Errorf("seed %#x: first draws %v, want %v", g.seed, first, g.first)
		}
		var fold uint64
		words := 0 // consumed by the thousand draws at 3·2⁶¹
		for _, n := range bounds {
			twin := *r
			for k := 0; k < 1000; k++ {
				fold = fold*31 + uint64(r.Intn(n))
			}
			for ; n == 3<<61 && twin != *r; words++ {
				twin.Uint64()
			}
		}
		if fold != g.fold {
			t.Errorf("seed %#x: fold %#x, want %#x", g.seed, fold, g.fold)
		}
		if words <= 1000 {
			t.Errorf("seed %#x: a thousand draws at 3·2⁶¹ took %d words: the rejection loop never ran", g.seed, words)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("value %d drawn %d times, expected ~%.0f", v, c, expected)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestBoolEdgeCases(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(17)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %.4f, want ~0.30", got)
	}
}

func TestPoissonMoments(t *testing.T) {
	tests := []struct {
		lambda float64
	}{{0.5}, {1}, {4}, {10}}
	for _, tc := range tests {
		r := NewRNG(23)
		var m Moments
		for i := 0; i < 50000; i++ {
			m.Add(float64(r.Poisson(tc.lambda)))
		}
		if math.Abs(m.Mean()-tc.lambda) > 0.1*tc.lambda+0.05 {
			t.Errorf("Poisson(%g): mean %.3f", tc.lambda, m.Mean())
		}
		if math.Abs(m.Variance()-tc.lambda) > 0.15*tc.lambda+0.1 {
			t.Errorf("Poisson(%g): variance %.3f", tc.lambda, m.Variance())
		}
	}
}

func TestPoissonNonPositiveLambda(t *testing.T) {
	r := NewRNG(1)
	if got := r.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d", got)
	}
	if got := r.Poisson(-3); got != 0 {
		t.Fatalf("Poisson(-3) = %d", got)
	}
}

func TestPoissonLargeLambda(t *testing.T) {
	r := NewRNG(29)
	var m Moments
	for i := 0; i < 20000; i++ {
		v := r.Poisson(100)
		if v < 0 {
			t.Fatal("negative Poisson variate")
		}
		m.Add(float64(v))
	}
	if math.Abs(m.Mean()-100) > 2 {
		t.Fatalf("Poisson(100) mean %.2f", m.Mean())
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(31)
	var m Moments
	for i := 0; i < 100000; i++ {
		m.Add(r.NormFloat64())
	}
	if math.Abs(m.Mean()) > 0.02 {
		t.Fatalf("normal mean %.4f", m.Mean())
	}
	if math.Abs(m.Variance()-1) > 0.03 {
		t.Fatalf("normal variance %.4f", m.Variance())
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	p := make([]int, 257)
	r.Perm(p)
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			t.Fatalf("invalid permutation value %d", v)
		}
		seen[v] = true
	}
}

func TestPermShufflesUniformly(t *testing.T) {
	// Over many draws, element 0 should land in each slot about equally.
	r := NewRNG(37)
	const n, draws = 5, 50000
	counts := make([]int, n)
	p := make([]int, n)
	for i := 0; i < draws; i++ {
		r.Perm(p)
		for pos, v := range p {
			if v == 0 {
				counts[pos]++
			}
		}
	}
	expected := float64(draws) / n
	for pos, c := range counts {
		if math.Abs(float64(c)-expected) > 6*math.Sqrt(expected) {
			t.Errorf("element 0 in slot %d: %d draws, expected ~%.0f", pos, c, expected)
		}
	}
}

func TestSampleDistinctAndExcluded(t *testing.T) {
	r := NewRNG(41)
	dst := make([]int, 10)
	for trial := 0; trial < 100; trial++ {
		r.Sample(dst, 50, func(v int) bool { return v == 7 })
		seen := make(map[int]bool)
		for _, v := range dst {
			if v == 7 {
				t.Fatal("excluded value sampled")
			}
			if v < 0 || v >= 50 {
				t.Fatalf("out-of-range sample %d", v)
			}
			if seen[v] {
				t.Fatalf("duplicate sample %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleNilExclusion(t *testing.T) {
	r := NewRNG(43)
	dst := make([]int, 3)
	r.Sample(dst, 3, nil)
	seen := map[int]bool{dst[0]: true, dst[1]: true, dst[2]: true}
	if len(seen) != 3 {
		t.Fatalf("Sample with n == len(dst) must be a permutation, got %v", dst)
	}
}

// TestSampleScanAndSetAgree pins that the allocation-free short path and
// the set path make the same draws: a long sample's first values are what
// a short sample from the same generator state reads, and the short path
// allocates nothing.
func TestSampleScanAndSetAgree(t *testing.T) {
	short := make([]int, sampleScanMax)
	long := make([]int, sampleScanMax+1)
	skip := func(v int) bool { return v%5 == 0 }
	for seed := uint64(1); seed <= 20; seed++ {
		NewRNG(seed).Sample(short, 100, skip)
		NewRNG(seed).Sample(long, 100, skip)
		if !slices.Equal(short, long[:len(short)]) {
			t.Fatalf("seed %d: scan path drew %v, set path %v", seed, short, long[:len(short)])
		}
	}
	r := NewRNG(7)
	dst := make([]int, 30)
	if a := testing.AllocsPerRun(100, func() { r.Sample(dst, 20000, nil) }); a != 0 {
		t.Fatalf("Sample of 30 allocates %v times, want 0", a)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkRNGIntn(b *testing.B) {
	r := NewRNG(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}
