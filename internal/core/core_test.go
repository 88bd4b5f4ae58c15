package core

import (
	"math"
	"testing"
	"testing/quick"

	"antientropy/internal/race"
	"antientropy/internal/stats"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAverageUpdate(t *testing.T) {
	a, b := Average.Update(10, 0)
	if a != 5 || b != 5 {
		t.Fatalf("Average.Update(10,0) = %g,%g", a, b)
	}
}

func TestAverageConservesSumProperty(t *testing.T) {
	if err := quick.Check(func(x, y float64) bool {
		x, y = math.Mod(x, 1e9), math.Mod(y, 1e9)
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		nx, ny := Average.Update(x, y)
		return almostEqual(nx+ny, x+y, 1e-6*(math.Abs(x)+math.Abs(y)+1))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAverageReducesSpreadProperty(t *testing.T) {
	if err := quick.Check(func(x, y float64) bool {
		x, y = math.Mod(x, 1e9), math.Mod(y, 1e9)
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		nx, ny := Average.Update(x, y)
		return math.Abs(nx-ny) <= math.Abs(x-y)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxUpdate(t *testing.T) {
	tests := []struct {
		x, y float64
	}{{1, 2}, {-5, 3}, {7, 7}, {0, -1}}
	for _, tc := range tests {
		lo, lo2 := Min.Update(tc.x, tc.y)
		if lo != math.Min(tc.x, tc.y) || lo2 != lo {
			t.Errorf("Min.Update(%g,%g) = %g,%g", tc.x, tc.y, lo, lo2)
		}
		hi, hi2 := Max.Update(tc.x, tc.y)
		if hi != math.Max(tc.x, tc.y) || hi2 != hi {
			t.Errorf("Max.Update(%g,%g) = %g,%g", tc.x, tc.y, hi, hi2)
		}
	}
}

func TestMinMaxIdempotentProperty(t *testing.T) {
	// Applying the update twice must not change anything (epidemic
	// broadcast semantics).
	if err := quick.Check(func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		a1, b1 := Min.Update(x, y)
		a2, b2 := Min.Update(a1, b1)
		return a1 == a2 && b1 == b2
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricMeanUpdate(t *testing.T) {
	a, b := GeometricMean.Update(2, 8)
	if !almostEqual(a, 4, 1e-12) || !almostEqual(b, 4, 1e-12) {
		t.Fatalf("GeometricMean.Update(2,8) = %g,%g, want 4,4", a, b)
	}
}

func TestGeometricMeanConservesProductProperty(t *testing.T) {
	if err := quick.Check(func(rx, ry uint32) bool {
		// Positive, bounded inputs.
		x := 1 + float64(rx%100000)
		y := 1 + float64(ry%100000)
		nx, ny := GeometricMean.Update(x, y)
		return almostEqual(nx*ny, x*y, 1e-6*x*y)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionByName(t *testing.T) {
	for _, f := range Functions() {
		got, err := FunctionByName(f.Name)
		if err != nil {
			t.Errorf("FunctionByName(%q): %v", f.Name, err)
		}
		if got.Name != f.Name {
			t.Errorf("FunctionByName(%q) returned %q", f.Name, got.Name)
		}
	}
	if _, err := FunctionByName("mode"); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestFunctionString(t *testing.T) {
	if Average.String() != "average" {
		t.Fatalf("String = %q", Average.String())
	}
}

func TestSizeFromAverage(t *testing.T) {
	if got := SizeFromAverage(1.0 / 1000); !almostEqual(got, 1000, 1e-6) {
		t.Fatalf("SizeFromAverage = %g", got)
	}
	if !math.IsInf(SizeFromAverage(0), 1) {
		t.Error("zero average must give +Inf size")
	}
	if !math.IsInf(SizeFromAverage(-0.5), 1) {
		t.Error("negative average must give +Inf size")
	}
}

func TestDerivedAggregates(t *testing.T) {
	if got := SumFromAverage(2.5, 100); got != 250 {
		t.Fatalf("SumFromAverage = %g", got)
	}
	// Values {1,2,3}: mean 2, mean square 14/3, variance 14/3-4 = 2/3.
	if got := VarianceFromMoments(2, 14.0/3); !almostEqual(got, 2.0/3, 1e-12) {
		t.Fatalf("VarianceFromMoments = %g", got)
	}
	if got := VarianceFromMoments(2, 3.9); got != 0 {
		t.Fatalf("negative variance not clamped: %g", got)
	}
	// Values {2, 8}: gm = 4, product = 4² = 16.
	if got := ProductFromGeometricMean(4, 2); !almostEqual(got, 16, 1e-9) {
		t.Fatalf("ProductFromGeometricMean = %g", got)
	}
}

func TestMergeMatchedEntries(t *testing.T) {
	a := MapState{1: 0.4}
	b := MapState{1: 0.2}
	m := Merge(a, b)
	if !almostEqual(m[1], 0.3, 1e-12) {
		t.Fatalf("matched merge = %g, want 0.3", m[1])
	}
}

func TestMergeUnmatchedEntriesHalve(t *testing.T) {
	a := MapState{1: 0.8}
	b := MapState{2: 0.4}
	m := Merge(a, b)
	if !almostEqual(m[1], 0.4, 1e-12) || !almostEqual(m[2], 0.2, 1e-12) {
		t.Fatalf("unmatched merge = %v", m)
	}
	if len(m) != 2 {
		t.Fatalf("merged map has %d entries, want 2", len(m))
	}
}

func TestMergeConservesMassProperty(t *testing.T) {
	// Both peers install Merge(a, b); the total mass per leader across
	// the two nodes must be unchanged: 2·m[l] == a[l] + b[l].
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(av, bv []uint16) bool {
		a := MapState{}
		b := MapState{}
		for i, v := range av {
			a[LeaderID(i%8)] = float64(v) / 100
		}
		for i, v := range bv {
			b[LeaderID(i%8+4)] = float64(v) / 100
		}
		m := Merge(a, b)
		for l := LeaderID(0); l < 12; l++ {
			before := a[l] + b[l]
			after := 2 * m[l]
			if !almostEqual(before, after, 1e-9) {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMergeCommutativeProperty(t *testing.T) {
	if err := quick.Check(func(av, bv []uint16) bool {
		a := MapState{}
		b := MapState{}
		for i, v := range av {
			a[LeaderID(i%6)] = float64(v)
		}
		for i, v := range bv {
			b[LeaderID(i%6+3)] = float64(v)
		}
		m1 := Merge(a, b)
		m2 := Merge(b, a)
		if len(m1) != len(m2) {
			return false
		}
		for l, v := range m1 {
			if m2[l] != v {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeEquivalentToVectorAverage(t *testing.T) {
	// The simulator's vector mode treats a missing entry as 0 and
	// averages element-wise; Merge must agree exactly.
	a := MapState{1: 0.5, 2: 0.25}
	b := MapState{2: 0.75, 3: 1}
	m := Merge(a, b)
	want := map[LeaderID]float64{
		1: (0.5 + 0) / 2,
		2: (0.25 + 0.75) / 2,
		3: (0 + 1) / 2.0,
	}
	for l, w := range want {
		if !almostEqual(m[l], w, 1e-12) {
			t.Errorf("leader %d: merge %g, vector %g", l, m[l], w)
		}
	}
}

func TestNewLeaderState(t *testing.T) {
	m := NewLeaderState(42)
	if len(m) != 1 || m[42] != 1 {
		t.Fatalf("NewLeaderState = %v", m)
	}
}

func TestMapStateClone(t *testing.T) {
	m := MapState{1: 0.5}
	c := m.Clone()
	c[1] = 0.9
	if m[1] != 0.5 {
		t.Fatal("Clone aliases original")
	}
}

func TestMapStateLeadersSorted(t *testing.T) {
	m := MapState{5: 1, 1: 1, 3: 1}
	ls := m.Leaders()
	if len(ls) != 3 || ls[0] != 1 || ls[1] != 3 || ls[2] != 5 {
		t.Fatalf("Leaders = %v", ls)
	}
}

func TestMapStateSizeEstimates(t *testing.T) {
	m := MapState{1: 0.001, 2: 0}
	ests := m.SizeEstimates()
	if !almostEqual(ests[1], 1000, 1e-6) {
		t.Fatalf("estimate for leader 1 = %g", ests[1])
	}
	if !math.IsInf(ests[2], 1) {
		t.Fatal("zero-mass instance must estimate +Inf")
	}
}

func TestMapStateCombinedSize(t *testing.T) {
	m := MapState{1: 1.0 / 90, 2: 1.0 / 100, 3: 1.0 / 110}
	got, err := m.CombinedSize()
	if err != nil {
		t.Fatal(err)
	}
	// Three estimates: 90, 100, 110 -> drop 1 low and 1 high -> 100.
	if !almostEqual(got, 100, 1e-6) {
		t.Fatalf("CombinedSize = %g, want 100", got)
	}
}

func TestMapStateCombinedSizeNoMass(t *testing.T) {
	m := MapState{1: 0}
	if _, err := m.CombinedSize(); err == nil {
		t.Fatal("massless map produced an estimate")
	}
}

// TestCombinedSizeMatchesCombine pins the in-place trim to the reference
// it replaced — Combine over a freshly collected estimate list — bit for
// bit, on both sides of the 32-instance stack buffer.
func TestCombinedSizeMatchesCombine(t *testing.T) {
	rng := stats.NewRNG(5)
	for trial := 0; trial < 500; trial++ {
		m := MapState{}
		var ests []float64
		for l := 0; l < 1+rng.Intn(48); l++ {
			mass := rng.Float64() / 100
			if rng.Intn(8) == 0 {
				mass = 0 // estimates +Inf, left out
			}
			m[LeaderID(l)] = mass
			if mass > 0 {
				ests = append(ests, SizeFromAverage(mass))
			}
		}
		got, err := m.CombinedSize()
		if len(ests) == 0 {
			if err == nil {
				t.Fatalf("trial %d: massless map produced %g", trial, got)
			}
			continue
		}
		want, _ := Combine(ests)
		if err != nil || got != want {
			t.Fatalf("trial %d (%d instances): CombinedSize = %v, %v; Combine = %v", trial, len(ests), got, err, want)
		}
	}
}

func TestCombinedSizeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	m := MapState{}
	for l := 0; l < 32; l++ {
		m[LeaderID(l)] = 1 / float64(90+l)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = m.CombinedSize() }); n != 0 {
		t.Fatalf("CombinedSize allocates %.1f times for 32 instances", n)
	}
}

func TestMassAbsentLeader(t *testing.T) {
	m := MapState{}
	if m.Mass(9) != 0 {
		t.Fatal("absent leader should report zero mass")
	}
}
