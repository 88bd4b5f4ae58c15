package overlay

import (
	"slices"
	"testing"

	"antientropy/internal/race"
	"antientropy/internal/stats"
)

// oracleDistinct is the sort-then-scan merge the kernel replaced, kept
// as the reference: concatenate, sort the whole union, keep the first
// occurrence of each key, stop at limit survivors.
func oracleDistinct(limit int, lists ...[]uint64) []uint64 {
	var union []uint64
	for _, l := range lists {
		union = append(union, l...)
	}
	slices.Sort(union)
	out := []uint64{}
	for _, e := range union {
		if len(out) == limit {
			break
		}
		if !slices.ContainsFunc(out, func(x uint64) bool { return UnpackKey(x) == UnpackKey(e) }) {
			out = append(out, e)
		}
	}
	return out
}

// oracleAbsorb is the old Membership merge: drop the own key from the
// remote half, then the cap first distinct keys of the sorted union.
func oracleAbsorb(self int32, cap int, view, remote []uint64) []uint64 {
	foreign := slices.DeleteFunc(slices.Clone(remote), func(e uint64) bool { return UnpackKey(e) == self })
	return oracleDistinct(cap, view, foreign)
}

// oracleExchange is the old Table.Exchange: the cap+1 first distinct
// keys of both rows plus both fresh self-descriptors, then per node that
// list minus the own key, truncated to cap.
func oracleExchange(cap int, i, j int32, rowI, rowJ []uint64, now int32) (newI, newJ []uint64) {
	kept := oracleDistinct(cap+1, []uint64{Pack(i, now), Pack(j, now)}, rowI, rowJ)
	without := func(self int32) []uint64 {
		out := slices.DeleteFunc(slices.Clone(kept), func(e uint64) bool { return UnpackKey(e) == self })
		return out[:min(len(out), cap)]
	}
	return without(i), without(j)
}

// randomList draws n packed descriptors over a small key and stamp space,
// so that stamp ties and one key at several stamps are the common case.
func randomList(rng *stats.RNG, n, keys, stamps int) []uint64 {
	l := make([]uint64, n)
	for i := range l {
		l[i] = Pack(int32(rng.Intn(keys)), int32(rng.Intn(stamps)))
	}
	return l
}

// mergeThree reaches the two-list kernel with three lists the way an
// exchange does: c is merged into a copy of a first.
func mergeThree(work []uint64, limit int, mask uint32, a, b, c []uint64) []uint64 {
	return mergeDistinct(work, limit, mask, sorted(append(slices.Clone(a), c...)), b)
}

func unpacked(l []uint64) []Entry {
	out := make([]Entry, len(l))
	for i, e := range l {
		out[i] = Entry{Key: UnpackKey(e), Stamp: UnpackStamp(e)}
	}
	return out
}

func sorted(l []uint64) []uint64 {
	slices.Sort(l)
	return l
}

var testCaps = []int{1, 2, 30, 50}

// checkView asserts the stored-view invariant every merge relies on and
// re-establishes: strictly ascending, no own key, at most cap entries.
func checkView(t *testing.T, m *Membership) {
	t.Helper()
	v := m.Packed()
	if len(v) > m.cap {
		t.Fatalf("view holds %d entries, cap %d", len(v), m.cap)
	}
	seen := map[int32]bool{}
	for i, e := range v {
		if i > 0 && v[i-1] >= e {
			t.Fatalf("view not strictly ascending at %d: %v", i, m.Entries())
		}
		if UnpackKey(e) == m.self {
			t.Fatalf("view holds own key %d: %v", m.self, m.Entries())
		}
		if seen[UnpackKey(e)] {
			t.Fatalf("view holds key %d twice: %v", UnpackKey(e), m.Entries())
		}
		seen[UnpackKey(e)] = true
	}
}

func TestMergeKernelMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(7)
	var work []uint64
	for trial := 0; trial < 4000; trial++ {
		limit := testCaps[rng.Intn(len(testCaps))] + rng.Intn(2)
		keys := 1 + rng.Intn(3*limit)
		// Short and empty lists included; c is the two-entry self list.
		a := sorted(randomList(rng, rng.Intn(limit+2), keys, 4))
		b := sorted(randomList(rng, rng.Intn(limit+2), keys, 4))
		c := sorted(randomList(rng, rng.Intn(3), keys, 4))
		want := oracleDistinct(limit, a, b, c)
		work = workspace(work, limit, keys, 0)
		if got := mergeThree(work, limit, 0, a, b, c); !slices.Equal(got, want) {
			t.Fatalf("trial %d limit %d\n a=%x\n b=%x\n c=%x\n got  %x\n want %x", trial, limit, a, b, c, got, want)
		}
	}
}

// TestMergeKernelExtremeValues covers the packed values the kernel's
// exhausted-list marker and empty-slot marker could be confused with.
func TestMergeKernelExtremeValues(t *testing.T) {
	top := Pack(-1, 0) // ^uint64(0), the largest packed value
	zero := Pack(0, -1)
	if top != ^uint64(0) || zero != 0 {
		t.Fatalf("fixture: top=%x zero=%x", top, zero)
	}
	for _, lists := range [][3][]uint64{
		{{top}, nil, nil},
		{nil, {top}, nil},
		{nil, nil, {top}},
		{{zero, top}, {top}, {zero}},
		{nil, {zero, Pack(5, 3), top}, {top}},
		{{Pack(0, 7), Pack(-1, 7), top}, {Pack(0, 2)}, nil},
	} {
		want := oracleDistinct(4, lists[0], lists[1], lists[2])
		got := mergeThree(workspace(nil, 4, 8, 0), 4, 0, lists[0], lists[1], lists[2])
		if !slices.Equal(got, want) {
			t.Errorf("lists %x: got %x, want %x", lists, got, want)
		}
	}
}

// TestMergeWorkspaceReuse drives one buffer through every way a caller
// reuses a workspace — other limits, key ranges that shrink and grow,
// keys past the flags, salted keys, a buffer overwritten with all ones —
// and checks every merge against the oracle. A kernel that trusted flags
// it did not clear itself would drop keys here.
func TestMergeWorkspaceReuse(t *testing.T) {
	const salt = 1 << 30
	rng := stats.NewRNG(19)
	var work []uint64
	for _, s := range []struct {
		limit, keys int    // workspace arguments
		mask        uint32 // mergeDistinct argument
		lo, hi      int    // keys are drawn from [lo, hi)
		spare       int    // room to grow into without reallocating
		poison      bool
		minSpan     int // indices the flags cover at least, after the step
	}{
		{limit: 2, keys: 64, hi: 64},
		{limit: 31, keys: 20000, hi: 20000},
		{limit: 51, keys: 64, hi: 64},
		{limit: 31, keys: 64, hi: 20000}, // past the span the caller asked for
		// Past the span the buffer holds, where its output words were:
		// the flags grow over them.
		{limit: 31, lo: 20000, hi: 20400, spare: 64, minSpan: 20400 - 93},
		{limit: 31, hi: 40000, minSpan: 40000 - 93},
		// Salted keys: without the salt as mask every index is past
		// maxLearnedSpan and the flags do not grow; with it they are small.
		{limit: 31, lo: salt, hi: salt + 500},
		{limit: 31, mask: salt, lo: salt + maxLearnedSpan, hi: salt + maxLearnedSpan + 500},
		{limit: 31, mask: salt, lo: salt, hi: salt + 500, poison: true, minSpan: 500 - 93},
		{limit: 51, keys: 64, hi: 64, poison: true},
		{limit: 2, keys: 20000, hi: 20000, poison: true},
		{limit: 31, hi: 64},
	} {
		work = slices.Grow(work, s.spare)
		if s.poison {
			work = work[:cap(work)]
			for i := range work {
				work[i] = ^uint64(0)
			}
		}
		for trial := 0; trial < 300; trial++ {
			// A window of 3·limit keys somewhere in the range, so that
			// duplicates are common wherever the keys fall.
			width := min(3*s.limit, s.hi-s.lo)
			base := s.lo + rng.Intn(s.hi-s.lo-width+1)
			list := func(n int) []uint64 {
				l := randomList(rng, n, width, 4)
				for i, e := range l {
					l[i] = Pack(UnpackKey(e)+int32(base), UnpackStamp(e))
				}
				return sorted(l)
			}
			a, b, c := list(s.limit+1), list(s.limit+1), list(2)
			want := oracleDistinct(s.limit, a, b, c)
			work = workspace(work, s.limit, s.keys, 0)
			if got := mergeThree(work, s.limit, s.mask, a, b, c); !slices.Equal(got, want) {
				t.Fatalf("%+v trial %d\n a=%x\n b=%x\n c=%x\n got  %x\n want %x", s, trial, a, b, c, got, want)
			}
		}
		if span := int(uint32(workspace(work, s.limit, 0, 0)[0])); span < s.minSpan || span > maxLearnedSpan {
			t.Fatalf("%+v: flags span %d indices", s, span)
		}
	}
}

func FuzzMergeKernel(f *testing.F) {
	f.Add(uint8(2), []byte{1, 1, 2, 1}, []byte{1, 2, 3, 0}, []byte{9, 9})
	f.Add(uint8(30), []byte{}, []byte{0, 0, 0, 0, 255, 255}, []byte{255, 0})
	f.Add(uint8(0), []byte{4, 4, 4, 4, 4, 4}, []byte{4, 4}, []byte{})
	// Two bytes per descriptor — key, then stamp — both signed so the
	// negative keys and stamps at the edges of the packing get covered.
	list := func(raw []byte) []uint64 {
		l := make([]uint64, 0, len(raw)/2)
		for ; len(raw) >= 2; raw = raw[2:] {
			l = append(l, Pack(int32(int8(raw[0])), int32(int8(raw[1]))))
		}
		return sorted(l)
	}
	f.Fuzz(func(t *testing.T, limitRaw uint8, ra, rb, rc []byte) {
		limit := int(limitRaw%51) + 1
		a, b, c := list(ra), list(rb), list(rc)
		want := oracleDistinct(limit, a, b, c)
		got := mergeThree(workspace(nil, limit, int(limitRaw), 0), limit, 0, a, b, c)
		if !slices.Equal(got, want) {
			t.Fatalf("limit %d\n a=%x\n b=%x\n c=%x\n got  %x\n want %x", limit, a, b, c, got, want)
		}
	})
}

// TestTableExchangeMatchesOracle drives Table.Exchange over random
// tables — short and empty rows, stamp ties, a row that holds its own or
// its partner's key, exchanges of a node with itself, stamps ahead of
// the cycle — against the old sort-then-scan exchange.
func TestTableExchangeMatchesOracle(t *testing.T) {
	rng := stats.NewRNG(11)
	for _, c := range testCaps {
		const n = 12
		tbl, err := NewTable(n, c)
		if err != nil {
			t.Fatal(err)
		}
		var scratch []uint64
		for trial := 0; trial < 1500; trial++ {
			i, j := rng.Intn(n), rng.Intn(n) // i == j included
			for _, node := range []int{i, j} {
				// A fresh strictly ascending row over keys that include
				// the node's own — which a stored view never holds, but
				// the exchange must not depend on that.
				row := oracleDistinct(rng.Intn(c+1), randomList(rng, c, n+c, 5))
				m := tbl.At(node)
				*m.n = int32(copy(m.entries, row))
			}
			rowI, rowJ := slices.Clone(tbl.At(i).Packed()), slices.Clone(tbl.At(j).Packed())
			cycle := rng.Intn(6)
			wantI, wantJ := oracleExchange(c, int32(i), int32(j), rowI, rowJ, int32(cycle))
			scratch = tbl.Exchange(scratch, i, j, cycle)
			if got := tbl.At(i).Packed(); !slices.Equal(got, wantI) {
				t.Fatalf("cap %d trial %d node i=%d (j=%d, cycle %d)\n rowI=%x\n rowJ=%x\n got  %x\n want %x",
					c, trial, i, j, cycle, rowI, rowJ, got, wantI)
			}
			if got := tbl.At(j).Packed(); !slices.Equal(got, wantJ) {
				t.Fatalf("cap %d trial %d node j=%d (i=%d, cycle %d)\n rowI=%x\n rowJ=%x\n got  %x\n want %x",
					c, trial, j, i, cycle, rowI, rowJ, got, wantJ)
			}
			checkView(t, tbl.At(i))
			checkView(t, tbl.At(j))
		}
	}
}

// TestAbsorbInvariantsProperty runs random operation sequences on
// standalone caches and checks, after every operation, the stored-view
// invariant and the result against the sort-then-scan oracle.
func TestAbsorbInvariantsProperty(t *testing.T) {
	rng := stats.NewRNG(13)
	for _, c := range testCaps {
		const keys = 40
		a, _ := NewMembership(3, c)
		b, _ := NewMembership(5, c+rng.Intn(3)) // standalone exchanges may pair unequal caps
		for op := 0; op < 3000; op++ {
			m := a
			if rng.Intn(2) == 0 {
				m = b
			}
			before := slices.Clone(m.Packed())
			// Remote sizes on both sides of smallAbsorb, own key included.
			remote := randomList(rng, rng.Intn(2*c+4), keys, 6)
			switch rng.Intn(5) {
			case 0: // the sender's order
				m.AbsorbPacked(remote)
			case 1: // storage order
				m.AbsorbPacked(sorted(remote))
			case 2:
				m.Absorb(unpacked(remote))
			case 3:
				m.Seed(unpacked(remote))
				before = nil
			case 4:
				beforeA, beforeB := slices.Clone(a.Packed()), slices.Clone(b.Packed())
				now := int32(rng.Intn(8))
				Exchange(a, b, now)
				wantA := oracleAbsorb(a.self, a.cap, beforeA, append(beforeB, Pack(b.self, now)))
				wantB := oracleAbsorb(b.self, b.cap, beforeB, append(beforeA, Pack(a.self, now)))
				if !slices.Equal(a.Packed(), wantA) || !slices.Equal(b.Packed(), wantB) {
					t.Fatalf("cap %d op %d exchange at %d\n a: got %x want %x\n b: got %x want %x",
						c, op, now, a.Packed(), wantA, b.Packed(), wantB)
				}
				checkView(t, a)
				checkView(t, b)
				continue
			}
			if want := oracleAbsorb(m.self, m.cap, before, remote); !slices.Equal(m.Packed(), want) {
				t.Fatalf("cap %d op %d\n view   %x\n remote %x\n got  %x\n want %x", m.cap, op, before, remote, m.Packed(), want)
			}
			checkView(t, m)
		}
	}
}

func TestAbsorbPackedLeavesRemoteUntouched(t *testing.T) {
	m, _ := NewMembership(0, 30)
	remote := make([]uint64, 20)
	for i := range remote {
		remote[i] = Pack(int32(20-i), int32(i%3))
	}
	want := slices.Clone(remote)
	m.AbsorbPacked(remote)
	if !slices.Equal(remote, want) {
		t.Fatal("AbsorbPacked reordered the caller's view")
	}
}

func TestTableExchangeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	for _, c := range testCaps {
		const n = 64
		rng := stats.NewRNG(1)
		tbl, _ := NewTable(n, c)
		for i := 0; i < n; i++ {
			tbl.At(i).SeedRandom(c, n, 0, rng)
		}
		scratch := tbl.Exchange(nil, 0, 1, 1) // sizes the caller's buffer
		cycle := 2
		if got := testing.AllocsPerRun(200, func() {
			i := rng.Intn(n)
			if j := tbl.Neighbor(i, rng); j >= 0 {
				scratch = tbl.Exchange(scratch, i, j, cycle)
			}
			cycle++
		}); got != 0 {
			t.Errorf("cap %d: Table.Exchange allocates %.1f times", c, got)
		}
	}
}

func TestAbsorbPackedAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	rng := stats.NewRNG(1)
	a, _ := NewMembership(0, 30)
	b, _ := NewMembership(1, 30)
	remotes := make([][]uint64, 16)
	for k := range remotes {
		// 2-entry deltas, 31-entry full views, half of them unsorted.
		remotes[k] = randomList(rng, []int{2, 31}[k%2], 500, 4)
		if k%4 < 2 {
			slices.Sort(remotes[k])
		}
	}
	for _, r := range remotes { // sizes the scratch buffers
		a.AbsorbPacked(r)
	}
	Exchange(a, b, 1)
	k := 0
	if got := testing.AllocsPerRun(200, func() {
		a.AbsorbPacked(remotes[k%len(remotes)])
		k++
	}); got != 0 {
		t.Errorf("AbsorbPacked allocates %.1f times", got)
	}
	now := int32(2)
	if got := testing.AllocsPerRun(200, func() {
		Exchange(a, b, now)
		now++
	}); got != 0 {
		t.Errorf("standalone Exchange allocates %.1f times", got)
	}
}
