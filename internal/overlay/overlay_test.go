package overlay

import (
	"slices"
	"testing"
	"time"

	"antientropy/internal/stats"
)

func TestPackUnpack(t *testing.T) {
	cases := []Entry{
		{Key: 0, Stamp: 0},
		{Key: 1, Stamp: 0},
		{Key: 1 << 30, Stamp: 1 << 30},
		{Key: 42, Stamp: 2147483647},
	}
	for _, e := range cases {
		p := Pack(e.Key, e.Stamp)
		if UnpackKey(p) != e.Key || UnpackStamp(p) != e.Stamp {
			t.Errorf("pack/unpack mangled %+v -> (%d, %d)", e, UnpackKey(p), UnpackStamp(p))
		}
	}
	// Ascending packed order must be freshest-first, key-ascending on ties.
	if !(Pack(5, 9) < Pack(3, 8)) {
		t.Error("fresher stamp must order first")
	}
	if !(Pack(3, 9) < Pack(5, 9)) {
		t.Error("equal stamps must order by ascending key")
	}
}

func TestMembershipAbsorbKeepsFreshest(t *testing.T) {
	m, err := NewMembership(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	m.Absorb([]Entry{{Key: 2, Stamp: 1}, {Key: 3, Stamp: 2}, {Key: 1, Stamp: 99}})
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2 (own descriptor dropped)", m.Len())
	}
	if m.Contains(1) {
		t.Fatal("cache holds own descriptor")
	}
	// A fresher duplicate wins; a staler one is ignored.
	m.Absorb([]Entry{{Key: 2, Stamp: 5}, {Key: 3, Stamp: 0}})
	if s, _ := m.Stamp(2); s != 5 {
		t.Fatalf("stamp(2) = %d, want 5", s)
	}
	if s, _ := m.Stamp(3); s != 2 {
		t.Fatalf("stamp(3) = %d, want 2", s)
	}
	// Capacity eviction drops the oldest.
	m.Absorb([]Entry{{Key: 4, Stamp: 7}, {Key: 5, Stamp: 6}})
	if m.Len() != 3 || m.Contains(3) {
		t.Fatalf("eviction wrong: len=%d entries=%v", m.Len(), m.Entries())
	}
	if old, ok := m.Oldest(); !ok || old != 5 {
		t.Fatalf("oldest = %d, want 5", old)
	}
}

func TestMembershipSeedReplaces(t *testing.T) {
	m, _ := NewMembership(0, 4)
	m.Absorb([]Entry{{Key: 9, Stamp: 1}})
	m.Seed([]Entry{{Key: 1, Stamp: 3}, {Key: 2, Stamp: 3}})
	if m.Len() != 2 || m.Contains(9) {
		t.Fatalf("seed did not replace: %v", m.Entries())
	}
}

func TestTableExchangeMatchesStandalone(t *testing.T) {
	// Table.Exchange (the engines' fast path) and the standalone
	// Exchange over two Memberships must produce identical views.
	tbl, err := NewTable(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewMembership(0, 3)
	b, _ := NewMembership(1, 3)
	seedA := []Entry{{Key: 2, Stamp: 4}, {Key: 3, Stamp: 2}, {Key: 4, Stamp: 6}}
	seedB := []Entry{{Key: 2, Stamp: 5}, {Key: 5, Stamp: 1}, {Key: 0, Stamp: 3}}
	tbl.At(0).Seed(seedA)
	tbl.At(1).Seed(seedB)
	a.Seed(seedA)
	b.Seed(seedB)

	tbl.Exchange(nil, 0, 1, 7)
	Exchange(a, b, 7)

	if !slices.Equal(tbl.At(0).Packed(), a.Packed()) {
		t.Errorf("node 0: table %v vs standalone %v", tbl.At(0).Entries(), a.Entries())
	}
	if !slices.Equal(tbl.At(1).Packed(), b.Packed()) {
		t.Errorf("node 1: table %v vs standalone %v", tbl.At(1).Entries(), b.Entries())
	}
}

// TestPackedMatchesGenericOnStampTies pins the cross-engine determinism
// contract on the cases where every ordering decision is a tie-break:
// fixtures saturate the caches with one shared stamp, and ties break by
// ascending key. The expected views are golden vectors frozen from the
// generic reference cache (overlay.Generic, the implementation the
// newscast package exposed) when it was deleted; the packed cache (serial
// engine, sharded engine, live agent) must reproduce them descriptor for
// descriptor, and so must the merge kernel's sort-then-scan oracle.
func TestPackedMatchesGenericOnStampTies(t *testing.T) {
	cases := []struct {
		name  string
		cap   int
		selfA int32
		selfB int32
		viewA []Entry // pre-exchange cache of A
		viewB []Entry // pre-exchange cache of B
		now   int32
		wantA []Entry // post-exchange, as the generic cache merged it
		wantB []Entry
	}{
		{
			name: "all stamps equal, overflow forces tie eviction",
			cap:  2, selfA: 1, selfB: 2, now: 10,
			viewA: []Entry{{5, 10}, {6, 10}},
			viewB: []Entry{{3, 10}, {4, 10}},
			wantA: []Entry{{2, 10}, {3, 10}},
			wantB: []Entry{{1, 10}, {3, 10}},
		},
		{
			name: "disjoint views, equal stamps, no overlap with selves",
			cap:  2, selfA: 1, selfB: 2, now: 10,
			viewA: []Entry{{5, 10}, {6, 10}},
			viewB: []Entry{{7, 10}, {8, 10}},
			wantA: []Entry{{2, 10}, {5, 10}},
			wantB: []Entry{{1, 10}, {5, 10}},
		},
		{
			name: "duplicate key with equal stamps on both sides",
			cap:  3, selfA: 0, selfB: 9, now: 4,
			viewA: []Entry{{7, 4}, {3, 4}, {9, 1}},
			viewB: []Entry{{7, 4}, {5, 4}, {0, 2}},
			wantA: []Entry{{3, 4}, {5, 4}, {7, 4}},
			wantB: []Entry{{0, 4}, {3, 4}, {5, 4}},
		},
		{
			name: "fresh self descriptors tie with cached foreign ones",
			cap:  3, selfA: 2, selfB: 7, now: 6,
			viewA: []Entry{{4, 6}, {5, 6}, {6, 6}},
			viewB: []Entry{{1, 6}, {3, 6}, {8, 6}},
			wantA: []Entry{{1, 6}, {3, 6}, {4, 6}},
			wantB: []Entry{{1, 6}, {2, 6}, {3, 6}},
		},
		{
			name: "mixed stamps with a tie exactly at the eviction boundary",
			cap:  3, selfA: 10, selfB: 11, now: 9,
			viewA: []Entry{{1, 9}, {2, 5}, {3, 5}},
			viewB: []Entry{{4, 5}, {5, 5}, {6, 3}},
			wantA: []Entry{{1, 9}, {11, 9}, {2, 5}},
			wantB: []Entry{{1, 9}, {10, 9}, {2, 5}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pa, _ := NewMembership(tc.selfA, tc.cap)
			pb, _ := NewMembership(tc.selfB, tc.cap)
			pa.Seed(tc.viewA)
			pb.Seed(tc.viewB)
			oracleA, oracleB := oracleExchange(tc.cap, tc.selfA, tc.selfB,
				slices.Clone(pa.Packed()), slices.Clone(pb.Packed()), tc.now)

			Exchange(pa, pb, tc.now)

			for _, node := range []struct {
				m      *Membership
				want   []Entry
				oracle []uint64
			}{{pa, tc.wantA, oracleA}, {pb, tc.wantB, oracleB}} {
				if got := node.m.Entries(); !slices.Equal(got, node.want) {
					t.Errorf("node %d: packed %v, golden %v", node.m.Self(), got, node.want)
				}
				if got := unpacked(node.oracle); !slices.Equal(got, node.want) {
					t.Errorf("node %d: oracle %v, golden %v", node.m.Self(), got, node.want)
				}
			}
		})
	}
}

func TestSeedRandomDistinctAndSorted(t *testing.T) {
	m, _ := NewMembership(3, 10)
	m.SeedRandom(8, 20, 5, stats.NewRNG(1))
	if m.Len() != 8 {
		t.Fatalf("len = %d, want 8", m.Len())
	}
	seen := map[int32]bool{}
	for _, e := range m.Entries() {
		if e.Key == 3 {
			t.Fatal("seeded with self")
		}
		if e.Stamp != 5 {
			t.Fatalf("stamp %d, want 5", e.Stamp)
		}
		if seen[e.Key] {
			t.Fatalf("duplicate key %d", e.Key)
		}
		seen[e.Key] = true
	}
	if !slices.IsSorted(m.Packed()) {
		t.Fatal("packed view not in storage order")
	}
}

// TestSeedRandomClampsToCandidates: asked for more peers than [0, total)
// holds besides the node itself, SeedRandom seeds every candidate and
// returns — on a standalone cache and on a table row.
func TestSeedRandomClampsToCandidates(t *testing.T) {
	done := make(chan [3][]Entry, 1)
	go func() {
		rng := stats.NewRNG(1)
		m, _ := NewMembership(0, 30)
		m.SeedRandom(5, 5, 0, rng)
		outside, _ := NewMembership(7, 30) // a self outside [0, total) excludes nothing
		outside.SeedRandom(9, 5, 0, rng)
		tbl, _ := NewTable(5, 30)
		tbl.SeedRandom(2, 30, 5, 0, rng)
		done <- [3][]Entry{m.Entries(), outside.Entries(), tbl.At(2).Entries()}
	}()
	select {
	case got := <-done:
		keys := func(es []Entry) []int32 {
			var out []int32
			for _, e := range es {
				out = append(out, e.Key)
			}
			return out
		}
		for i, want := range [][]int32{{1, 2, 3, 4}, {0, 1, 2, 3, 4}, {0, 1, 3, 4}} {
			if !slices.Equal(keys(got[i]), want) {
				t.Errorf("case %d: seeded %v, want keys %v", i, got[i], want)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SeedRandom did not return with size above the candidates")
	}
}

func TestBookInterning(t *testing.T) {
	b := NewBook()
	a1 := b.Intern("node-a")
	b1 := b.Intern("node-b")
	if a1 == b1 {
		t.Fatal("distinct addrs share an id")
	}
	if again := b.Intern("node-a"); again != a1 {
		t.Fatalf("re-intern changed id: %d vs %d", again, a1)
	}
	if got := b.Addr(b1); got != "node-b" {
		t.Fatalf("Addr(%d) = %q", b1, got)
	}
	if _, ok := b.Lookup("node-c"); ok {
		t.Fatal("lookup invented an id")
	}
	if b.Addr(99) != "" {
		t.Fatal("unknown id resolved")
	}
	if s, id, ok := b.Canonical([]byte("node-b")); !ok || s != "node-b" || id != b1 {
		t.Fatalf("Canonical(node-b) = %q, %d, %v", s, id, ok)
	}
	if _, _, ok := b.Canonical([]byte("node-c")); ok {
		t.Fatal("Canonical invented an address")
	}
	if b.Len() != 2 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestSplitAddrList(t *testing.T) {
	got := SplitAddrList(" a:1, ,b:2,")
	if !slices.Equal(got, []string{"a:1", "b:2"}) {
		t.Fatalf("got %v", got)
	}
	if out := SplitAddrList(""); len(out) != 0 {
		t.Fatalf("empty input produced %v", out)
	}
}

func TestBadSizes(t *testing.T) {
	if _, err := NewMembership(0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewTable(0, 5); err == nil {
		t.Error("zero-row table accepted")
	}
	if _, err := NewTable(5, 0); err == nil {
		t.Error("zero-capacity table accepted")
	}
}

// TestSmallAbsorbMatchesBatch pins the incremental fast path against
// the batch merge: absorbing any small remote set must produce exactly
// the view a batch union-merge produces, across duplicates, self
// descriptors, ties and cap evictions.
func TestSmallAbsorbMatchesBatch(t *testing.T) {
	rng := stats.NewRNG(42)
	for trial := 0; trial < 2000; trial++ {
		cap := 1 + rng.Intn(6)
		fast, _ := NewMembership(3, cap)
		slow, _ := NewMembership(3, cap)
		seed := make([]Entry, rng.Intn(8))
		for i := range seed {
			seed[i] = Entry{Key: int32(rng.Intn(10)), Stamp: int32(rng.Intn(6))}
		}
		fast.Seed(seed)
		slow.Seed(seed)
		if !slices.Equal(fast.Packed(), slow.Packed()) {
			t.Fatalf("trial %d: seeds diverge", trial)
		}
		remote := make([]Entry, rng.Intn(int(smallAbsorb)+1))
		for i := range remote {
			remote[i] = Entry{Key: int32(rng.Intn(10)), Stamp: int32(rng.Intn(6))}
		}
		fast.Absorb(remote) // small path
		// Force the batch path by padding with self descriptors, which
		// the merge drops.
		padded := append(append([]Entry(nil), remote...),
			Entry{Key: 3, Stamp: 1}, Entry{Key: 3, Stamp: 2}, Entry{Key: 3, Stamp: 3},
			Entry{Key: 3, Stamp: 1}, Entry{Key: 3, Stamp: 2}, Entry{Key: 3, Stamp: 3},
			Entry{Key: 3, Stamp: 1}, Entry{Key: 3, Stamp: 2}, Entry{Key: 3, Stamp: 3})
		slow.Absorb(padded)
		if !slices.Equal(fast.Packed(), slow.Packed()) {
			t.Fatalf("trial %d: cap=%d seed=%v remote=%v\n fast=%v\n slow=%v",
				trial, cap, seed, remote, fast.Entries(), slow.Entries())
		}
	}
}
