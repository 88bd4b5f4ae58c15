// Package newscast holds the NEWSCAST view laws of the paper's §4.4 — no
// self entry, capacity respected, freshest stamp wins, deterministic
// tie-break, crash repair — as tests of overlay.Membership, the one
// implementation the simulators and the live agent run on. They were
// written against the generic cache this directory used to export; the
// cache is gone, the laws are the same. The directory has no non-test
// code.
package newscast

import (
	"testing"
	"testing/quick"

	"antientropy/internal/overlay"
	"antientropy/internal/stats"
)

type (
	Cache = overlay.Membership
	Entry = overlay.Entry
)

func mustCache(t *testing.T, self int32, c int) *Cache {
	t.Helper()
	cache, err := overlay.NewMembership(self, c)
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

func TestNewCacheValidation(t *testing.T) {
	if _, err := overlay.NewMembership(0, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := overlay.NewMembership(0, -1); err == nil {
		t.Error("negative capacity accepted")
	}
	c, err := overlay.NewMembership(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Self() != 7 || c.Capacity() != 5 || c.Len() != 0 {
		t.Fatalf("fresh cache state wrong: self=%d cap=%d len=%d", c.Self(), c.Capacity(), c.Len())
	}
}

func TestViewIncludesFreshSelfDescriptor(t *testing.T) {
	c := mustCache(t, 3, 4)
	c.Absorb([]Entry{{Key: 1, Stamp: 10}})
	view := c.View(99)
	foundSelf := false
	for _, e := range view {
		if e.Key == 3 {
			foundSelf = true
			if e.Stamp != 99 {
				t.Fatalf("self descriptor stamp = %d, want 99", e.Stamp)
			}
		}
	}
	if !foundSelf {
		t.Fatal("view lacks the node's own fresh descriptor")
	}
}

func TestAbsorbKeepsFreshestPerKey(t *testing.T) {
	c := mustCache(t, 0, 10)
	c.Absorb([]Entry{{Key: 1, Stamp: 5}})
	c.Absorb([]Entry{{Key: 1, Stamp: 9}})
	if s, ok := c.Stamp(1); !ok || s != 9 {
		t.Fatalf("stamp = %d (present=%v), want 9", s, ok)
	}
	// An older descriptor must not overwrite a fresher one.
	c.Absorb([]Entry{{Key: 1, Stamp: 2}})
	if s, _ := c.Stamp(1); s != 9 {
		t.Fatalf("stale descriptor overwrote fresh one: stamp = %d", s)
	}
	if c.Len() != 1 {
		t.Fatalf("duplicate key retained: len = %d", c.Len())
	}
}

func TestAbsorbDropsOwnDescriptor(t *testing.T) {
	c := mustCache(t, 5, 10)
	c.Absorb([]Entry{{Key: 5, Stamp: 100}, {Key: 2, Stamp: 1}})
	if c.Contains(5) {
		t.Fatal("cache stored its own descriptor")
	}
	if !c.Contains(2) {
		t.Fatal("legitimate descriptor dropped")
	}
}

func TestAbsorbEnforcesCapacityKeepingFreshest(t *testing.T) {
	c := mustCache(t, 0, 3)
	c.Absorb([]Entry{
		{Key: 1, Stamp: 1}, {Key: 2, Stamp: 9},
		{Key: 3, Stamp: 5}, {Key: 4, Stamp: 7}, {Key: 5, Stamp: 3},
	})
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	for _, want := range []int32{2, 4, 3} {
		if !c.Contains(want) {
			t.Errorf("freshest entry %d evicted", want)
		}
	}
	if c.Contains(1) || c.Contains(5) {
		t.Error("stale entry survived over fresher ones")
	}
}

func TestAbsorbDeterministicTieBreak(t *testing.T) {
	// Equal stamps: lower keys win, independent of insertion order.
	a := mustCache(t, 0, 2)
	b := mustCache(t, 0, 2)
	a.Absorb([]Entry{{Key: 3, Stamp: 5}, {Key: 1, Stamp: 5}, {Key: 2, Stamp: 5}})
	b.Absorb([]Entry{{Key: 2, Stamp: 5}, {Key: 3, Stamp: 5}, {Key: 1, Stamp: 5}})
	for _, k := range []int32{1, 2} {
		if !a.Contains(k) || !b.Contains(k) {
			t.Fatalf("tie-break not deterministic: a=%v b=%v", a.Entries(), b.Entries())
		}
	}
}

func TestSeedReplacesContent(t *testing.T) {
	c := mustCache(t, 0, 5)
	c.Absorb([]Entry{{Key: 9, Stamp: 1}})
	c.Seed([]Entry{{Key: 1, Stamp: 2}, {Key: 2, Stamp: 2}})
	if c.Contains(9) {
		t.Error("Seed kept stale content")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestPeerSamplesUniformly(t *testing.T) {
	c := mustCache(t, 0, 10)
	c.Absorb([]Entry{
		{Key: 1, Stamp: 1}, {Key: 2, Stamp: 1}, {Key: 3, Stamp: 1},
	})
	rng := stats.NewRNG(1)
	counts := map[int32]int{}
	const draws = 30000
	for i := 0; i < draws; i++ {
		p, ok := c.Peer(rng)
		if !ok {
			t.Fatal("Peer failed on non-empty cache")
		}
		counts[p]++
	}
	for k, n := range counts {
		frac := float64(n) / draws
		if frac < 0.30 || frac > 0.37 {
			t.Errorf("peer %d drawn with frequency %.3f, want ~1/3", k, frac)
		}
	}
}

func TestPeerEmptyCache(t *testing.T) {
	c := mustCache(t, 0, 3)
	if _, ok := c.Peer(stats.NewRNG(1)); ok {
		t.Fatal("Peer succeeded on empty cache")
	}
}

func TestExchangeSharesDescriptors(t *testing.T) {
	a := mustCache(t, 1, 5)
	b := mustCache(t, 2, 5)
	a.Absorb([]Entry{{Key: 10, Stamp: 3}})
	b.Absorb([]Entry{{Key: 20, Stamp: 4}})
	overlay.Exchange(a, b, 7)
	// Both caches must now know each other and each other's contacts.
	if !a.Contains(2) || !a.Contains(20) || !a.Contains(10) {
		t.Fatalf("a incomplete after exchange: %v", a.Entries())
	}
	if !b.Contains(1) || !b.Contains(10) || !b.Contains(20) {
		t.Fatalf("b incomplete after exchange: %v", b.Entries())
	}
	// The fresh self-descriptors carry the exchange timestamp.
	if s, _ := b.Stamp(1); s != 7 {
		t.Fatalf("b's descriptor of a stamped %d, want 7", s)
	}
}

func TestOldest(t *testing.T) {
	c := mustCache(t, 0, 5)
	if _, ok := c.Oldest(); ok {
		t.Fatal("Oldest on empty cache returned ok")
	}
	c.Absorb([]Entry{{Key: 1, Stamp: 4}, {Key: 2, Stamp: 9}})
	if s, ok := c.Oldest(); !ok || s != 4 {
		t.Fatalf("Oldest = %d (%v), want 4", s, ok)
	}
}

func TestEntriesReturnsCopy(t *testing.T) {
	c := mustCache(t, 0, 5)
	c.Absorb([]Entry{{Key: 1, Stamp: 4}})
	es := c.Entries()
	es[0].Key = 99
	if c.Contains(99) || !c.Contains(1) {
		t.Fatal("Entries exposed internal storage")
	}
}

func TestCrashRepair(t *testing.T) {
	// A mini NEWSCAST network: node 0 crashes at cycle 10 and must
	// disappear from every cache once fresher descriptors crowd it out.
	const n, cap = 30, 5
	caches := make([]*Cache, n)
	for i := range caches {
		caches[i] = mustCache(t, int32(i), cap)
	}
	rng := stats.NewRNG(42)
	// Bootstrap: everyone knows the next node in a ring.
	for i := range caches {
		caches[i].Seed([]Entry{{Key: int32((i + 1) % n), Stamp: 0}})
	}
	crashed := 0
	for cycle := 1; cycle <= 60; cycle++ {
		for i := 1; i < n; i++ { // node 0 stops gossiping after cycle 10
			if cycle <= 10 {
				// everyone lives
			}
			peer, ok := caches[i].Peer(rng)
			if !ok {
				continue
			}
			if peer == 0 && cycle > 10 {
				continue // timeout against the dead node
			}
			if int(peer) == i {
				continue
			}
			overlay.Exchange(caches[i], caches[peer], int32(cycle))
		}
		if cycle <= 10 {
			// Node 0 actively gossips while alive.
			peer, ok := caches[0].Peer(rng)
			if ok && peer != 0 {
				overlay.Exchange(caches[0], caches[peer], int32(cycle))
			}
		}
		crashed = 0
		for i := 1; i < n; i++ {
			if caches[i].Contains(0) {
				crashed++
			}
		}
	}
	if crashed != 0 {
		t.Fatalf("dead node still cached by %d of %d nodes after 50 repair cycles", crashed, n-1)
	}
	// Overlay must remain well-populated.
	for i := 1; i < n; i++ {
		if caches[i].Len() < cap {
			t.Fatalf("node %d cache shrank to %d", i, caches[i].Len())
		}
	}
}

func TestAbsorbInvariantsProperty(t *testing.T) {
	// For arbitrary merge inputs: size ≤ cap, no self, no duplicate keys,
	// every kept entry at least as fresh as any dropped entry of the same
	// key.
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(keys []uint8, stamps []int8, capRaw uint8) bool {
		capacity := int(capRaw%10) + 1
		c, err := overlay.NewMembership(0, capacity)
		if err != nil {
			return false
		}
		nEntries := len(keys)
		if len(stamps) < nEntries {
			nEntries = len(stamps)
		}
		remote := make([]Entry, 0, nEntries)
		for i := 0; i < nEntries; i++ {
			remote = append(remote, Entry{Key: int32(keys[i] % 20), Stamp: int32(stamps[i]) + 128}) // logical time is never negative
		}
		c.Absorb(remote)
		if c.Len() > capacity {
			return false
		}
		if c.Contains(0) {
			return false
		}
		seen := map[int32]bool{}
		for _, e := range c.Entries() {
			if seen[e.Key] {
				return false
			}
			seen[e.Key] = true
			// The kept stamp must be the max stamp of that key in input.
			max := int32(-1)
			for _, r := range remote {
				if r.Key == e.Key && r.Stamp > max {
					max = r.Stamp
				}
			}
			if e.Stamp != max {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStringKeys(t *testing.T) {
	// The live runtime's keys are addresses, interned through a Book.
	book := overlay.NewBook()
	addrA, addrB := "10.0.0.1:7000", "10.0.0.2:7000"
	a := mustCache(t, book.Intern(addrA), 3)
	b := mustCache(t, book.Intern(addrB), 3)
	overlay.Exchange(a, b, 1)
	idA, _ := book.Lookup(addrA)
	idB, _ := book.Lookup(addrB)
	if !a.Contains(idB) || !b.Contains(idA) {
		t.Fatal("address-keyed exchange failed")
	}
	if got := book.Addr(a.Entries()[0].Key); got != addrB {
		t.Fatalf("a's descriptor resolves to %q, want %q", got, addrB)
	}
}
