package overlay

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"antientropy/internal/race"
)

// TestBookConcurrent is the shared book's contract under the race
// detector: goroutines intern overlapping address sets while others read,
// through several doublings of the table. Every address ends with exactly
// one id, whoever asked; ids are dense; Addr inverts Intern; and no read,
// Canonical of a never-interned address included, makes an address known.
func TestBookConcurrent(t *testing.T) {
	const (
		distinct = 5000 // 64 → 8192 addresses of capacity: seven doublings
		writers  = 6
		readers  = 4
	)
	addrs := make([]string, distinct)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.%d.%d.%d:7000#%d", i>>16, i>>8&255, i&255, i)
	}
	b := NewBook()
	got := make([][]int32, writers) // got[w][i]: the id writer w was given for addrs[i], or -1
	var done atomic.Bool
	var writing, reading sync.WaitGroup
	for w := range got {
		got[w] = make([]int32, distinct)
		for i := range got[w] {
			got[w][i] = -1
		}
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Writers walk the whole set in pairs: the two of a pair start at
			// the same offset and race for each address as they go, the pairs
			// start apart and meet addresses another pair interned long ago.
			// Now and then a writer re-interns an address it already has.
			for k := 0; k < distinct; k++ {
				i := (k + w/2*2*distinct/writers) % distinct
				id := b.Intern(addrs[i])
				got[w][i] = id
				if a := b.Addr(id); a != addrs[i] {
					t.Errorf("Addr(Intern(%q)) = %q", addrs[i], a)
					return
				}
				if j := rng.Intn(distinct); got[w][j] >= 0 && b.Intern(addrs[j]) != got[w][j] {
					t.Errorf("re-interning %q changed its id", addrs[j])
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for !done.Load() {
				a := addrs[rng.Intn(distinct)]
				if s, id, ok := b.Canonical([]byte(a)); ok {
					if s != a || b.Addr(id) != a {
						t.Errorf("Canonical(%q) = %q, id %d → %q", a, s, id, b.Addr(id))
						return
					}
					if id2, ok := b.Lookup(a); !ok || id2 != id {
						t.Errorf("Lookup(%q) = %d, %v after Canonical gave id %d", a, id2, ok, id)
						return
					}
				}
				ghost := fmt.Sprintf("ghost-%d:1", rng.Intn(distinct))
				if _, _, ok := b.Canonical([]byte(ghost)); ok {
					t.Errorf("Canonical knows %q, which nobody interned", ghost)
					return
				}
				if _, ok := b.Lookup(ghost); ok {
					t.Errorf("Lookup knows %q, which only Canonical was asked about", ghost)
					return
				}
				if n := int32(b.Len()); n > 0 {
					if id := rng.Int31n(n); b.Addr(id) == "" {
						t.Errorf("Addr(%d) is empty with %d addresses interned", id, n)
						return
					}
				}
			}
		}(r)
	}
	writing.Wait()
	done.Store(true)
	reading.Wait()
	if t.Failed() {
		return
	}

	if b.Len() != distinct {
		t.Fatalf("Len = %d after interning %d distinct addresses", b.Len(), distinct)
	}
	seen := make([]bool, distinct)
	for i, a := range addrs {
		id := got[0][i]
		for w := range got {
			if got[w][i] != id {
				t.Fatalf("%q has id %d for writer 0 and %d for writer %d", a, id, got[w][i], w)
			}
		}
		if id < 0 || int(id) >= distinct || seen[id] {
			t.Fatalf("%q has id %d: not a dense, unshared id below %d", a, id, distinct)
		}
		seen[id] = true
		if b.Addr(id) != a {
			t.Fatalf("Addr(%d) = %q, want %q", id, b.Addr(id), a)
		}
		if s, cid, ok := b.Canonical([]byte(a)); !ok || s != a || cid != id {
			t.Fatalf("Canonical(%q) = %q, %d, %v; want id %d", a, s, cid, ok, id)
		}
	}
	if a := b.Addr(distinct); a != "" {
		t.Fatalf("Addr of the first unassigned id is %q", a)
	}
}

// TestBookFirstSeenOrder: ids count up from 0 in the order addresses are
// first interned, through growth.
func TestBookFirstSeenOrder(t *testing.T) {
	b := NewBook()
	for i := 0; i < 10*bookMinAddrs; i++ {
		a := fmt.Sprintf("node-%d", i)
		if id := b.Intern(a); id != int32(i) {
			t.Fatalf("address %d interned as id %d", i, id)
		}
		b.Intern("node-0")
	}
}

// TestBookAllocs gates the read paths the live exchange runs per
// address: a hit allocates nothing, and neither does a Canonical miss.
func TestBookAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	b := NewBook()
	id := b.Intern("10.0.0.1:7000")
	known, unknown := []byte("10.0.0.1:7000"), []byte("10.0.0.2:7000")
	for name, fn := range map[string]func(){
		"Canonical hit":  func() { b.Canonical(known) },
		"Canonical miss": func() { b.Canonical(unknown) },
		"Intern hit":     func() { b.Intern("10.0.0.1:7000") },
		"Lookup miss":    func() { b.Lookup("10.0.0.2:7000") },
		"Addr":           func() { _ = b.Addr(id) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.1f times, want 0", name, n)
		}
	}
	if b.Len() != 1 {
		t.Fatalf("reads grew the book to %d addresses", b.Len())
	}
}

// BenchmarkBookCanonical is the decoder's per-address cost: a hit in a
// book the size of a fleet.
func BenchmarkBookCanonical(b *testing.B) {
	book := NewBook()
	addrs := make([][]byte, 512)
	for i := range addrs {
		addrs[i] = []byte(fmt.Sprintf("127.0.0.1:41000#%d", i))
		book.Intern(string(addrs[i]))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := book.Canonical(addrs[i&511]); !ok {
			b.Fatal("miss")
		}
	}
}
