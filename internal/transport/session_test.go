package transport

import (
	"math/rand"
	"testing"
)

func TestSessionsCreateAndReuse(t *testing.T) {
	created := 0
	s := NewSessions(4, func(peer string) *int {
		created++
		v := created
		return &v
	})
	a := s.Get("a")
	if *a != 1 {
		t.Fatalf("first session = %d", *a)
	}
	if again := s.Get("a"); again != a {
		t.Fatal("Get did not reuse the session")
	}
	if created != 1 {
		t.Fatalf("newFn ran %d times", created)
	}
	if _, ok := s.Peek("b"); ok {
		t.Fatal("Peek created a session")
	}
}

func TestSessionsLRUEviction(t *testing.T) {
	s := NewSessions(2, func(peer string) *string { p := peer; return &p })
	s.Get("a")
	s.Get("b")
	s.Get("a") // refresh a; b is now oldest
	s.Get("c") // evicts b
	if _, ok := s.Peek("b"); ok {
		t.Fatal("least recently used session survived")
	}
	if _, ok := s.Peek("a"); !ok {
		t.Fatal("recently used session evicted")
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestSessionsForget(t *testing.T) {
	s := NewSessions(0, func(peer string) *struct{} { return &struct{}{} })
	s.Get("a")
	s.Forget("a")
	if s.Len() != 0 {
		t.Fatal("Forget left the session")
	}
}

// lruOracle is the plain LRU the table must behave as: a slice of keys,
// most recently used last.
type lruOracle[K comparable] struct {
	cap  int
	keys []K
}

// get reports whether k was held and, when making room for it evicted a
// key, which.
func (o *lruOracle[K]) get(k K) (hit bool, victim K, evicted bool) {
	for i, x := range o.keys {
		if x == k {
			o.keys = append(append(o.keys[:i:i], o.keys[i+1:]...), k)
			return true, victim, false
		}
	}
	if len(o.keys) == o.cap {
		victim, evicted = o.keys[0], true
		o.keys = o.keys[1:]
	}
	o.keys = append(o.keys, k)
	return false, victim, evicted
}

func (o *lruOracle[K]) has(k K) bool {
	for _, x := range o.keys {
		if x == k {
			return true
		}
	}
	return false
}

func (o *lruOracle[K]) forget(k K) {
	for i, x := range o.keys {
		if x == k {
			o.keys = append(o.keys[:i:i], o.keys[i+1:]...)
			return
		}
	}
}

// recycled is a session state with a Reset method: the table must hand
// it on, reset, instead of replacing it. owner is the key the test wrote
// into it after Get; resets counts the hand-overs.
type recycled[K comparable] struct {
	owner  K
	owned  bool
	resets int
}

func (r *recycled[K]) Reset() { *r = recycled[K]{resets: r.resets + 1} }

// driveSessions runs ops — one byte each: the low two bits pick Get, Get,
// Peek or Forget, the rest the key — against a table of the given cap and
// the oracle, and checks after every step: same hit or miss, same victim
// (the victim is gone, every other key still there), Len equal and within
// cap, and no session reachable under two keys.
func driveSessions[K comparable](t *testing.T, cap int, key func(byte) K, ops []byte) {
	t.Helper()
	s := NewSessions[K, recycled[K]](cap, nil)
	if cap < 1 {
		cap = DefaultSessionCap
	}
	o := &lruOracle[K]{cap: cap}
	for step, op := range ops {
		k := key(op >> 2)
		switch op & 3 {
		case 0, 1:
			_, held := s.Peek(k)
			evictions := s.Evictions()
			hit, victim, evicted := o.get(k)
			if held != hit {
				t.Fatalf("step %d: Peek(%v) before Get = %v, oracle holds it: %v", step, k, held, hit)
			}
			p := s.Get(k)
			if hit != (p.owned && p.owner == k) {
				t.Fatalf("step %d: Get(%v) returned %+v, oracle hit = %v", step, k, *p, hit)
			}
			if !hit && p.owned {
				t.Fatalf("step %d: Get(%v) handed out a session still owned by %v", step, k, p.owner)
			}
			if (s.Evictions() != evictions) != evicted {
				t.Fatalf("step %d: Get(%v) evicted: %v, oracle: %v", step, k, s.Evictions() != evictions, evicted)
			}
			if evicted {
				if _, ok := s.Peek(victim); ok {
					t.Fatalf("step %d: Get(%v) should have evicted %v", step, k, victim)
				}
			}
			p.owner, p.owned = k, true
		case 2:
			p, ok := s.Peek(k)
			if ok != o.has(k) {
				t.Fatalf("step %d: Peek(%v) = %v, oracle %v", step, k, ok, o.has(k))
			}
			if ok && (!p.owned || p.owner != k) {
				t.Fatalf("step %d: Peek(%v) returned the session of %+v", step, k, *p)
			}
		case 3:
			s.Forget(k)
			o.forget(k)
			if _, ok := s.Peek(k); ok {
				t.Fatalf("step %d: Forget(%v) left the session", step, k)
			}
		}
		if s.Len() != len(o.keys) || s.Len() > cap {
			t.Fatalf("step %d: Len %d, oracle %d, cap %d", step, s.Len(), len(o.keys), cap)
		}
		seen := make(map[*recycled[K]]K, len(o.keys))
		for _, x := range o.keys {
			p, ok := s.Peek(x)
			if !ok {
				t.Fatalf("step %d: %v is gone, the oracle still holds it", step, x)
			}
			if other, dup := seen[p]; dup {
				t.Fatalf("step %d: one session reachable as %v and as %v", step, other, x)
			}
			seen[p] = x
		}
	}
}

var sessionCaps = []int{1, 2, 62, 0} // 0 = DefaultSessionCap, the indexed table

func int32Key(b byte) int32   { return int32(b) - 3 } // negative, zero and positive ids
func stringKey(b byte) string { return string(rune('a' + b)) }

// TestSessionsMatchLRUModel drives random operation sequences, over few
// enough keys to keep hitting and enough to keep evicting, and a long
// sweep that fills the largest table.
func TestSessionsMatchLRUModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cap := range sessionCaps {
		for trial := 0; trial < 20; trial++ {
			ops := make([]byte, 600)
			for i := range ops {
				ops[i] = byte(rng.Intn(256))
			}
			driveSessions(t, cap, int32Key, ops)
			driveSessions(t, cap, stringKey, ops)
		}
	}
	// 64 keys never fill 512 slots: a wider key space for the indexed table.
	s := NewSessions[int32, recycled[int32]](0, nil)
	o := &lruOracle[int32]{cap: DefaultSessionCap}
	for i := 0; i < 3000; i++ {
		k := int32(rng.Intn(700))
		hit, victim, evicted := o.get(k)
		p := s.Get(k)
		if hit != p.owned || (hit && p.owner != k) {
			t.Fatalf("Get(%d) returned %+v, oracle hit = %v", k, *p, hit)
		}
		if evicted {
			if _, ok := s.Peek(victim); ok {
				t.Fatalf("Get(%d) should have evicted %d", k, victim)
			}
		}
		p.owner, p.owned = k, true
		if rng.Intn(10) == 0 {
			f := int32(rng.Intn(700))
			s.Forget(f)
			o.forget(f)
		}
		if s.Len() != len(o.keys) {
			t.Fatalf("Len %d, oracle %d", s.Len(), len(o.keys))
		}
	}
	if s.Evictions() == 0 {
		t.Fatal("the sweep never filled the default-size table")
	}
}

// FuzzSessions: any operation sequence keeps the table equal to the LRU
// model, at every cap and for both key types.
func FuzzSessions(f *testing.F) {
	f.Add([]byte{0, 4, 8, 0, 12, 6, 3, 0, 16})
	f.Add([]byte{0, 0, 3, 0, 4, 7, 4, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, cap := range sessionCaps {
			driveSessions(t, cap, int32Key, ops)
			driveSessions(t, cap, stringKey, ops)
		}
	})
}

// TestSessionsRecycleOrReplace: a session type with a Reset method is
// handed on through it; one without is replaced by newFn's state, or the
// zero value.
func TestSessionsRecycleOrReplace(t *testing.T) {
	r := NewSessions[string, recycled[string]](1, nil)
	a := r.Get("a")
	a.owner, a.owned = "a", true
	b := r.Get("b")
	if b != a || b.owned || b.resets != 1 {
		t.Fatalf("the evicted session was not handed on through Reset: %+v", *b)
	}
	made := 0
	n := NewSessions(1, func(peer string) *string { made++; p := "new:" + peer; return &p })
	*n.Get("a") = "used"
	if got := *n.Get("b"); got != "new:b" || made != 2 {
		t.Fatalf("evicting a session without Reset left %q after %d newFn calls", got, made)
	}
	z := NewSessions[string, int](1, nil)
	*z.Get("a") = 7
	if got := *z.Get("b"); got != 0 {
		t.Fatalf("evicting a session without Reset or newFn left %d", got)
	}
	z.Forget("b")
	*z.Get("c") = 9
	if z.Len() != 1 || z.Evictions() != 1 {
		t.Fatalf("Len %d, Evictions %d after a forget and a refill; want 1 and 1", z.Len(), z.Evictions())
	}
}
