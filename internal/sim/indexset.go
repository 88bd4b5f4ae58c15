package sim

import "antientropy/internal/stats"

// IndexSet is a constant-time add/remove/sample set over [0, n); the
// engine tracks its live membership with it. It is not safe for
// concurrent mutation, but concurrent reads (Contains, Random with
// caller-owned RNGs) are safe while no writer runs — the property the
// engine's parallel exchange phase relies on.
type IndexSet struct {
	items []int32
	pos   []int32 // pos[id] = index into items, or -1
}

// NewIndexSet returns a set over [0, n), full or empty.
func NewIndexSet(n int, full bool) *IndexSet {
	s := &IndexSet{items: make([]int32, 0, n), pos: make([]int32, n)}
	for i := range s.pos {
		s.pos[i] = -1
	}
	if full {
		for i := 0; i < n; i++ {
			s.items = append(s.items, int32(i))
			s.pos[i] = int32(i)
		}
	}
	return s
}

// Len returns the number of members.
func (s *IndexSet) Len() int { return len(s.items) }

// Contains reports membership of id.
func (s *IndexSet) Contains(id int) bool { return s.pos[id] >= 0 }

// Add inserts id (no-op when present).
func (s *IndexSet) Add(id int) {
	if s.pos[id] >= 0 {
		return
	}
	s.pos[id] = int32(len(s.items))
	s.items = append(s.items, int32(id))
}

// Remove deletes id (no-op when absent).
func (s *IndexSet) Remove(id int) {
	p := s.pos[id]
	if p < 0 {
		return
	}
	last := int32(len(s.items) - 1)
	moved := s.items[last]
	s.items[p] = moved
	s.pos[moved] = p
	s.items = s.items[:last]
	s.pos[id] = -1
}

// Random returns a uniformly random member; the set must be non-empty.
func (s *IndexSet) Random(rng *stats.RNG) int {
	return int(s.items[rng.Intn(len(s.items))])
}

// Items exposes the member slice in arbitrary order. Callers must treat
// it as read-only and must not retain it across mutations.
func (s *IndexSet) Items() []int32 { return s.items }
