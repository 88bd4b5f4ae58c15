package transport

// Sessions is a bounded per-peer session table for connectionless
// transports: datagram endpoints have no connection object to hang
// negotiated protocol state on (wire version, delta-gossip codec state),
// so the runtime keys that state by peer here — by whatever the caller
// identifies a peer with: the address string, or the address-book id a
// node has at hand anyway, which hashes faster. The table is
// LRU-bounded — a long-lived node meets an unbounded stream of peers,
// and a session that has been idle longest is the one whose state is
// cheapest to lose: the protocols layered on top (wire.ViewCodec, the
// version handshake) are built to re-establish themselves from nothing.
//
// Sessions is not safe for concurrent use; callers serialize access
// under their own lock (the agent holds its node mutex).
type Sessions[K comparable, S any] struct {
	cap   int
	newFn func(peer K) *S
	used  uint64
	m     map[K]*sessionEntry[S]
}

type sessionEntry[S any] struct {
	val  *S
	used uint64
}

// DefaultSessionCap bounds the session table when the caller passes no
// explicit capacity: comfortably above a NEWSCAST view plus transient
// contacts, small enough that state stays negligible per node.
const DefaultSessionCap = 512

// NewSessions builds a session table holding at most cap peers
// (DefaultSessionCap when cap < 1); newFn creates the state for a peer
// seen for the first time (or seen again after eviction).
func NewSessions[K comparable, S any](cap int, newFn func(peer K) *S) *Sessions[K, S] {
	if cap < 1 {
		cap = DefaultSessionCap
	}
	return &Sessions[K, S]{cap: cap, newFn: newFn, m: make(map[K]*sessionEntry[S])}
}

// Get returns the session for peer, creating it on first contact and
// marking it most recently used. When the table is full, the least
// recently used session is evicted to make room.
func (s *Sessions[K, S]) Get(peer K) *S {
	e, ok := s.m[peer]
	if !ok {
		if len(s.m) >= s.cap {
			s.evictOldest()
		}
		e = &sessionEntry[S]{val: s.newFn(peer)}
		s.m[peer] = e
	}
	s.used++
	e.used = s.used
	return e.val
}

// Peek returns the session for peer without creating one or touching
// recency.
func (s *Sessions[K, S]) Peek(peer K) (*S, bool) {
	e, ok := s.m[peer]
	if !ok {
		return nil, false
	}
	return e.val, true
}

// Forget drops the session for peer, if any.
func (s *Sessions[K, S]) Forget(peer K) {
	delete(s.m, peer)
}

// Len returns the number of tracked peers.
func (s *Sessions[K, S]) Len() int { return len(s.m) }

// evictOldest removes the least recently used entry. A linear scan is
// deliberate: eviction only happens when the table is at capacity, and
// the capacity is small enough that a scan beats the bookkeeping of an
// intrusive list on every Get.
func (s *Sessions[K, S]) evictOldest() {
	var oldestKey K
	var oldest uint64
	first := true
	for k, e := range s.m {
		if first || e.used < oldest {
			first = false
			oldest = e.used
			oldestKey = k
		}
	}
	if !first {
		delete(s.m, oldestKey)
	}
}
