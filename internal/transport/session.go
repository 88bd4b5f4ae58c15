package transport

// Sessions is a bounded per-peer session table for connectionless
// transports: datagram endpoints have no connection object to hang
// per-peer protocol state on (the delta-gossip codec's), so the runtime
// keys that state by peer here — by whatever the caller
// identifies a peer with: the address string, or the address-book id a
// node has at hand anyway, which compares faster.
//
// The table is bounded by recency and its storage is fixed: cap slots,
// allocated once when the first peer is met, each holding a session by
// value. A peer not in the table takes a slot never used before or, once
// there is none, the slot of the peer idle longest — and takes it over as
// it is: when *S has a Reset method, eviction calls it and the new peer
// starts from whatever Reset leaves (a session that owns buffers keeps
// them, emptied); otherwise the slot is overwritten with a fresh state.
// After the table has filled, meeting a new peer therefore allocates
// nothing.
//
// Eviction means first contact: an evicted peer that is met again starts
// from the state a never-seen peer starts from. The protocol layered on
// top (wire.ViewCodec's handshake) is built to re-establish itself
// from nothing, and has to be anyway for a peer that
// restarts. How much state a node keeps is therefore the caller's choice
// of cap, not a function of how many peers exist: the agent sizes it by
// its view, because a session older than a few view turnovers has
// nothing left to say (see agent.Node).
//
// A *S returned by Get or Peek points into the table and stays the
// session of that peer until the peer is evicted or forgotten. Sessions
// is not safe for concurrent use; callers serialize access under their
// own lock (the agent holds its node mutex).
type Sessions[K comparable, S any] struct {
	cap   int
	newFn func(peer K) *S
	// keys, used and vals are parallel, one element per slot, cap long.
	// Slots [0, hi) have been handed out at least once; used is the clock
	// reading of a slot's last Get, 0 for a slot that was forgotten. The
	// key scan and the search for the idlest slot each walk one dense
	// array, not the sessions.
	keys  []K
	used  []uint64
	vals  []S
	hi    int
	n     int
	clock uint64
	// index finds a peer's slot in tables too large to scan (nil below
	// indexAbove slots).
	index     map[K]int32
	evictions uint64
}

// DefaultSessionCap bounds the session table when the caller passes no
// explicit capacity. It is generous — several hundred peers' worth of
// state, all of it allocated up front — and meant for a process that
// keeps one table; a process that hosts many nodes passes each table the
// bound its protocol needs.
const DefaultSessionCap = 512

// indexAbove is the table size above which a peer's slot is found
// through a map instead of a scan of the keys: a scan of 64 four-byte
// keys reads four cache lines and beats hashing.
const indexAbove = 64

// resetter is what a session type implements to be recycled on eviction
// instead of replaced.
type resetter interface{ Reset() }

// NewSessions builds a session table holding at most cap peers
// (DefaultSessionCap when cap < 1). newFn, when not nil, supplies the
// state a session starts from — for a peer seen for the first time, or
// seen again after eviction when *S has no Reset method; its result is
// copied into the table. A nil newFn starts sessions from the zero S.
func NewSessions[K comparable, S any](cap int, newFn func(peer K) *S) *Sessions[K, S] {
	if cap < 1 {
		cap = DefaultSessionCap
	}
	return &Sessions[K, S]{cap: cap, newFn: newFn}
}

// find returns the slot holding peer's session, -1 when it has none.
func (s *Sessions[K, S]) find(peer K) int {
	if s.index != nil {
		if i, ok := s.index[peer]; ok {
			return int(i)
		}
		return -1
	}
	for i, k := range s.keys[:s.hi] {
		if k == peer && s.used[i] != 0 {
			return i
		}
	}
	return -1
}

// Get returns the session for peer, creating it on first contact and
// marking it most recently used. When the table is full, the least
// recently used session is evicted and its slot recycled for peer.
func (s *Sessions[K, S]) Get(peer K) *S {
	i := s.find(peer)
	if i < 0 {
		i = s.claim(peer)
	}
	s.clock++
	s.used[i] = s.clock
	return &s.vals[i]
}

// claim finds a slot for a peer the table does not hold — a forgotten
// slot, else one never handed out, else the least recently used — and
// starts the peer's session in it.
func (s *Sessions[K, S]) claim(peer K) int {
	if s.keys == nil {
		s.keys = make([]K, s.cap)
		s.used = make([]uint64, s.cap)
		s.vals = make([]S, s.cap)
		if s.cap > indexAbove {
			s.index = make(map[K]int32, s.cap)
		}
	}
	var i int
	fresh := false
	switch {
	case s.n < s.hi:
		for i = 0; s.used[i] != 0; i++ {
		}
	case s.hi < s.cap:
		i, fresh = s.hi, true
		s.hi++
	default:
		// A linear scan is deliberate: it walks one dense array, and only
		// when a new peer meets a full table.
		for j, u := range s.used {
			if u < s.used[i] {
				i = j
			}
		}
		if s.index != nil {
			delete(s.index, s.keys[i])
		}
		s.evictions++
		s.n--
	}
	p := &s.vals[i]
	if r, ok := any(p).(resetter); ok && !fresh {
		r.Reset()
	} else if s.newFn != nil {
		*p = *s.newFn(peer)
	} else if !fresh {
		var zero S
		*p = zero
	}
	s.keys[i] = peer
	if s.index != nil {
		s.index[peer] = int32(i)
	}
	s.n++
	return i
}

// Peek returns the session for peer without creating one or touching
// recency.
func (s *Sessions[K, S]) Peek(peer K) (*S, bool) {
	i := s.find(peer)
	if i < 0 {
		return nil, false
	}
	return &s.vals[i], true
}

// Forget drops the session for peer, if any. Its slot is the next one
// handed out, recycled like an evicted one.
func (s *Sessions[K, S]) Forget(peer K) {
	i := s.find(peer)
	if i < 0 {
		return
	}
	if s.index != nil {
		delete(s.index, peer)
	}
	var zero K
	s.keys[i] = zero // a string key must not pin its bytes
	s.used[i] = 0
	s.n--
}

// Len returns the number of tracked peers.
func (s *Sessions[K, S]) Len() int { return s.n }

// Evictions counts the sessions Get has evicted to make room.
func (s *Sessions[K, S]) Evictions() uint64 { return s.evictions }
