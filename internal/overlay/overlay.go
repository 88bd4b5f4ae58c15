// Package overlay is the unified membership layer of the system: one
// implementation of the NEWSCAST partial-view protocol (paper §4.4)
// behind a single Membership API, shared by the serial simulator, the
// sharded simulator and the live agent runtime.
//
// The canonical representation is a flat, allocation-free packed cache
// (lifted out of the sharded engine, where it was ~5× faster per
// exchange than the earlier generic comparator-sorted cache): every
// descriptor is one uint64, (^stamp)<<32 | key, so that ascending
// primitive order is "freshest first, key ascending on ties".
//
// Every stored view is kept in that order, strictly ascending, and every
// merge is one pass of one kernel (mergeDistinct, merge.go): a
// branch-free linear merge of two ascending lists — an exchange's are one
// view copied with the pair of fresh self-descriptors merged in and the
// other view, an absorb's the view and the remote half — that keeps the
// first occurrence of each key by marking a byte flag indexed by the key,
// and stops once it has one more survivor than the capacity; each view
// then takes the survivors minus its own key. The flags live in the
// caller's merge buffer, one per node of a table, and the kernel clears
// the ones it set before it returns. Nothing is sorted on the way, which
// is the kernel's precondition: its inputs must be ascending. Stored
// views always are; a view received from a peer is in the sender's
// order, so Absorb checks that half in one pass and sorts it (at most a
// view's worth of entries) only when it has to. Absorbing a handful of
// descriptors, a small fleet's frame or a few contacts, inserts them one
// at a time instead.
//
// A Table has no per-row header: row i is backing[i·c:(i+1)·c] and
// lens[i], found from i alone, and a Membership's count is a pointer —
// a standalone cache owns it, a table row's points into lens.
// Table.Prefetch issues PREFETCHT0 over a row's first four cache lines
// (amd64 assembly, a no-op elsewhere) so the engine can start loading a
// view a few nodes before it needs it.
//
// Determinism contract: a merge keeps the cap freshest distinct keys of
// the union of both views plus both fresh self-descriptors, excluding
// the owner's own key; ties on the stamp are broken by ascending key.
// There is one implementation of it, so the serial engine, the sharded
// engine and the live agent produce identical merge results for identical
// inputs; TestPackedMatchesGenericOnStampTies pins its tie-breaking
// against golden vectors frozen from the generic comparator-sorted cache
// it replaced.
package overlay

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"antientropy/internal/stats"
)

// DefaultCacheSize is the cache size the paper recommends: "choosing
// c = 30 is already sufficient to obtain fast convergence … and very
// stable and robust connectivity" (§4.4).
const DefaultCacheSize = 30

// ErrBadCacheSize reports an invalid capacity.
var ErrBadCacheSize = errors.New("overlay: cache size must be at least 1")

// Entry is one unpacked node descriptor: a key (node id / interned
// address) and the logical timestamp at which the node injected it.
type Entry struct {
	Key   int32
	Stamp int32
}

// Pack encodes a descriptor so that ascending uint64 order is
// "freshest first, key ascending on ties".
func Pack(key, stamp int32) uint64 {
	return uint64(^uint32(stamp))<<32 | uint64(uint32(key))
}

// UnpackKey extracts the key of a packed descriptor.
func UnpackKey(e uint64) int32 { return int32(uint32(e)) }

// UnpackStamp extracts the stamp of a packed descriptor.
func UnpackStamp(e uint64) int32 { return int32(^uint32(e >> 32)) }

// Membership is one node's packed partial view of the network — the
// single membership API every engine and the live agent program against.
// It never contains the node's own descriptor and never exceeds its
// capacity. Membership is not safe for concurrent use.
type Membership struct {
	self int32
	own  int32 // a standalone cache's count, which n points to
	cap  int
	// entries is the full-capacity backing array; the first *n slots hold
	// the view in packed ascending order (freshest first). Rows of a
	// Table alias its shared backing and count in its lens; standalone
	// caches own both.
	entries []uint64
	n       *int32
	// scratch is the merge workspace. A standalone cache owns one unless
	// its owner lends it one call by call (Lend); the rows of a Table
	// share the table's, so Absorb and Seed on rows of one table must not
	// run concurrently (Table.Exchange, which works on the caller's
	// buffer, may).
	scratch *[]uint64
}

// NewMembership returns an empty standalone cache of capacity c for the
// node with the given key (the live agent's per-node instance; engines
// use NewTable).
func NewMembership(self int32, c int) (*Membership, error) {
	if c < 1 {
		return nil, ErrBadCacheSize
	}
	m := &Membership{self: self, cap: c, entries: make([]uint64, c), scratch: new([]uint64)}
	m.n = &m.own
	return m, nil
}

// Lend points the cache's merges (Absorb, AbsorbPacked, Seed) at the
// caller's buffer, which they grow as they need, until the next Lend. A
// process that hosts many caches lends each the buffer of whoever is
// working on it, so a cache at rest is its view and nothing else;
// Lend(nil) takes the buffer back, and a merge without one panics.
func (m *Membership) Lend(scratch *[]uint64) { m.scratch = scratch }

// Self returns the owning node's key.
func (m *Membership) Self() int32 { return m.self }

// Capacity returns the cache capacity c.
func (m *Membership) Capacity() int { return m.cap }

// Len returns the number of descriptors currently cached.
func (m *Membership) Len() int { return int(*m.n) }

// Packed is the escape hatch: the live packed view, freshest first, key
// ascending on ties. The slice aliases the cache — callers must not
// modify it and must not retain it across mutations. It is what the
// engines' exchange loops and the agent's wire encoder consume without
// any per-call allocation.
func (m *Membership) Packed() []uint64 { return m.entries[:*m.n] }

// Entries returns an unpacked copy of the cached descriptors, freshest
// first.
func (m *Membership) Entries() []Entry {
	out := make([]Entry, m.Len())
	for i, e := range m.Packed() {
		out[i] = Entry{Key: UnpackKey(e), Stamp: UnpackStamp(e)}
	}
	return out
}

// Contains reports whether the cache holds a descriptor for key.
func (m *Membership) Contains(key int32) bool {
	_, ok := m.Stamp(key)
	return ok
}

// Stamp returns the timestamp cached for key (ok = false if absent).
func (m *Membership) Stamp(key int32) (int32, bool) {
	for _, e := range m.Packed() {
		if UnpackKey(e) == key {
			return UnpackStamp(e), true
		}
	}
	return 0, false
}

// Peer returns a uniformly random cached descriptor key, used by
// GETNEIGHBOR of the aggregation protocol and by NEWSCAST itself. The
// second result is false when the cache is empty.
func (m *Membership) Peer(rng *stats.RNG) (int32, bool) {
	if *m.n == 0 {
		return 0, false
	}
	return UnpackKey(m.entries[rng.Intn(int(*m.n))]), true
}

// View returns what the node sends in an exchange: its cache content
// plus its own descriptor stamped now. Nodes continuously inject their
// own fresh descriptor this way; crashed nodes, by definition, stop.
func (m *Membership) View(now int32) []Entry {
	out := make([]Entry, 0, m.Len()+1)
	for _, e := range m.Packed() {
		out = append(out, Entry{Key: UnpackKey(e), Stamp: UnpackStamp(e)})
	}
	return append(out, Entry{Key: m.self, Stamp: now})
}

// AppendView appends the packed view (cache content plus a fresh self
// descriptor) to dst — the allocation-free counterpart of View.
func (m *Membership) AppendView(dst []uint64, now int32) []uint64 {
	dst = append(dst, m.Packed()...)
	return append(dst, Pack(m.self, now))
}

// smallAbsorb is the remote size up to which Absorb updates the view one
// descriptor at a time instead of running the merge kernel — the frames
// of a fleet smaller than a view, and contacts added by hand, carry a
// handful of descriptors. The kernel costs about the same whatever the remote size
// (it walks the whole stored view), an insertion about a tenth of that.
const smallAbsorb = 8

// Absorb merges remote descriptors into the cache: the union of the
// current content and the remote view is deduplicated per key keeping
// the freshest stamp, the node's own descriptor is dropped, and the cap
// freshest survivors are kept (stamp ties broken by ascending key).
func (m *Membership) Absorb(remote []Entry) {
	if len(remote) <= smallAbsorb {
		for _, e := range remote {
			m.absorbOne(Pack(e.Key, e.Stamp))
		}
		return
	}
	stage := m.stage(len(remote))
	for i, e := range remote {
		stage[i] = Pack(e.Key, e.Stamp)
	}
	m.absorbScratch(stage)
}

// AbsorbPacked merges an already-packed remote view into the cache. The
// view may arrive in any order and is not modified.
func (m *Membership) AbsorbPacked(remote []uint64) {
	if len(remote) <= smallAbsorb {
		for _, e := range remote {
			m.absorbOne(e)
		}
		return
	}
	stage := m.stage(len(remote))
	copy(stage, remote)
	m.absorbScratch(stage)
}

// absorbOne merges a single descriptor, keeping the view sorted. It is
// exactly the batch merge applied one candidate at a time: trimming to
// cap only ever drops the current stalest survivor and later candidates
// only raise the bar, so the sequential result equals the batch top-cap
// of the union.
func (m *Membership) absorbOne(e uint64) {
	key := UnpackKey(e)
	if key == m.self {
		return
	}
	for i, x := range m.Packed() {
		if UnpackKey(x) != key {
			continue
		}
		if x <= e {
			return // cached descriptor is at least as fresh
		}
		copy(m.entries[i:*m.n-1], m.entries[i+1:*m.n])
		*m.n--
		break
	}
	at, _ := slices.BinarySearch(m.Packed(), e)
	if at == m.cap {
		return // staler than a full view's every entry
	}
	if int(*m.n) < m.cap {
		*m.n++
	}
	copy(m.entries[at+1:*m.n], m.entries[at:*m.n-1])
	m.entries[at] = e
}

// stage sizes the scratch buffer for one merge and returns its staging
// area: n words behind the merge's flags and output.
func (m *Membership) stage(n int) []uint64 {
	work := workspace(*m.scratch, m.cap+1, 0, n)
	*m.scratch = work
	return work[len(work)-n:]
}

// absorbScratch completes a merge whose remote half sits in the staging
// area of the scratch buffer. The stored view is ascending already; the
// remote half is in the sender's order (stamp ties follow its key space,
// not ours), so it is sorted here — but only when one linear check finds
// it out of order.
func (m *Membership) absorbScratch(remote []uint64) {
	if !slices.IsSorted(remote) {
		slices.Sort(remote)
	}
	m.install(mergeDistinct(*m.scratch, m.cap+1, uint32(m.self), m.Packed(), remote))
}

// install replaces the view with the merged survivors minus the node's
// own descriptor, truncated to cap. Because kept holds the cap+1
// freshest distinct keys of a union, dropping the node's own key leaves
// exactly the cap freshest foreign descriptors.
func (m *Membership) install(kept []uint64) {
	at := 0
	for at < len(kept) && UnpackKey(kept[at]) != m.self {
		at++
	}
	w := copy(m.entries, kept[:at])
	if at < len(kept) {
		w += copy(m.entries[w:], kept[at+1:])
	}
	*m.n = int32(w)
}

// Seed bootstraps the cache of a joining node from out-of-band contacts
// (§4.2 assumes such a discovery mechanism exists). Existing content is
// replaced.
func (m *Membership) Seed(entries []Entry) {
	*m.n = 0
	m.Absorb(entries)
}

// SeedRandom fills the view with up to size distinct random peers drawn
// uniformly from [0, total), excluding the node itself, all stamped now —
// the engines' warmed-up bootstrap. Like a real joiner's out-of-band
// contact list, the sample may briefly include a dead slot; NEWSCAST
// repairs that within a cycle or two. size is clamped to the capacity and
// to the candidates there are. The rejection-sampling draw order is part
// of the engine's determinism contract — do not reorder.
func (m *Membership) SeedRandom(size, total int, now int32, rng *stats.RNG) {
	candidates := total
	if m.self >= 0 && int(m.self) < total {
		candidates--
	}
	size = min(size, m.cap, candidates)
	if size < 1 {
		*m.n = 0
		return
	}
	w := 0
	for w < size {
		c := rng.Intn(total)
		if int32(c) == m.self {
			continue
		}
		dup := false
		for x := 0; x < w; x++ {
			if UnpackKey(m.entries[x]) == int32(c) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		m.entries[w] = Pack(int32(c), now)
		w++
	}
	// Restore the freshest-first, key-ascending storage order (all
	// stamps are equal here, so this is a key sort).
	slices.Sort(m.entries[:w])
	*m.n = int32(w)
}

// Oldest returns the smallest stamp in the cache (0, false when empty);
// used to monitor overlay freshness and in tests of crash repair.
func (m *Membership) Oldest() (int32, bool) {
	if *m.n == 0 {
		return 0, false
	}
	// Packed order is freshest first, so the minimum stamp is near the
	// end — but equal-stamp runs sort by key, so scan the whole view.
	min := UnpackStamp(m.entries[0])
	for _, e := range m.entries[1:*m.n] {
		if s := UnpackStamp(e); s < min {
			min = s
		}
	}
	return min, true
}

// Exchange performs one full NEWSCAST exchange between two live nodes at
// logical time now: both merge the union of both views plus both fresh
// self-descriptors. For standalone caches, on a's scratch buffer; engines
// use Table.Exchange, which is the same merge on shared backing storage.
func Exchange(a, b *Membership, now int32) {
	*a.scratch = exchange(*a.scratch, 0, uint32(a.self), a, b, now)
}

// exchange merges both stored views and both fresh self-descriptors once,
// to one more survivor than the larger capacity, and installs the result
// in both views. It uses and returns the caller's scratch buffer, with
// flags for at least keys key indices under mask (see merge.go); the
// fresh self-descriptors go into a copy of a's view in its staging words,
// so the kernel merges two lists.
func exchange(scratch []uint64, keys int, mask uint32, a, b *Membership, now int32) []uint64 {
	limit := max(a.cap, b.cap) + 1
	scratch = workspace(scratch, limit, keys, a.cap+2)
	lo, hi := Pack(a.self, now), Pack(b.self, now)
	if lo > hi {
		lo, hi = hi, lo
	}
	view := a.Packed()
	stage := scratch[len(scratch)-len(view)-2:]
	p := 0
	for p < len(view) && view[p] < lo {
		p++
	}
	q := p
	for q < len(view) && view[q] < hi {
		q++
	}
	copy(stage, view[:p])
	stage[p] = lo
	copy(stage[p+1:], view[p:q])
	stage[q+1] = hi
	copy(stage[q+2:], view[q:])
	kept := mergeDistinct(scratch, limit, mask, stage, b.Packed())
	a.install(kept)
	b.install(kept)
	return scratch
}

// Table is a flat array of N packed views sharing one backing slice —
// the engines' representation. Row i is node i's view with self = i: its
// c descriptors are backing[i·c:(i+1)·c] and its length lens[i], so a
// row is addressed from i alone, with no per-row header to load first.
type Table struct {
	cap     int
	lens    []int32
	backing []uint64
	scratch []uint64
}

// collectAbove is the backing size, in descriptors (1 MiB), from which
// NewTable collects garbage before it allocates.
const collectAbove = 1 << 17

// NewTable builds an empty table of n views with capacity c each.
//
// A table is an engine's one large allocation, and engines are built one
// after another — the repetitions of a sweep, a serial and a sharded run
// of one scenario — each dropping the table before it. Whether the
// concurrent collector has returned that table by the time the next one
// asks for its backing is a matter of timing, and the process's peak
// memory read one, two or three tables from run to run (28–44 MiB for the
// same seed at N = 20000). A large table therefore collects first: the
// peak is one table plus what is live, every time, for a few milliseconds
// on a build that takes tens.
func NewTable(n, c int) (*Table, error) {
	if c < 1 {
		return nil, ErrBadCacheSize
	}
	if n < 1 {
		return nil, fmt.Errorf("overlay: invalid table size %d", n)
	}
	if n*c >= collectAbove {
		runtime.GC()
	}
	return &Table{cap: c, lens: make([]int32, n), backing: make([]uint64, n*c)}, nil
}

// N returns the number of views.
func (t *Table) N() int { return len(t.lens) }

// Cap returns the per-view capacity c.
func (t *Table) Cap() int { return t.cap }

// row is node i's view as a Membership value, for the table's own
// methods to use on the stack.
func (t *Table) row(i int) Membership {
	c := t.cap
	return Membership{
		self:    int32(i),
		cap:     c,
		entries: t.backing[i*c : (i+1)*c : (i+1)*c],
		n:       &t.lens[i],
		scratch: &t.scratch,
	}
}

// At returns node i's Membership. The handle is live: it reads and
// writes the table's storage.
func (t *Table) At(i int) *Membership {
	m := t.row(i)
	return &m
}

// SeedRandom is At(i).SeedRandom without building the handle.
func (t *Table) SeedRandom(i, size, total int, now int32, rng *stats.RNG) {
	m := t.row(i)
	m.SeedRandom(size, total, now, rng)
}

// Neighbor draws a uniform member of node i's current view (-1 when the
// view is empty) — GETNEIGHBOR on the table without the tuple return.
func (t *Table) Neighbor(i int, rng *stats.RNG) int {
	n := t.lens[i]
	if n == 0 {
		return -1
	}
	return int(UnpackKey(t.backing[i*t.cap+rng.Intn(int(n))]))
}

// Prefetch asks the CPU to start loading node i's row, so that a
// Neighbor or Exchange on it a few nodes later finds it in cache. It
// has no effect on results, and none at all on architectures without a
// prefetch instruction here.
func (t *Table) Prefetch(i int) { prefetchRow(&t.backing[i*t.cap]) }

// Exchange performs one full NEWSCAST exchange between live nodes i and
// j at logical time cycle, using (and returning) the caller's scratch
// buffer: both views merge the union of both views plus both fresh
// self-descriptors and keep the freshest cap distinct keys excluding
// their own.
func (t *Table) Exchange(scratch []uint64, i, j, cycle int) []uint64 {
	a, b := t.row(i), t.row(j)
	return exchange(scratch, len(t.lens), 0, &a, &b, int32(cycle))
}
