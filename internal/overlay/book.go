package overlay

import (
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"
)

// SplitAddrList parses a comma-separated contact list ("a:1, b:2,") into
// the address slice the membership constructors take, trimming blanks —
// the one seeding-boilerplate parser shared by every CLI and example.
func SplitAddrList(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Book interns transport addresses to the dense int32 keys the packed
// Membership representation needs, and resolves them back for the wire.
// Ids are assigned in first-seen order and never recycled: a process
// meets a few thousand distinct peers over its lifetime at most, and
// 32 bits of id space outlast any deployment.
//
// A Book is safe for concurrent use, and is meant to be shared: every
// node of a process interns through one instance, so the few hundred
// addresses a fleet gossips about stay in cache instead of being spread
// over one cold map per node. Lookup, Canonical and Addr take no lock,
// on a hit or on a miss. The index is an insert-only open-addressed
// table whose slots are published atomically; when it fills, a doubled
// copy is published in its place and the old one stays valid for the
// readers still probing it. Such a reader can miss an address interned
// after it loaded its table. That costs Canonical's caller one string
// copy and sends Intern to its locked slow path, which looks again.
// Inserts are serialized by a mutex and cost amortised O(1).
//
// Addresses arrive off the network, so the hash is seeded per book: a
// peer cannot choose addresses that pile up in one probe sequence.
type Book struct {
	seed maphash.Seed
	// mu serializes Intern's insert path, growth included.
	mu sync.Mutex
	// n counts the ids assigned. It is stored after the address of id
	// n-1 is in place, so a reader that finds id < n may read that
	// address from the table it loads next.
	n atomic.Int32
	t atomic.Pointer[bookTable]
}

// bookTable is one published size of the book: the id → address array
// and a hash index over it with twice as many slots, so the index is at
// most half full.
type bookTable struct {
	// slots[i] is 0 when empty, else hash<<32 | id+1. The probe start is
	// the hash's low bits, so growth re-places a slot without re-reading
	// the address.
	slots []atomic.Uint64
	// addrs[id] is written once, before the slot that names it.
	addrs []string
}

// bookMinAddrs is the capacity of a new book's first table.
const bookMinAddrs = 64

func newBookTable(addrs int) *bookTable {
	return &bookTable{slots: make([]atomic.Uint64, 2*addrs), addrs: make([]string, addrs)}
}

// NewBook returns an empty address book.
func NewBook() *Book {
	b := &Book{seed: maphash.MakeSeed()}
	b.t.Store(newBookTable(bookMinAddrs))
	return b
}

// find probes for addr, whose hash is h.
func find[A string | []byte](t *bookTable, h uint32, addr A) (int32, bool) {
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i].Load()
		if s == 0 {
			return 0, false
		}
		if uint32(s>>32) != h {
			continue
		}
		if id := int32(uint32(s)) - 1; t.addrs[id] == string(addr) { // the conversion does not allocate
			return id, true
		}
	}
}

// place writes the slot for id at the first free position of h's probe
// sequence.
func (t *bookTable) place(h uint32, id int32) {
	mask := uint32(len(t.slots) - 1)
	i := h & mask
	for t.slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	t.slots[i].Store(uint64(h)<<32 | uint64(id+1))
}

// grown returns a table of twice the size holding everything t holds.
func (t *bookTable) grown() *bookTable {
	g := newBookTable(2 * len(t.addrs))
	copy(g.addrs, t.addrs)
	for i := range t.slots {
		if s := t.slots[i].Load(); s != 0 {
			g.place(uint32(s>>32), int32(uint32(s))-1)
		}
	}
	return g
}

func (b *Book) hashString(addr string) uint32 { return uint32(maphash.String(b.seed, addr) >> 32) }

// Intern returns the id for addr, assigning the next free id on first
// sight.
func (b *Book) Intern(addr string) int32 {
	h := b.hashString(addr)
	if id, ok := find(b.t.Load(), h, addr); ok {
		return id
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.t.Load()
	if id, ok := find(t, h, addr); ok {
		return id // interned since the lock-free look, or that look was at an outgrown table
	}
	id := b.n.Load()
	if int(id) == len(t.addrs) {
		t = t.grown()
		b.t.Store(t)
	}
	t.addrs[id] = addr
	b.n.Store(id + 1)
	t.place(h, id)
	return id
}

// Lookup returns the id for addr without assigning one.
func (b *Book) Lookup(addr string) (int32, bool) {
	return find(b.t.Load(), b.hashString(addr), addr)
}

// Canonical returns the interned string equal to the address bytes and
// its id, without assigning an id and without allocating: the hook a
// decoder uses to resolve the addresses of a datagram it has not
// validated yet.
func (b *Book) Canonical(addr []byte) (string, int32, bool) {
	t := b.t.Load()
	id, ok := find(t, uint32(maphash.Bytes(b.seed, addr)>>32), addr)
	if !ok {
		return "", 0, false
	}
	return t.addrs[id], id, true
}

// Addr resolves an id back to its address ("" for an unknown id).
func (b *Book) Addr(id int32) string {
	if id < 0 || id >= b.n.Load() {
		return ""
	}
	return b.t.Load().addrs[id]
}

// Len returns the number of interned addresses.
func (b *Book) Len() int { return int(b.n.Load()) }
