package overlay

import "strings"

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
// Ids are assigned in first-seen order and never recycled: a live node
// meets a few thousand distinct peers over its lifetime at most, and
// 32 bits of id space outlast any deployment. Book is not safe for
// concurrent use — the agent serializes access under its node mutex.
type Book struct {
	ids   map[string]int32
	addrs []string
}

// NewBook returns an empty address book.
func NewBook() *Book {
	return &Book{ids: make(map[string]int32)}
}

// Intern returns the id for addr, assigning the next free id on first
// sight.
func (b *Book) Intern(addr string) int32 {
	if id, ok := b.ids[addr]; ok {
		return id
	}
	id := int32(len(b.addrs))
	b.ids[addr] = id
	b.addrs = append(b.addrs, addr)
	return id
}

// Lookup returns the id for addr without assigning one.
func (b *Book) Lookup(addr string) (int32, bool) {
	id, ok := b.ids[addr]
	return id, ok
}

// Canonical returns the interned string equal to the address bytes,
// without assigning an id and without allocating: the hook a decoder
// uses to resolve the addresses of a datagram it has not validated yet.
func (b *Book) Canonical(addr []byte) (string, bool) {
	id, ok := b.ids[string(addr)] // map lookup: the conversion does not allocate
	if !ok {
		return "", false
	}
	return b.addrs[id], true
}

// Addr resolves an id back to its address ("" for an unknown id).
func (b *Book) Addr(id int32) string {
	if id < 0 || int(id) >= len(b.addrs) {
		return ""
	}
	return b.addrs[id]
}

// Len returns the number of interned addresses.
func (b *Book) Len() int { return len(b.addrs) }
