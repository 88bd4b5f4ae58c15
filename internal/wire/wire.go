// Package wire defines the binary message format spoken by live
// aggregation nodes (internal/agent) over any transport. The format is
// hand-rolled on encoding/binary — length-prefixed, versioned, and
// strictly validated, so a malformed datagram can never crash a node.
//
// Layout (big endian):
//
//	magic   [4]byte  "AE04"
//	version uint8    3, the one version; any other is ErrBadVersion
//	type    uint8    message type tag
//	body    ...      type-specific fields
//
// Strings are uint16 length + bytes; descriptor and map-entry lists are
// uint16 count + records, capped to keep every message inside a single
// UDP datagram. Every node speaks this one version and nothing is
// negotiated: the earlier layouts (version 1's plain descriptor lists,
// version 2's payload without an XID) are not decoded.
//
// # View frames
//
// The NEWSCAST view travels as a ViewFrame. A live node sends every frame
// full: its whole packed view plus a fresh self-descriptor, Gen 0 and
// Ack 0 (it numbers nothing and acknowledges nothing), and absorbs every
// frame it receives whatever its Kind, since NEWSCAST absorption is a
// merge that keeps the freshest descriptor per key. The format also
// carries delta frames — only the descriptors new or fresher than the
// snapshot the peer last acknowledged, numbered per connection (Gen),
// acknowledging the peer's newest frame (Ack) and naming the snapshot
// they extend (Base) — which ViewCodec builds. A delta is a subset of its
// sender's view, so a receiver that merges it as one loses nothing.
//
// That is why a fleet that mixes nodes with and without the codec keeps
// gossiping. A codec sends a delta only once the peer has acknowledged
// its pending frame; a node that always answers Ack 0 never does, so the
// codec keeps sending it full frames. A codec whose connection was
// established before its peer changed over falls back to full frames as
// the acknowledged snapshot leaves its view.
//
// # Exchange identifiers
//
// The exchange payload carries a 64-bit exchange ID (XID) directly after
// Seq, stamped by the initiator and echoed verbatim in every reply
// (including refusal NACKs). The ID exists purely for observability:
// it lets the initiate, served and absorb/timeout trace events of one
// exchange — recorded on different nodes, possibly in different
// processes — stitch into a single causal span.
//
// # Ownership
//
// The hot path of a live node works on storage its caller owns. A
// Decoder decodes into buffers it reuses: the message it returns is
// valid until the next Decode on that decoder, and never aliases the
// datagram, which may be recycled at once (transport.Packet.Data, for
// its part, is the receiver's until Packet.Release). Each address is
// resolved once, by the Decoder's Lookup as it parses, and the id Lookup
// found comes back with the message (Descriptor.Key);
// Lookup records nothing, because the datagram may still fail validation
// further on. AppendEncode and ViewCodec.AppendView write into what the
// caller passes. Decode, Encode and EncodeView are the same code over
// fresh storage.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Magic identifies the protocol ("Anti-Entropy, DSN 2004").
var Magic = [4]byte{'A', 'E', '0', '4'}

// Version is the wire version (membership view frames, full or delta,
// plus traceable per-exchange identifiers).
const Version = 3

// Limits that keep any message within one UDP datagram.
const (
	// MaxAddrLen bounds an address string.
	MaxAddrLen = 256
	// MaxDescriptors bounds a membership gossip list.
	MaxDescriptors = 128
	// MaxMapEntries bounds the COUNT map payload.
	MaxMapEntries = 512
)

// Message type tags.
type MsgType uint8

// Message kinds exchanged by live nodes.
const (
	TExchangeRequest MsgType = iota + 1
	TExchangeReply
	TJoinRequest
	TJoinReply
	TMembership
	TMembershipReply
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TExchangeRequest:
		return "exchange-request"
	case TExchangeReply:
		return "exchange-reply"
	case TJoinRequest:
		return "join-request"
	case TJoinReply:
		return "join-reply"
	case TMembership:
		return "membership"
	case TMembershipReply:
		return "membership-reply"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(t))
	}
}

// Errors returned by Decode and Encode.
var (
	ErrTruncated   = errors.New("wire: truncated message")
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrBadType     = errors.New("wire: unknown message type")
	ErrTooLarge    = errors.New("wire: field exceeds limit")
	ErrBadViewKind = errors.New("wire: unknown view frame kind")
)

// Descriptor is a NEWSCAST membership entry on the wire.
type Descriptor struct {
	Addr  string
	Stamp int64
	// Key is the id a Decoder's Lookup returned for Addr, valid when Known
	// is set: the receiver resolves each address once, while decoding.
	// Neither field travels; encoding ignores them.
	Key   int32
	Known bool
}

// MapEntry is one (leader, estimate) pair of the COUNT map state.
type MapEntry struct {
	Leader int64
	Value  float64
}

// ViewKind tags a membership view frame.
type ViewKind uint8

// View frame kinds.
const (
	// ViewNone is the zero frame: no membership information attached
	// (refusal NACKs). Encoded as a single byte.
	ViewNone ViewKind = iota
	// ViewFull carries the sender's complete view — first contact, or a
	// refresh when a delta would not be smaller.
	ViewFull
	// ViewDelta carries only the descriptors that are new or fresher
	// than the snapshot the peer acknowledged (frame Base).
	ViewDelta
)

// String names the frame kind.
func (k ViewKind) String() string {
	switch k {
	case ViewNone:
		return "none"
	case ViewFull:
		return "full"
	case ViewDelta:
		return "delta"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(k))
	}
}

// ViewFrame is the versioned membership view attached to gossiping
// messages: a full packed view on first contact, deltas thereafter.
type ViewFrame struct {
	// Kind selects full, delta or no view.
	Kind ViewKind
	// Gen numbers this frame within the sender→receiver connection
	// (1-based; 0 means the sender does not track generations).
	Gen uint32
	// Ack echoes the highest Gen received from the peer (0 = none yet);
	// it is what promotes the sender's pending snapshot on the other
	// side and thereby enables delta frames in the reverse direction.
	Ack uint32
	// Base is the acknowledged generation this delta is relative to
	// (ViewDelta only).
	Base uint32
	// Entries are the carried descriptors.
	Entries []Descriptor
}

// Payload is the aggregation state carried by exchange messages.
type Payload struct {
	// Seq matches replies to requests.
	Seq uint64
	// XID is the fleet-wide exchange identifier: stamped by the
	// initiator, echoed in replies, recorded in trace events on both
	// sides.
	XID uint64
	// Epoch tags the protocol instance (§4.1).
	Epoch uint64
	// FuncID identifies the aggregate (see FuncID* constants).
	FuncID uint8
	// Flags carries exchange modifiers (FlagRefused).
	Flags uint8
	// Scalar is the estimate for scalar aggregates.
	Scalar float64
	// Entries is the map state for the COUNT aggregate.
	Entries []MapEntry
	// View piggybacks the NEWSCAST membership frame on every exchange.
	View ViewFrame
}

// FlagRefused marks a reply that declines the exchange (responder busy or
// not yet participating). The net effect equals the paper's timed-out
// exchange — it is skipped — but the initiator learns immediately instead
// of waiting out the timeout.
const FlagRefused uint8 = 1 << 0

// Function identifiers for Payload.FuncID.
const (
	FuncAverage uint8 = iota + 1
	FuncMin
	FuncMax
	FuncGeometricMean
	FuncCount
)

// Message is any decodable wire message.
type Message interface {
	// Type returns the message's wire tag.
	Type() MsgType
}

// ExchangeRequest opens a push-pull exchange (active thread of Figure 1).
type ExchangeRequest struct {
	From string
	Payload
}

// Type returns TExchangeRequest.
func (*ExchangeRequest) Type() MsgType { return TExchangeRequest }

// ExchangeReply answers an ExchangeRequest with the responder's state.
type ExchangeReply struct {
	From string
	Payload
}

// Type returns TExchangeReply.
func (*ExchangeReply) Type() MsgType { return TExchangeReply }

// JoinRequest asks an existing node for epoch timing and bootstrap
// contacts (§4.2).
type JoinRequest struct {
	From string
	Seq  uint64
}

// Type returns TJoinRequest.
func (*JoinRequest) Type() MsgType { return TJoinRequest }

// JoinReply hands a joiner the next epoch it may participate in, the time
// until that epoch starts, and membership seeds. Seeds stay a plain
// descriptor list: a join is by definition first contact, where a delta
// has no base to build on.
type JoinReply struct {
	Seq        uint64
	NextEpoch  uint64
	WaitMicros int64
	Seeds      []Descriptor
}

// Type returns TJoinReply.
func (*JoinReply) Type() MsgType { return TJoinReply }

// Membership is a standalone NEWSCAST view exchange (used by joiners
// that may not take part in aggregation yet, and by idle post-γ nodes).
type Membership struct {
	From string
	Seq  uint64
	View ViewFrame
}

// Type returns TMembership.
func (*Membership) Type() MsgType { return TMembership }

// MembershipReply answers a Membership exchange.
type MembershipReply struct {
	From string
	Seq  uint64
	View ViewFrame
}

// Type returns TMembershipReply.
func (*MembershipReply) Type() MsgType { return TMembershipReply }

// appender accumulates the encoding of one message.
type appender struct {
	buf []byte
	err error
}

func (a *appender) u8(v uint8)   { a.buf = append(a.buf, v) }
func (a *appender) u16(v uint16) { a.buf = binary.BigEndian.AppendUint16(a.buf, v) }
func (a *appender) u32(v uint32) { a.buf = binary.BigEndian.AppendUint32(a.buf, v) }
func (a *appender) u64(v uint64) { a.buf = binary.BigEndian.AppendUint64(a.buf, v) }
func (a *appender) i64(v int64)  { a.u64(uint64(v)) }
func (a *appender) f64(v float64) {
	a.u64(math.Float64bits(v))
}

func (a *appender) str(s string) {
	if len(s) > MaxAddrLen {
		a.err = fmt.Errorf("%w: address %d bytes", ErrTooLarge, len(s))
		return
	}
	a.u16(uint16(len(s)))
	a.buf = append(a.buf, s...)
}

func (a *appender) descriptors(ds []Descriptor) {
	if len(ds) > MaxDescriptors {
		a.err = fmt.Errorf("%w: %d descriptors", ErrTooLarge, len(ds))
		return
	}
	a.u16(uint16(len(ds)))
	for _, d := range ds {
		a.str(d.Addr)
		a.i64(d.Stamp)
	}
}

// view writes a membership frame.
func (a *appender) view(f *ViewFrame) {
	a.u8(uint8(f.Kind))
	switch f.Kind {
	case ViewNone:
		if len(f.Entries) != 0 {
			a.err = fmt.Errorf("%w: none frame carries %d entries", ErrBadViewKind, len(f.Entries))
		}
	case ViewFull:
		a.u32(f.Gen)
		a.u32(f.Ack)
		a.descriptors(f.Entries)
	case ViewDelta:
		a.u32(f.Gen)
		a.u32(f.Ack)
		a.u32(f.Base)
		a.descriptors(f.Entries)
	default:
		a.err = fmt.Errorf("%w: %d", ErrBadViewKind, uint8(f.Kind))
	}
}

func (a *appender) mapEntries(es []MapEntry) {
	if len(es) > MaxMapEntries {
		a.err = fmt.Errorf("%w: %d map entries", ErrTooLarge, len(es))
		return
	}
	a.u16(uint16(len(es)))
	for _, e := range es {
		a.i64(e.Leader)
		a.f64(e.Value)
	}
}

func (a *appender) payload(p *Payload) {
	a.u64(p.Seq)
	a.u64(p.XID)
	a.u64(p.Epoch)
	a.u8(p.FuncID)
	a.u8(p.Flags)
	a.f64(p.Scalar)
	a.mapEntries(p.Entries)
	a.view(&p.View)
}

// AppendEncode appends the encoding of m to dst and returns the extended
// buffer; with a dst of sufficient capacity it does not allocate. On
// error dst is returned unchanged.
func AppendEncode(dst []byte, m Message) ([]byte, error) {
	a := appender{buf: dst}
	a.buf = append(a.buf, Magic[:]...)
	a.u8(Version)
	a.u8(uint8(m.Type()))
	switch v := m.(type) {
	case *ExchangeRequest:
		a.str(v.From)
		a.payload(&v.Payload)
	case *ExchangeReply:
		a.str(v.From)
		a.payload(&v.Payload)
	case *JoinRequest:
		a.str(v.From)
		a.u64(v.Seq)
	case *JoinReply:
		a.u64(v.Seq)
		a.u64(v.NextEpoch)
		a.i64(v.WaitMicros)
		a.descriptors(v.Seeds)
	case *Membership:
		a.str(v.From)
		a.u64(v.Seq)
		a.view(&v.View)
	case *MembershipReply:
		a.str(v.From)
		a.u64(v.Seq)
		a.view(&v.View)
	default:
		return dst, fmt.Errorf("wire: cannot encode %T", m)
	}
	if a.err != nil {
		return dst, a.err
	}
	return a.buf, nil
}

// encodeScratch recycles the buffers Encode encodes into, so a fresh
// encoding costs one allocation of exactly its size.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// Encode serializes a message into a fresh buffer.
func Encode(m Message) ([]byte, error) {
	sp := encodeScratch.Get().(*[]byte)
	defer encodeScratch.Put(sp)
	buf, err := AppendEncode((*sp)[:0], m)
	if err != nil {
		return nil, err
	}
	*sp = buf
	return bytes.Clone(buf), nil
}

// Messages is caller-owned storage for one message of every type: what a
// Decoder decodes into, and what a sender that reuses its outgoing
// messages fills.
type Messages struct {
	ExchangeRequest ExchangeRequest
	ExchangeReply   ExchangeReply
	JoinRequest     JoinRequest
	JoinReply       JoinReply
	Membership      Membership
	MembershipReply MembershipReply
}

// Decoder decodes datagrams into storage it owns and reuses: in the
// steady state — every address known to Lookup — a decode allocates
// nothing. The message returned by Decode, its descriptor and map-entry
// lists included, aliases that storage. Address strings are Lookup's
// canonical strings or fresh copies, never views of the datagram. A
// Decoder is not safe for concurrent use.
type Decoder struct {
	// Lookup, when set, resolves address bytes to an already-interned
	// string and its id (overlay.Book.Canonical). It must not record
	// anything: it is called on datagrams that may yet fail validation. A
	// miss allocates a copy. The id comes back with the message, in each
	// Descriptor, so the caller looks no address up twice.
	Lookup func(addr []byte) (string, int32, bool)

	msgs    Messages
	descs   []Descriptor
	entries []MapEntry
}

// reader consumes the encoding.
type reader struct {
	buf []byte
	off int
	err error
	dec *Decoder
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// addr reads an address string into d.Addr and resolves it through the
// decoder's Lookup.
func (r *reader) addr(d *Descriptor) {
	n := int(r.u16())
	if n > MaxAddrLen {
		r.err = fmt.Errorf("%w: address %d bytes", ErrTooLarge, n)
		return
	}
	b := r.take(n)
	if b == nil {
		return
	}
	if r.dec.Lookup != nil {
		if d.Addr, d.Key, d.Known = r.dec.Lookup(b); d.Known {
			return
		}
	}
	d.Addr = string(b)
}

// from reads a message's From field.
func (r *reader) from() string {
	var d Descriptor
	r.addr(&d)
	return d.Addr
}

// descriptors reads a descriptor list into the decoder's storage (a
// message carries at most one).
func (r *reader) descriptors() []Descriptor {
	n := int(r.u16())
	if n > MaxDescriptors {
		r.err = fmt.Errorf("%w: %d descriptors", ErrTooLarge, n)
		return nil
	}
	out := r.dec.descs[:0]
	if out == nil {
		out = make([]Descriptor, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		var d Descriptor
		r.addr(&d)
		d.Stamp = r.i64()
		out = append(out, d)
	}
	r.dec.descs = out
	return out
}

// viewFrame reads a membership frame.
func (r *reader) viewFrame() ViewFrame {
	kind := ViewKind(r.u8())
	switch kind {
	case ViewNone:
		return ViewFrame{}
	case ViewFull:
		return ViewFrame{Kind: ViewFull, Gen: r.u32(), Ack: r.u32(), Entries: r.descriptors()}
	case ViewDelta:
		return ViewFrame{Kind: ViewDelta, Gen: r.u32(), Ack: r.u32(), Base: r.u32(), Entries: r.descriptors()}
	default:
		if r.err == nil {
			r.err = fmt.Errorf("%w: %d", ErrBadViewKind, uint8(kind))
		}
		return ViewFrame{}
	}
}

func (r *reader) mapEntries() []MapEntry {
	n := int(r.u16())
	if n > MaxMapEntries {
		r.err = fmt.Errorf("%w: %d map entries", ErrTooLarge, n)
		return nil
	}
	out := r.dec.entries[:0]
	if out == nil {
		out = make([]MapEntry, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, MapEntry{Leader: r.i64(), Value: r.f64()})
	}
	r.dec.entries = out
	return out
}

func (r *reader) payload() Payload {
	p := Payload{Seq: r.u64()}
	p.XID = r.u64()
	p.Epoch = r.u64()
	p.FuncID = r.u8()
	p.Flags = r.u8()
	p.Scalar = r.f64()
	p.Entries = r.mapEntries()
	p.View = r.viewFrame()
	return p
}

// Decode parses a message into fresh storage. The input slice is not
// retained.
func Decode(data []byte) (Message, error) {
	return new(Decoder).Decode(data)
}

// Decode parses a message into the decoder's storage. See Decoder for
// how long the message stays valid.
func (d *Decoder) Decode(data []byte) (Message, error) {
	r := reader{buf: data, dec: d}
	magic := r.take(4)
	if r.err != nil {
		return nil, r.err
	}
	if [4]byte(magic) != Magic {
		return nil, ErrBadMagic
	}
	if version := r.u8(); version != Version {
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	t := MsgType(r.u8())
	var m Message
	switch t {
	case TExchangeRequest:
		d.msgs.ExchangeRequest = ExchangeRequest{From: r.from(), Payload: r.payload()}
		m = &d.msgs.ExchangeRequest
	case TExchangeReply:
		d.msgs.ExchangeReply = ExchangeReply{From: r.from(), Payload: r.payload()}
		m = &d.msgs.ExchangeReply
	case TJoinRequest:
		d.msgs.JoinRequest = JoinRequest{From: r.from(), Seq: r.u64()}
		m = &d.msgs.JoinRequest
	case TJoinReply:
		d.msgs.JoinReply = JoinReply{Seq: r.u64(), NextEpoch: r.u64(), WaitMicros: r.i64(), Seeds: r.descriptors()}
		m = &d.msgs.JoinReply
	case TMembership:
		d.msgs.Membership = Membership{From: r.from(), Seq: r.u64(), View: r.viewFrame()}
		m = &d.msgs.Membership
	case TMembershipReply:
		d.msgs.MembershipReply = MembershipReply{From: r.from(), Seq: r.u64(), View: r.viewFrame()}
		m = &d.msgs.MembershipReply
	default:
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("%w: %d", ErrBadType, uint8(t))
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(data)-r.off)
	}
	return m, nil
}

// FuncIDFor maps a core function name to its wire id.
func FuncIDFor(name string) (uint8, error) {
	switch name {
	case "average":
		return FuncAverage, nil
	case "min":
		return FuncMin, nil
	case "max":
		return FuncMax, nil
	case "geometric-mean":
		return FuncGeometricMean, nil
	case "count":
		return FuncCount, nil
	default:
		return 0, fmt.Errorf("wire: unknown function %q", name)
	}
}
