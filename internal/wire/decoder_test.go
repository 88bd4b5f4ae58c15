package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"antientropy/internal/overlay"
	"antientropy/internal/race"
)

// fullFrameRequest is the steady-state datagram of a live fleet: a
// scalar exchange request piggybacking a full 31-descriptor view.
func fullFrameRequest() *ExchangeRequest {
	view := make([]Descriptor, 31)
	for i := range view {
		view[i] = Descriptor{Addr: fmt.Sprintf("127.0.0.1:41000#%d", 100+i), Stamp: int64(1000 + i)}
	}
	return &ExchangeRequest{From: view[0].Addr, Payload: Payload{
		Seq: 9, XID: 0x1234, Epoch: 3, FuncID: FuncAverage, Scalar: 42.5,
		Entries: []MapEntry{},
		View:    ViewFrame{Kind: ViewFull, Gen: 5, Ack: 4, Entries: view},
	}}
}

func bookOf(m *ExchangeRequest) *overlay.Book {
	book := overlay.NewBook()
	for _, d := range m.View.Entries {
		book.Intern(d.Addr)
	}
	return book
}

// TestDecoderAllocs gates the receive path: decoding a full frame whose
// addresses are all interned, into a warm Decoder, allocates nothing.
func TestDecoderAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	msg := fullFrameRequest()
	data, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	dec := Decoder{Lookup: bookOf(msg).Canonical}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := dec.Decode(data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm decode of a full frame allocates %.1f times, want 0", n)
	}
}

// TestAppendEncodeAllocs gates the send path: encoding into a buffer
// that already has the capacity allocates nothing.
func TestAppendEncodeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	var msg Message = fullFrameRequest()
	buf := make([]byte, 0, 2048)
	if n := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = AppendEncode(buf[:0], msg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendEncode into a warm buffer allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := Encode(msg); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("Encode allocates %.1f times, want 1 (the result)", n)
	}
}

// TestAppendEncodeKeepsPrefix: AppendEncode appends — and on error hands
// dst back untouched.
func TestAppendEncodeKeepsPrefix(t *testing.T) {
	msg := fullFrameRequest()
	want, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendEncode([]byte("prefix"), msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatal("AppendEncode did not append the Encode bytes after the prefix")
	}
	msg.View.Kind = 9
	if got, err := AppendEncode([]byte("prefix"), msg); err == nil || string(got) != "prefix" {
		t.Fatalf("failed AppendEncode returned %q, %v; want the untouched prefix and an error", got, err)
	}
}

// TestDecoderOwnership pins the ownership rule: a decoded message never
// aliases the datagram, known addresses resolve to the book's own
// strings and carry the book's id, unknown ones are copied without being
// interned and carry none, and the next Decode reuses the storage.
func TestDecoderOwnership(t *testing.T) {
	msg := fullFrameRequest()
	book := bookOf(msg)
	msg.View.Entries[30].Addr = "stranger:1"
	data, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	known := book.Len()
	dec := Decoder{Lookup: book.Canonical}
	m, err := dec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data { // the pooled buffer's next user
		data[i] = 0xff
	}
	got := m.(*ExchangeRequest)
	for i := range got.View.Entries {
		d := &got.View.Entries[i]
		id, interned := book.Lookup(d.Addr)
		if d.Known != interned || d.Key != id {
			t.Fatalf("descriptor %q decoded with Key %d, Known %v; the book says %d, %v", d.Addr, d.Key, d.Known, id, interned)
		}
		d.Key, d.Known = 0, false // not part of the message
	}
	if !reflect.DeepEqual(got, msg) {
		t.Fatalf("decoded message changed with the datagram:\n got %#v\nwant %#v", got, msg)
	}
	if book.Len() != known {
		t.Fatalf("decoding interned %d addresses", book.Len()-known)
	}
	canon, _, _ := book.Canonical([]byte(msg.From))
	if unsafe.StringData(got.From) != unsafe.StringData(canon) {
		t.Fatal("a known address was copied instead of resolved to the interned string")
	}
	// A shorter message on the same decoder reuses the storage and shows
	// no residue of the previous one.
	short := &Membership{From: "b:2", Seq: 4, View: ViewFrame{Kind: ViewDelta, Gen: 2, Ack: 1, Base: 1,
		Entries: []Descriptor{{Addr: "c:3", Stamp: 7}}}}
	data, err = Encode(short)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := dec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m2, short) {
		t.Fatalf("reused decoder returned %#v, want %#v", m2, short)
	}
	if &m2.(*Membership).View.Entries[0] != &got.View.Entries[0] {
		t.Fatal("the second decode did not reuse the descriptor storage")
	}
}
