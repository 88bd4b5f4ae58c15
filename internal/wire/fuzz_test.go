package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecode drives the decoder with arbitrary datagrams: it must never
// panic, it must accept no version but Version, every successfully
// decoded message must re-encode, and a Decoder reused across all inputs
// must agree with the fresh-storage wrapper on every one of them — same
// message or same error. Seeds cover every message type — both
// view-frame kinds included — plus the earlier versions' golden bytes,
// which must be rejected.
func FuzzDecode(f *testing.F) {
	fullView := ViewFrame{Kind: ViewFull, Gen: 1,
		Entries: []Descriptor{{Addr: "b:2", Stamp: 9}}}
	deltaView := ViewFrame{Kind: ViewDelta, Gen: 6, Ack: 3, Base: 2,
		Entries: []Descriptor{{Addr: "c:9", Stamp: 11}, {Addr: "d:1", Stamp: 12}}}
	seeds := []Message{
		&ExchangeRequest{From: "a:1", Payload: Payload{Seq: 1, XID: 0xfeedface, Epoch: 2, FuncID: FuncAverage, Scalar: 1.5,
			Entries: []MapEntry{{Leader: 3, Value: 0.5}},
			View:    fullView}},
		&ExchangeRequest{From: "a:2", Payload: Payload{Seq: 4, Epoch: 2, FuncID: FuncAverage,
			View: deltaView}},
		&ExchangeReply{From: "b:2", Payload: Payload{Seq: 1, Flags: FlagRefused}},
		&ExchangeReply{From: "b:3", Payload: Payload{Seq: 2, XID: 7, Epoch: 2, FuncID: FuncCount,
			Entries: []MapEntry{{Leader: 3, Value: 0.25}, {Leader: 5, Value: 1}}, View: deltaView}},
		&JoinRequest{From: "c:3", Seq: 7},
		&JoinReply{Seq: 7, NextEpoch: 8, WaitMicros: 100, Seeds: []Descriptor{{Addr: "d:4", Stamp: 1}}},
		&JoinReply{Seq: 8, NextEpoch: 9},
		&Membership{From: "e:5", Seq: 9, View: fullView},
		&Membership{From: "e:6", Seq: 10, View: deltaView},
		&MembershipReply{From: "g:7", Seq: 9},
		&MembershipReply{From: "g:8", Seq: 10, View: fullView},
	}
	for _, m := range seeds {
		data, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, old := range oldVersions {
		data, err := hex.DecodeString(old)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("AE04"))
	var reused Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := new(Decoder).Decode(data)
		rm, rerr := reused.Decode(data)
		if err != nil {
			// Rejected input is fine; panicking or disagreeing is not.
			if rerr == nil || rerr.Error() != err.Error() {
				t.Fatalf("fresh decode failed with %v, reused decoder with %v", err, rerr)
			}
			return
		}
		if rerr != nil || reflect.TypeOf(rm) != reflect.TypeOf(m) {
			t.Fatalf("reused decoder disagrees:\n fresh %#v\nreused %#v (%v)", m, rm, rerr)
		}
		if data[4] != Version {
			t.Fatalf("decoder accepted version %d", data[4])
		}
		// Decoded messages must round-trip.
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m, err)
		}
		// Compared by their encodings: a NaN payload is not DeepEqual
		// to itself.
		if rre, err := Encode(rm); err != nil || !bytes.Equal(rre, re) {
			t.Fatalf("reused decoder disagrees (%v):\n fresh %#v\nreused %#v", err, m, rm)
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", m, err)
		}
		if m.Type() != m2.Type() {
			t.Fatalf("type changed across round trip: %v -> %v", m.Type(), m2.Type())
		}
	})
}

// FuzzViewCodec hammers the delta codec with arbitrary frame sequences:
// whatever the peer claims, Observe must not panic and EncodeView must
// keep producing frames whose entries are a subset of the current view.
func FuzzViewCodec(f *testing.F) {
	f.Add(uint8(1), uint32(1), uint32(0), uint32(0), int32(5))
	f.Add(uint8(2), uint32(9), uint32(3), uint32(2), int32(-1))
	f.Add(uint8(0), uint32(0), uint32(7), uint32(0), int32(0))
	f.Fuzz(func(t *testing.T, kind uint8, gen, ack, base uint32, stamp int32) {
		var local, remote ViewCodec
		view := pview(1, stamp, 2, stamp+1)
		for round := int32(0); round < 4; round++ {
			frame := local.EncodeView(view, addrOf)
			if frame.Kind != ViewFull && frame.Kind != ViewDelta {
				t.Fatalf("EncodeView produced %v frame", frame.Kind)
			}
			if len(frame.Entries) > len(view) {
				t.Fatalf("frame carries %d entries for a %d-entry view", len(frame.Entries), len(view))
			}
			remote.Observe(frame)
			// The adversarial peer responds with an arbitrary frame.
			local.Observe(ViewFrame{Kind: ViewKind(kind % 3), Gen: gen, Ack: ack, Base: base,
				Entries: []Descriptor{{Addr: "x", Stamp: int64(stamp)}}})
			view = pview(1, stamp+round+1, 2, stamp+1)
		}
	})
}

// TestDecodeUnknownVersionTyped pins the typed rejection: any version
// other than Version must fail with ErrBadVersion, the earlier ones (1,
// 2) as much as the unknown past (0) and future (4, 99, 255) ones.
func TestDecodeUnknownVersionTyped(t *testing.T) {
	valid, err := Encode(&JoinRequest{From: "a", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("Version rejected: %v", err)
	}
	for _, version := range []byte{0, 1, 2, 4, 99, 255} {
		data := append([]byte(nil), valid...)
		data[4] = version
		if _, err := Decode(data); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d: Decode = %v, want ErrBadVersion", version, err)
		}
	}
}

// TestDecodeUnknownViewKindTyped pins the typed rejection of a frame
// kind the codec does not know.
func TestDecodeUnknownViewKindTyped(t *testing.T) {
	data, err := Encode(&Membership{From: "a", Seq: 1, View: ViewFrame{Kind: ViewFull, Gen: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// The frame trailer is kind(1) + gen(4) + ack(4) + count(2).
	data[len(data)-11] = 9
	if _, err := Decode(data); !errors.Is(err, ErrBadViewKind) {
		t.Errorf("Decode = %v, want ErrBadViewKind", err)
	}
}
