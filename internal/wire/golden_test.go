package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

// The golden byte sequences pin the wire layout: a change that shifts a
// single byte breaks every running deployment, so these tests fail on
// any accidental layout change. Regenerate the literals only for a
// deliberate, version-bumped format change.

// goldenFull is a Membership carrying a full view frame:
//
//	magic "AE04" | version 3 | type 5 (membership)
//	From  "n1"   | Seq 7
//	frame: kind 1 (full) | gen 1 | ack 0 | 2 descriptors
//	  "n2" stamp 16, "n3" stamp 17
const goldenFull = "41453034" + "03" + "05" +
	"0002" + "6e31" + "0000000000000007" +
	"01" + "00000001" + "00000000" + "0002" +
	"0002" + "6e32" + "0000000000000010" +
	"0002" + "6e33" + "0000000000000011"

// goldenDelta is an ExchangeRequest whose payload piggybacks a delta
// frame:
//
//	magic "AE04" | version 3 | type 1 (exchange-request)
//	From "n1" | Seq 2 | XID 0 | Epoch 3 | FuncID 1 | Flags 0 | Scalar 1.5
//	0 map entries
//	frame: kind 2 (delta) | gen 5 | ack 4 | base 3 | 1 descriptor
//	  "n9" stamp 18
const goldenDelta = "41453034" + "03" + "01" +
	"0002" + "6e31" +
	"0000000000000002" + "0000000000000000" +
	"0000000000000003" + "01" + "00" +
	"3ff8000000000000" + "0000" +
	"02" + "00000005" + "00000004" + "00000003" + "0001" +
	"0002" + "6e39" + "0000000000000012"

// oldVersions are the layouts of the earlier wire versions, which no node
// decodes: goldenFull's Membership at version 1, where the view was a
// plain descriptor list, and at version 2; goldenDelta's ExchangeRequest
// at version 2, whose payload had no XID.
var oldVersions = []string{
	"41453034" + "01" + "05" +
		"0002" + "6e31" + "0000000000000007" +
		"0002" +
		"0002" + "6e32" + "0000000000000010" +
		"0002" + "6e33" + "0000000000000011",
	"41453034" + "02" + "05" +
		"0002" + "6e31" + "0000000000000007" +
		"01" + "00000001" + "00000000" + "0002" +
		"0002" + "6e32" + "0000000000000010" +
		"0002" + "6e33" + "0000000000000011",
	"41453034" + "02" + "01" +
		"0002" + "6e31" +
		"0000000000000002" + "0000000000000003" + "01" + "00" +
		"3ff8000000000000" + "0000" +
		"02" + "00000005" + "00000004" + "00000003" + "0001" +
		"0002" + "6e39" + "0000000000000012",
}

// goldenXID is goldenDelta's ExchangeRequest with an exchange ID:
//
//	magic "AE04" | version 3 | type 1 (exchange-request)
//	From "n1" | Seq 2 | XID 0xCAFEF00D | Epoch 3 | FuncID 1 | Flags 0
//	Scalar 1.5 | 0 map entries
//	frame: kind 2 (delta) | gen 5 | ack 4 | base 3 | 1 descriptor
//	  "n9" stamp 18
const goldenXID = "41453034" + "03" + "01" +
	"0002" + "6e31" +
	"0000000000000002" + "00000000cafef00d" +
	"0000000000000003" + "01" + "00" +
	"3ff8000000000000" + "0000" +
	"02" + "00000005" + "00000004" + "00000003" + "0001" +
	"0002" + "6e39" + "0000000000000012"

func TestGoldenFullFrame(t *testing.T) {
	msg := &Membership{From: "n1", Seq: 7, View: ViewFrame{
		Kind: ViewFull, Gen: 1, Ack: 0,
		Entries: []Descriptor{{Addr: "n2", Stamp: 16}, {Addr: "n3", Stamp: 17}},
	}}
	checkGolden(t, msg, goldenFull)
}

func TestGoldenDeltaFrame(t *testing.T) {
	msg := &ExchangeRequest{From: "n1", Payload: Payload{
		Seq: 2, Epoch: 3, FuncID: FuncAverage, Scalar: 1.5,
		Entries: []MapEntry{},
		View: ViewFrame{Kind: ViewDelta, Gen: 5, Ack: 4, Base: 3,
			Entries: []Descriptor{{Addr: "n9", Stamp: 18}}},
	}}
	checkGolden(t, msg, goldenDelta)
}

func TestGoldenXIDFrame(t *testing.T) {
	msg := &ExchangeRequest{From: "n1", Payload: Payload{
		Seq: 2, XID: 0xCAFEF00D, Epoch: 3, FuncID: FuncAverage, Scalar: 1.5,
		Entries: []MapEntry{},
		View: ViewFrame{Kind: ViewDelta, Gen: 5, Ack: 4, Base: 3,
			Entries: []Descriptor{{Addr: "n9", Stamp: 18}}},
	}}
	checkGolden(t, msg, goldenXID)
}

func checkGolden(t *testing.T, msg Message, golden string) {
	t.Helper()
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatalf("bad golden literal: %v", err)
	}
	got, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding drifted from golden bytes:\n got %x\nwant %x", got, want)
	}
	back, err := Decode(want)
	if err != nil {
		t.Fatalf("golden bytes do not decode: %v", err)
	}
	if !reflect.DeepEqual(back, msg) {
		t.Fatalf("golden bytes decode to\n%#v\nwant\n%#v", back, msg)
	}
}

// TestGoldenLegacy: the earlier versions' bytes are ErrBadVersion.
func TestGoldenLegacy(t *testing.T) {
	for _, old := range oldVersions {
		data, err := hex.DecodeString(old)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := Decode(data); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d bytes decode to %#v, %v; want ErrBadVersion", data[4], m, err)
		}
	}
}
