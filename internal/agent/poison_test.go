package agent

import (
	"context"
	"io"
	"log/slog"
	"math"
	"testing"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/obs"
	"antientropy/internal/overlay"
	"antientropy/internal/race"
	"antientropy/internal/transport"
	"antientropy/internal/wire"
)

// Under the race detector every hold of every test in this package hands
// its workspace back poisoned: the detector finds two goroutines in one
// workspace, the poison finds one goroutine reading a workspace it has
// returned. The allocation gates, which the poison would fail, skip
// themselves under the detector already.
func init() {
	if race.Enabled {
		scribble = poisonWorkspace
	}
}

const poison = "POISON"

// poisonMessages is one message of every type, wrong in every field, the
// exchange request as full as the wire lets it be; poisonDatagrams is
// their encodings, the request last: decoding them in order overwrites
// all of a decoder's storage. The book knows the poison address, so a
// decode of it allocates nothing — the poison runs three times per
// exchange — and a leak of it is gossiped like any address.
var poisonMessages, poisonDatagrams = func() (wire.Messages, [][]byte) {
	book.Intern(poison)
	descs := make([]wire.Descriptor, wire.MaxDescriptors)
	for i := range descs {
		descs[i] = wire.Descriptor{Addr: poison, Stamp: -1}
	}
	entries := make([]wire.MapEntry, wire.MaxMapEntries)
	for i := range entries {
		entries[i] = wire.MapEntry{Leader: -1, Value: math.NaN()}
	}
	frame := wire.ViewFrame{Kind: wire.ViewFull, Gen: math.MaxUint32, Ack: math.MaxUint32, Entries: descs[:1]}
	payload := wire.Payload{
		Seq: math.MaxUint64, XID: math.MaxUint64, Epoch: math.MaxUint64, FuncID: wire.FuncCount,
		Scalar: math.NaN(), Entries: entries[:1], View: frame,
	}
	msgs := wire.Messages{
		ExchangeReply:   wire.ExchangeReply{From: poison, Payload: payload},
		JoinRequest:     wire.JoinRequest{From: poison, Seq: math.MaxUint64},
		JoinReply:       wire.JoinReply{Seq: math.MaxUint64, NextEpoch: math.MaxUint64, WaitMicros: -1, Seeds: descs[:1]},
		Membership:      wire.Membership{From: poison, Seq: math.MaxUint64, View: frame},
		MembershipReply: wire.MembershipReply{From: poison, Seq: math.MaxUint64, View: frame},
	}
	payload.Entries, payload.View.Entries = entries, descs
	msgs.ExchangeRequest = wire.ExchangeRequest{From: poison, Payload: payload}
	var datagrams [][]byte
	for _, m := range []wire.Message{
		&msgs.ExchangeReply, &msgs.JoinRequest, &msgs.JoinReply,
		&msgs.Membership, &msgs.MembershipReply, &msgs.ExchangeRequest,
	} {
		data, err := wire.Encode(m)
		if err != nil {
			panic(err)
		}
		datagrams = append(datagrams, data)
	}
	return msgs, datagrams
}()

// poisonWorkspace overwrites a returned workspace: addresses read POISON,
// payloads NaN, packed descriptors all ones, and every buffer is empty.
func poisonWorkspace(ws *workspace) {
	for _, data := range poisonDatagrams {
		if _, err := ws.dec.Decode(data); err != nil {
			panic(err)
		}
	}
	ws.out = poisonMessages
	ws.desc = fill(ws.desc, wire.Descriptor{Addr: poison, Stamp: -1})
	ws.entries = fill(ws.entries, wire.MapEntry{Leader: -1, Value: math.NaN()})
	ws.absorb = fill(ws.absorb, overlay.Entry{Key: -1, Stamp: -1})
	ws.merge = fill(ws.merge, ^uint64(0))
}

// fill overwrites buf to its capacity with v and returns it empty.
func fill[T any](buf []T, v T) []T {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = v
	}
	return buf[:0]
}

// withPoison turns the poison on for one test, whatever the build.
func withPoison(t *testing.T) {
	t.Helper()
	prev := scribble
	scribble = poisonWorkspace
	t.Cleanup(func() { scribble = prev })
}

// TestPoisonReachesEveryBuffer: the poison does what the tests that rely
// on it assume — after it, nothing in the workspace reads as data.
func TestPoisonReachesEveryBuffer(t *testing.T) {
	h := newHandNode(t, ModeCount, 0)
	h.meetStrangers(t, 3, crowdView)
	h.initiate(time.Now())
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	poisonWorkspace(ws)
	m, err := ws.dec.Decode(h.requestFrom(t, h.peer, fullFrame(h.peer.Addr(), "crowd", 1)))
	if err != nil {
		t.Fatal(err)
	}
	// What a decode does not overwrite is still poison: the descriptors
	// past this message's 31.
	view := m.(*wire.ExchangeRequest).View.Entries
	if past := view[:cap(view)][len(view)]; past.Addr != poison {
		t.Fatalf("decoder storage past the decoded view reads %+v", past)
	}
	if ws.out.ExchangeReply.From != poison || !math.IsNaN(ws.out.ExchangeReply.Scalar) {
		t.Fatalf("the outgoing reply reads %+v", ws.out.ExchangeReply)
	}
	if len(ws.desc)+len(ws.entries)+len(ws.absorb)+len(ws.merge) != 0 {
		t.Fatal("a poisoned workspace holds a non-empty buffer")
	}
}

// TestFleetsConvergeOnPoisonedWorkspaces: with every returned workspace
// overwritten, a 64-node fleet on the in-memory network (one goroutine,
// whole exchanges inline) and one on a UDP mux (handlers on the mux's
// readers, so the pool is shared between goroutines) run 40 cycles and
// converge on the true average with no datagram undecodable. Nothing a
// hold produces — reply, trace record, log attribute, view — keeps a reference into the workspace it was produced in.
func TestFleetsConvergeOnPoisonedWorkspaces(t *testing.T) {
	withPoison(t)
	const fleet, cycles = 64, 40
	schedule := core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: 20 * time.Millisecond, Gamma: 1 << 20}
	debug := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug}))
	run := func(t *testing.T, endpoints func(n int) []transport.Endpoint) {
		eps := endpoints(fleet)
		addrs := make([]string, fleet)
		for i, ep := range eps {
			addrs[i] = ep.Addr()
		}
		ring := obs.NewTraceRing(1 << 16)
		nodes := make([]*Node, fleet)
		for i := range nodes {
			v := float64(i)
			node, err := New(Config{
				Endpoint: eps[i], Schedule: schedule, Value: func() float64 { return v },
				Bootstrap: addrs[:8], Seed: uint64(i + 1), Logger: debug, Trace: ring,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = node
		}
		for _, node := range nodes {
			if err := node.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		// A cycle is an exchange completed per node: with the poison and,
		// in the race job, the detector on two cores, some cycles end in a
		// timeout, and the fleet is given the time it takes.
		deadline := time.Now().Add(time.Minute)
		for completed := int64(0); completed < fleet*cycles; {
			if time.Now().After(deadline) {
				t.Fatalf("%d exchanges completed in a minute, want %d cycles of %d nodes", completed, cycles, fleet)
			}
			time.Sleep(schedule.CycleLen)
			completed = 0
			for _, node := range nodes {
				completed += node.Metrics().ExchangesCompleted
			}
		}
		var sum Metrics
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, node := range nodes {
			if err := node.Stop(); err != nil {
				t.Error(err)
			}
			sum.Accumulate(node.Metrics())
			v, ok := node.Estimate()
			if !ok {
				t.Fatalf("%s holds no estimate", node.Addr())
			}
			lo, hi = min(lo, v), max(hi, v)
		}
		if sum.DecodeErrors != 0 {
			t.Errorf("%d undecodable datagrams", sum.DecodeErrors)
		}
		// The nodes agree, and on the true mean unless replies were lost to
		// a timeout, of which a loaded box has some (§7.2: the responder has
		// merged, the initiator has not, and the sum moves by half their
		// difference, at most half the range of the values).
		const mean = (fleet - 1) / 2.0
		drift := float64(sum.Timeouts) * mean / fleet
		if hi-lo > 1e-3 || lo < mean-drift-1e-3 || hi > mean+drift+1e-3 {
			t.Errorf("estimates span [%g, %g] after %d cycles (true mean %g, %d of %d exchanges timed out)",
				lo, hi, cycles, mean, sum.Timeouts, sum.ExchangesInitiated)
		}
		for _, node := range nodes {
			for _, peer := range node.peers() {
				if peer == poison {
					t.Fatalf("%s gossips about %s", node.Addr(), poison)
				}
			}
		}
		for _, ev := range ring.Entries() {
			if ev.Node == poison || ev.Peer == poison || ev.Seq == math.MaxUint64 || ev.Epoch == math.MaxUint64 {
				t.Fatalf("a trace record kept workspace contents: %+v", ev)
			}
		}
	}
	t.Run("mem", func(t *testing.T) {
		net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 3})
		defer net.Close()
		run(t, func(n int) []transport.Endpoint {
			eps := make([]transport.Endpoint, n)
			for i := range eps {
				eps[i] = net.Endpoint()
			}
			return eps
		})
	})
	t.Run("mux", func(t *testing.T) {
		mux, err := transport.NewUDPMux(transport.UDPMuxConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer mux.Close()
		run(t, func(n int) []transport.Endpoint {
			eps := make([]transport.Endpoint, n)
			for i := range eps {
				if eps[i], err = mux.Endpoint(); err != nil {
					t.Fatal(err)
				}
			}
			return eps
		})
	})
}

// TestPathsOutsideExchangesHoldWhatTheyUse: the entry points that are
// neither handler nor cycle either take a workspace (Start seeding the
// view, AddContacts merging more contacts than an insertion handles) or
// touch none (the join request, Snapshot, Peers, Stop) — a path that
// reached for scratch without a hold would dereference nil here.
func TestPathsOutsideExchangesHoldWhatTheyUse(t *testing.T) {
	withPoison(t)
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 1})
	defer net.Close()
	contacts := make([]string, 20)
	for i := range contacts {
		contacts[i] = net.Endpoint().Addr()
	}
	node, err := New(Config{
		Endpoint: net.Endpoint(),
		Schedule: core.Schedule{Start: time.Now(), Delta: time.Hour, CycleLen: time.Hour, Gamma: 1 << 20},
		Value:    func() float64 { return 1 },
		Seeds:    contacts[:12], // Start seeds the view and sends the join request
		Seed:     1,
		Logger:   quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if node.ws != nil {
		t.Fatal("the node keeps a workspace outside a hold")
	}
	node.AddContacts(contacts)
	if got := node.PeerCount(); got != len(contacts) {
		t.Fatalf("the view holds %d of %d contacts", got, len(contacts))
	}
	for _, peer := range node.peers() {
		if peer == poison {
			t.Fatal("the view holds a poisoned contact")
		}
	}
	node.sendJoinRequest()
	if s := node.Snapshot(); s.Participating {
		t.Fatalf("a joiner participates before its epoch: %+v", s)
	}
	if err := node.Stop(); err != nil {
		t.Fatal(err)
	}
}
