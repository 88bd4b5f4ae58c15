package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"antientropy"
)

func TestParseAddrList(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , b:2 ", []string{"a:1", "b:2"}},
		{"a:1,,b:2,", []string{"a:1", "b:2"}},
		{"", nil},
		{" , ", nil},
	}
	for _, tc := range tests {
		got := antientropy.ParseAddrList(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("ParseAddrList(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseAddrList(%q)[%d] = %q, want %q", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

// TestMuxAddrs: a bare "host:port" contact is completed to the "#0" every
// aggnode listens on; one with an endpoint id is kept as it is.
func TestMuxAddrs(t *testing.T) {
	got := muxAddrs(" 127.0.0.1:7000, 127.0.0.1:7001#0 ,h:1#12,")
	if want := []string{"127.0.0.1:7000#0", "127.0.0.1:7001#0", "h:1#12"}; !slices.Equal(got, want) {
		t.Fatalf("muxAddrs = %v, want %v", got, want)
	}
	if got := muxAddrs(""); len(got) != 0 {
		t.Fatalf("muxAddrs(\"\") = %v, want none", got)
	}
}

func TestReadValues(t *testing.T) {
	var got []float64
	input := "10.5\n\nnot-a-number\n  42 \n"
	readValues(strings.NewReader(input), io.Discard, func(v float64) { got = append(got, v) }, slog.New(slog.DiscardHandler))
	if len(got) != 2 || got[0] != 10.5 || got[1] != 42 {
		t.Fatalf("applied values = %v, want [10.5 42] (blank and invalid lines skipped)", got)
	}
}

// TestFoundersAndJoinerOnLoopback runs four aggnode commands in this
// process on loopback UDP: three founders (values 10, 20, 30) that
// bootstrap from each other, then a joiner (40) that names its seed as a
// bare host:port, which aggnode completes to host:port#0. The joiner must
// integrate at the next epoch (§4.2) and output the average of all four,
// 25 ± 1 %; a founder's /metrics must carry the mux's batch-size
// histogram; and cancelling the context (SIGTERM, in main) must drain
// every node without error.
func TestFoundersAndJoinerOnLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("live UDP nodes skipped in -short mode")
	}
	var addrs []string
	for range 4 {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, conn.LocalAddr().String())
		conn.Close()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	metricsAddr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type node struct {
		out  syncBuffer
		done chan error
	}
	start := func(args ...string) *node {
		n := &node{done: make(chan error, 1)}
		args = append(args, "-cycle", "20ms", "-delta", "500ms", "-gamma", "20", "-log", "warn")
		go func() { n.done <- run(ctx, args, &n.out) }()
		return n
	}
	nodes := []*node{
		start("-listen", addrs[0], "-value", "10", "-bootstrap", addrs[1]+","+addrs[2], "-metrics-addr", metricsAddr),
		start("-listen", addrs[1], "-value", "20", "-bootstrap", addrs[0]+"#0,"+addrs[2]+"#0"),
		start("-listen", addrs[2], "-value", "30", "-bootstrap", addrs[0]+","+addrs[1]),
	}
	// poll waits up to 10 s for cond to accept the node's output so far.
	poll := func(n *node, cond func(string) bool) bool {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			if cond(n.out.String()) {
				return true
			}
		}
		return false
	}
	for i, n := range nodes {
		if !poll(n, func(out string) bool { return strings.Contains(out, addrs[i]+"#0 up") }) {
			t.Fatalf("founder %d never came up:\n%s", i, n.out.String())
		}
	}
	joiner := start("-listen", addrs[3], "-value", "40", "-join", addrs[0])
	nodes = append(nodes, joiner)
	outputs := regexp.MustCompile(`(?m)^== epoch \d+ output: (\S+)`)
	if !poll(joiner, func(out string) bool {
		for _, m := range outputs.FindAllStringSubmatch(out, -1) {
			if v, err := strconv.ParseFloat(m[1], 64); err == nil && math.Abs(v-25) <= 0.25 {
				return true
			}
		}
		return false
	}) {
		t.Fatalf("the joiner never output 25 ± 1 %%:\n%s", joiner.out.String())
	}

	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "\nagg_transport_batch_size_count ") {
		t.Errorf("agg_transport_batch_size missing from a founder's /metrics:\n%s", body)
	}

	cancel()
	for i, n := range nodes {
		select {
		case err := <-n.done:
			if err != nil {
				t.Errorf("node %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("node %d did not drain", i)
		}
	}
}

// TestLoneCountNodeParticipates runs one founding COUNT node whose
// -concurrency is so small that it never leads an instance, so it holds
// no mass and no estimate. It still takes part in every epoch from its
// start, and its flight recorder, served on /debug/timeline, must say so
// on every tick: participation comes from the node, not from whether it
// has an estimate.
func TestLoneCountNodeParticipates(t *testing.T) {
	if testing.Short() {
		t.Skip("live UDP nodes skipped in -short mode")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	metricsAddr := ln.Addr().String()
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-mode", "count", "-concurrency", "1e-12", "-cycle", "20ms",
			"-delta", "500ms", "-gamma", "20", "-log", "warn", "-metrics-addr", metricsAddr}, &out)
	}()
	var dump struct {
		Entries []antientropy.TimelineEntry `json:"entries"`
	}
	for deadline := time.Now().Add(10 * time.Second); len(dump.Entries) < 3; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timeline holds %d entries after 10 s:\n%s", len(dump.Entries), out.String())
		}
		resp, err := http.Get("http://" + metricsAddr + "/debug/timeline")
		if err != nil {
			continue // not serving yet
		}
		err = json.NewDecoder(resp.Body).Decode(&dump)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(no estimate, 0 peers)") || strings.Contains(out.String(), "waiting for epoch") {
		t.Errorf("status lines of a participating node without an estimate:\n%s", out.String())
	}
	for _, e := range dump.Entries {
		if e.Participating != 1 {
			t.Fatalf("tick %d (epoch %d) records participating %d, want 1", e.Cycle, e.Epoch, e.Participating)
		}
	}
}

// syncBuffer is an io.Writer a running command writes to while the test
// reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}
