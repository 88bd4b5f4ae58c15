package scenario

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"antientropy/internal/obs"
)

// udpWorkerEnv gates the re-exec helper: the supervisor tests relaunch
// this test binary with it set, turning the process into a UDP worker.
const udpWorkerEnv = "ANTIENTROPY_UDP_WORKER"

// TestUDPWorkerHelper is not a test: it is the worker process of the
// two-process executor tests, entered only when the supervisor re-execs
// the test binary with udpWorkerEnv set.
func TestUDPWorkerHelper(t *testing.T) {
	if os.Getenv(udpWorkerEnv) != "1" {
		t.Skip("helper process for the UDP executor tests")
	}
	if err := RunUDPWorker(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "udp worker helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// udpTestOptions relaunches this test binary as the worker processes.
func udpTestOptions(workers int) UDPOptions {
	return UDPOptions{
		Workers:   workers,
		CycleLen:  25 * time.Millisecond,
		WorkerCmd: []string{os.Args[0], "-test.run=^TestUDPWorkerHelper$"},
		WorkerEnv: []string{udpWorkerEnv + "=1"},
	}
}

// TestUDPWorkerProtocolHandshake drives one worker through the whole
// control conversation, pinning the protocol: init/ready with one
// endpoint per slot, start/started, cycle/ack barriers, sample/metrics
// aggregates and shutdown/bye. The same conversation runs against both
// ways a supervisor holds a worker — JSON lines over pipes to a worker on
// a UDP mux (in-process here, instead of a fork), and direct calls to a
// worker on the in-memory network — and the replies must have the same
// shape on both.
func TestUDPWorkerProtocolHandshake(t *testing.T) {
	shapes := make(map[string][]string)
	for _, tc := range []struct {
		name string
		open func(t *testing.T) (call func(udpMsg) (udpMsg, error), done func())
	}{
		{"pipes+mux", func(t *testing.T) (func(udpMsg) (udpMsg, error), func()) {
			supRead, workerWrite := io.Pipe()
			workerRead, supWrite := io.Pipe()
			workerDone := make(chan error, 1)
			go func() { workerDone <- RunUDPWorker(workerRead, workerWrite) }()
			conn := newUDPConn(supRead, supWrite)
			call := func(m udpMsg) (udpMsg, error) {
				if err := conn.send(m); err != nil {
					return udpMsg{}, err
				}
				return conn.recv()
			}
			return call, func() {
				supWrite.Close()
				select {
				case err := <-workerDone:
					if err != nil {
						t.Fatalf("worker exited with %v", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("worker did not exit after shutdown")
				}
			}
		}},
		{"direct+mem", func(t *testing.T) (func(udpMsg) (udpMsg, error), func()) {
			h := &localWorker{w: newUDPWorker(newMemNet)}
			call := func(m udpMsg) (udpMsg, error) {
				if err := h.send(m); err != nil {
					return udpMsg{}, err
				}
				return h.recv(context.Background(), time.Second)
			}
			return call, func() {
				if err := h.release(true); err != nil {
					t.Fatal(err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			call, done := tc.open(t)
			shapes[tc.name] = workerConversation(t, call)
			done()
		})
	}
	if a, b := shapes["pipes+mux"], shapes["direct+mem"]; !slices.Equal(a, b) {
		t.Fatalf("reply shapes differ between the worker handles:\n pipes+mux:  %q\n direct+mem: %q", a, b)
	}
}

// workerConversation plays the supervisor's side of a four-founder run
// and returns the shape of every reply.
func workerConversation(t *testing.T, call func(udpMsg) (udpMsg, error)) []string {
	var shapes []string
	send := func(m udpMsg) udpMsg {
		t.Helper()
		reply, err := call(m)
		if err != nil {
			t.Fatalf("reply to %s: %v", m.Op, err)
		}
		if reply.Op == udpOpFatal {
			t.Fatalf("worker failed on %s: %s", m.Op, reply.Err)
		}
		// Participation and estimate counts depend on where the wall clock
		// stands in the epoch; they are asserted below where they are fixed.
		shapes = append(shapes, fmt.Sprintf("%s cycle=%d addrs=%d alive=%d totals=%t rtt=%t batch=%t trace=%d",
			reply.Op, reply.Cycle, len(reply.Addrs), reply.Alive,
			reply.AgentTotals != nil, reply.RTTHist != nil, reply.BatchHist != nil, len(reply.Trace)))
		return reply
	}

	sc := Scenario{Name: "proto", N: 4, Cycles: 4, EpochLen: 2, Seed: 3}.WithDefaults()
	ready := send(udpMsg{
		Op: udpOpInit, Scenario: &sc, Worker: 0,
		Slots: []int{0, 1, 2, 3}, CacheSize: 8, CycleLenUS: 20000, QueueLen: 64,
	})
	if ready.Op != udpOpReady || len(ready.Addrs) != 4 {
		t.Fatalf("ready = %+v, want 4 bound addresses", ready)
	}
	bootstrap := make([]string, 0, 4)
	for slot := 0; slot < 4; slot++ {
		addr, ok := ready.Addrs[slot]
		if !ok || addr == "" {
			t.Fatalf("slot %d missing from ready addrs %v", slot, ready.Addrs)
		}
		bootstrap = append(bootstrap, addr)
	}

	started := send(udpMsg{Op: udpOpStart, AnchorUnixNano: time.Now().UnixNano(), Bootstrap: bootstrap})
	if started.Op != udpOpStarted {
		t.Fatalf("started = %+v", started)
	}

	ack := send(udpMsg{Op: udpOpCycle, Cycle: 1, Loss: 0})
	if ack.Op != udpOpAck || ack.Cycle != 1 {
		t.Fatalf("ack = %+v", ack)
	}

	metrics := send(udpMsg{Op: udpOpSample, Cycle: 1})
	if metrics.Op != udpOpMetrics || metrics.Alive != 4 {
		t.Fatalf("metrics = %+v, want 4 alive", metrics)
	}
	if metrics.Participating != 4 || metrics.Est.N() != 4 {
		t.Fatalf("metrics = %+v, want 4 participating founders with estimates", metrics)
	}
	// The estimate partial is a full accumulator: founders draw uniform
	// values in [0, 100), so after at most one exchange each the four
	// estimates still spread, and the extremes bracket the mean.
	if est := metrics.Est; est.Min() > est.Mean() || est.Max() < est.Mean() || est.Variance() < 0 {
		t.Fatalf("estimate moments inconsistent: %+v", est)
	}
	if metrics.AgentTotals == nil || metrics.RTTHist == nil || metrics.BatchHist == nil {
		t.Fatalf("metrics = %+v, want agent totals and RTT / batch histograms", metrics)
	}

	// Crash one node, join a fresh identity on a new slot: the ack must
	// carry the joiner's freshly bound address.
	ack = send(udpMsg{
		Op: udpOpCycle, Cycle: 2,
		Crash: []int{1},
		Joins: []udpJoin{{Slot: 4, Seeds: bootstrap[:2], Group: -1}},
	})
	if len(ack.Addrs) != 1 || ack.Addrs[4] == "" {
		t.Fatalf("ack after join = %+v, want the joiner address for slot 4", ack)
	}
	metrics = send(udpMsg{Op: udpOpSample, Cycle: 2})
	if metrics.Alive != 4 {
		t.Fatalf("alive after crash+join = %d, want 4", metrics.Alive)
	}

	bye := send(udpMsg{Op: udpOpShutdown})
	if bye.Op != udpOpBye {
		t.Fatalf("bye = %+v", bye)
	}
	return shapes
}

// TestUDPSpawnFailure pins the error path when a worker binary cannot be
// launched: RunUDP must surface the spawn error (not panic in teardown
// on a half-initialized worker table).
func TestUDPSpawnFailure(t *testing.T) {
	sc := Scenario{Name: "udp-spawn-fail", N: 4, Cycles: 2, EpochLen: 2, Seed: 1}.WithDefaults()
	opts := udpTestOptions(2)
	opts.WorkerCmd = []string{"/nonexistent/aggscen-worker-binary"}
	if _, err := RunUDP(context.Background(), sc, opts); err == nil {
		t.Fatal("RunUDP with an unlaunchable worker binary returned nil error")
	}
}

// TestUDPExecutorPartitionHeal runs a miniature partition-and-heal
// scenario across real worker processes on UDP loopback. Like the
// live-mem equivalent the run is wall-clock driven, so assertions are
// deliberately loose: the point is that a multi-process fleet on real
// sockets survives a scripted partition and re-converges after the heal.
func TestUDPExecutorPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process UDP fleet test skipped in -short mode")
	}
	sc := Scenario{
		Name: "udp-partition-heal", N: 24, Cycles: 24, EpochLen: 8, Seed: 9,
		Events: []Event{
			{Kind: KindPartition, At: 3, Groups: []float64{1, 1}},
			{Kind: KindHeal, At: 10},
		},
	}.WithDefaults()
	res, err := RunUDP(context.Background(), sc, udpTestOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCycle) != sc.Cycles+1 {
		t.Fatalf("got %d metric rows, want %d", len(res.PerCycle), sc.Cycles+1)
	}
	if res.Executor != "udp" {
		t.Fatalf("executor = %q, want udp", res.Executor)
	}
	f := res.Final()
	if f.Alive != sc.N {
		t.Fatalf("final alive = %d, want %d", f.Alive, sc.N)
	}
	if f.RelError > 0.05 {
		t.Fatalf("final rel error %g: UDP fleet did not re-converge after the heal", f.RelError)
	}
	if res.TotalMessages() == 0 {
		t.Fatal("no exchange attempts recorded")
	}
}

// TestUDPExecutorChurnJoinCrash exercises the remaining scripted event
// kinds across worker processes: churn, a join wave, a crash and a loss
// burst, checking the supervisor's fleet bookkeeping against the
// workers' reports.
func TestUDPExecutorChurnJoinCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process UDP fleet test skipped in -short mode")
	}
	sc := Scenario{
		Name: "udp-mixed", N: 20, Cycles: 20, EpochLen: 10, Seed: 6,
		Events: []Event{
			{Kind: KindChurn, At: 3, Until: 6, Count: 1},
			{Kind: KindJoin, At: 5, Count: 4},
			{Kind: KindCrash, At: 9, Count: 3},
			{Kind: KindLoss, At: 12, Until: 15, Rate: 0.2},
		},
	}.WithDefaults()
	res, err := RunUDP(context.Background(), sc, udpTestOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerCycle[6].Alive; got != 24 {
		t.Fatalf("alive after the join wave = %d, want 24", got)
	}
	if got := res.PerCycle[10].Alive; got != 21 {
		t.Fatalf("alive after the crash = %d, want 21", got)
	}
	// After the loss burst ends, a clean epoch (cycles 11-20 restarted at
	// 11) restores a close estimate.
	if f := res.Final(); f.RelError > 0.1 {
		t.Fatalf("final rel error %g after churn/join/crash/loss", f.RelError)
	}
}

// TestUDPExecutorLieEstimateTraceStitches is the multi-process half of
// the wire-lying acceptance: Byzantine workers corrupt their replies at
// the wire layer without touching the exchange ID, so the supervisor's
// merged fleet trace still stitches cross-process spans to completion,
// and the merged worker metrics surface the lie count.
func TestUDPExecutorLieEstimateTraceStitches(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process UDP fleet test skipped in -short mode")
	}
	sc := Scenario{
		Name: "udp-lie", N: 20, Cycles: 16, EpochLen: 8, Seed: 7,
		Adversaries: []Adversary{{Behavior: BehaviorLieEstimate, Fraction: 0.2, Value: 1e6}},
	}.WithDefaults()
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(8192)
	opts := udpTestOptions(2)
	opts.Obs = reg
	opts.Trace = ring
	res, err := RunUDP(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Final().Alive; got != sc.N {
		t.Fatalf("final alive = %d, want %d (lying must not change membership)", got, sc.N)
	}
	spans := obs.StitchSpans(ring.Events())
	completed := 0
	for _, sp := range spans {
		if sp.Outcome == "completed" {
			completed++
		}
	}
	if completed == 0 {
		t.Fatalf("no completed spans stitched from %d merged events — lying broke exchange identity",
			len(ring.Events()))
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "agg_adversary_lies_total") {
		t.Fatal("lie counter missing from the supervisor export")
	}
	if strings.Contains(out, "agg_adversary_lies_total 0\n") {
		t.Error("Byzantine workers reported no lies")
	}
	if !strings.Contains(out, "agg_adversary_nodes 4") { // round(0.2 * 20)
		t.Error("hostile population gauge missing or wrong in supervisor export")
	}
}
