package scenario

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"antientropy/internal/obs"
	"antientropy/internal/overlay"
	"antientropy/internal/transport"
)

// udpTestOptions runs a test fleet on 25 ms cycles.
func udpTestOptions() FleetOptions {
	return FleetOptions{CycleLen: 25 * time.Millisecond}
}

// TestUDPWorkerProtocolHandshake drives a fleet through the whole
// conversation a run holds with it, pinning the protocol: founding with
// one endpoint per slot, start, a cycle with a crash and a join, samples
// with the fleet's aggregates, and stop. The same conversation runs on a
// UDP mux and on the in-memory network, and the replies must have the
// same shape on both.
func TestUDPWorkerProtocolHandshake(t *testing.T) {
	shapes := make(map[string][]string)
	for _, tc := range []struct {
		name   string
		newNet netBuilder
	}{{"direct+mux", newSocketNet}, {"direct+mem", newMemNet}} {
		t.Run(tc.name, func(t *testing.T) {
			sc := Scenario{
				Name: "proto", N: 4, Cycles: 4, EpochLen: 2, Seed: 3,
				Events: []Event{{Kind: KindCrash, At: 2, Count: 1}, {Kind: KindJoin, At: 2, Count: 1}},
			}.WithDefaults()
			d := newSupervisor(context.Background(), sc, FleetOptions{CycleLen: 20 * time.Millisecond}, "proto", tc.newNet)
			defer d.stop()
			shapes[tc.name] = fleetConversation(t, d)
		})
	}
	if a, b := shapes["direct+mux"], shapes["direct+mem"]; !slices.Equal(a, b) {
		t.Fatalf("reply shapes differ between the networks:\n mux: %q\n mem: %q", a, b)
	}
}

// fleetConversation plays a run's side of a four-founder fleet and
// returns the shape of every reply.
func fleetConversation(t *testing.T, d *supervisor) []string {
	var shapes []string
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	sample := func() fleetSample {
		s := d.gather()
		// Participation and estimate counts depend on where the wall clock
		// stands in the epoch; they are asserted below where they are fixed.
		shapes = append(shapes, fmt.Sprintf("sample alive=%d batch=%t", s.alive, s.batch.Counts != nil))
		return s
	}

	must(d.init())
	addrs := 0
	for slot := 0; slot < 4; slot++ {
		if d.roster.addr[slot] == "" || d.nodes[slot].ep == nil {
			t.Fatalf("founding slot %d has no endpoint", slot)
		}
		addrs++
	}
	shapes = append(shapes, fmt.Sprintf("init addrs=%d", addrs))
	must(d.start())

	must(d.runCycle(1))
	s := sample()
	if s.alive != 4 || s.participating != 4 || s.est.N() != 4 {
		t.Fatalf("sample = %+v, want 4 participating founders with estimates", s)
	}
	// The estimate is a full accumulator: founders draw uniform values in
	// [0, 100), so after at most one exchange each the four estimates
	// still spread, and the extremes bracket the mean.
	if est := s.est; est.Min() > est.Mean() || est.Max() < est.Mean() || est.Variance() < 0 {
		t.Fatalf("estimate moments inconsistent: %+v", est)
	}

	// Crash one node and join a fresh identity on a new slot in one
	// cycle: the joiner is up at its freshly bound address once the
	// cycle's actions return.
	founders := slices.Clone(d.roster.addr[:4])
	must(d.runCycle(2))
	joined := d.nodes[4].node != nil && d.roster.alive[4] && !slices.Contains(founders, d.roster.addr[4])
	shapes = append(shapes, fmt.Sprintf("cycle joined=%t", joined))
	if !joined {
		t.Fatalf("slot 4 after the join: node %v at %q", d.nodes[4].node, d.roster.addr[4])
	}
	if s := sample(); s.alive != 4 {
		t.Fatalf("alive after crash+join = %d, want 4", s.alive)
	}

	d.stop()
	d.stop() // idempotent
	return shapes
}

// TestSameCycleJoinerIsPartitioned: a slot that joins — by churn or a
// join wave — earlier in the cycle a partition starts lands in its
// component at once, as on the simulator; it must not talk across the
// split until some later cycle patches its address in.
func TestSameCycleJoinerIsPartitioned(t *testing.T) {
	sc := Scenario{
		Name: "join-then-split", N: 16, Cycles: 3, EpochLen: 2, Seed: 5,
		Events: []Event{
			{Kind: KindChurn, At: 2, Count: 3},
			{Kind: KindJoin, At: 2, Count: 2},
			{Kind: KindPartition, At: 2, Groups: []float64{1, 1}},
		},
	}.WithDefaults()
	d := newSupervisor(context.Background(), sc, FleetOptions{CycleLen: 20 * time.Millisecond}, "test", newMemNet)
	defer d.stop()
	if err := d.init(); err != nil {
		t.Fatal(err)
	}
	if err := d.start(); err != nil {
		t.Fatal(err)
	}
	if err := d.runCycle(1); err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(d.roster.addr)
	if err := d.runCycle(2); err != nil {
		t.Fatal(err)
	}
	groupOf := d.script.part.groupOf
	live := d.roster.liveSlots()
	var joiners []int
	for _, slot := range live {
		if d.roster.addr[slot] != before[slot] {
			joiners = append(joiners, slot)
		}
	}
	// Churn may hit one slot twice; the join wave takes the two fresh slots.
	if len(joiners) < 3 || joiners[len(joiners)-2] != sc.N || joiners[len(joiners)-1] != sc.N+1 {
		t.Fatalf("slots %v came up at a new address in cycle 2, want churned ones and %d, %d", joiners, sc.N, sc.N+1)
	}
	for _, j := range joiners {
		for _, o := range live {
			if groupOf[o] == groupOf[j] {
				continue
			}
			a, b := d.roster.addr[j], d.roster.addr[o]
			if !d.filter.DropOutbound(a, b) || !d.filter.DropOutbound(b, a) {
				t.Fatalf("joiner slot %d (%s, component %d) talks to slot %d (%s, component %d) across the partition",
					j, a, groupOf[j], o, b, groupOf[o])
			}
		}
	}
}

// TestFleetSybilFloodSharedSchedule lands a sybil flood on the one
// Byzantine schedule the script marks and every node reads, on both fleet
// executors (run it under -race): each sybil counts once, and the
// honest-only estimate leaves every sybil out.
func TestFleetSybilFloodSharedSchedule(t *testing.T) {
	for _, tc := range []struct {
		name   string
		newNet netBuilder
	}{{"udp", newSocketNet}, {"live", newMemNet}} {
		t.Run(tc.name, func(t *testing.T) {
			sc := Scenario{
				Name: "sybil", N: 8, Cycles: 4, EpochLen: 2, Seed: 11,
				Adversaries: []Adversary{{Behavior: BehaviorSybilFlood, At: 1, Until: 2, Rate: 2, Value: 1e6}},
			}.WithDefaults()
			d := newSupervisor(context.Background(), sc, FleetOptions{CycleLen: 20 * time.Millisecond}, tc.name, tc.newNet)
			defer d.stop()
			if err := d.init(); err != nil {
				t.Fatal(err)
			}
			if err := d.start(); err != nil {
				t.Fatal(err)
			}
			for cycle := 1; cycle <= 2; cycle++ {
				if err := d.runCycle(cycle); err != nil {
					t.Fatal(err)
				}
			}
			if got := d.adv.HostileCount(); got != 4 {
				t.Fatalf("HostileCount = %d after 4 sybil joins", got)
			}
			var sybils []int
			for slot := range d.nodes {
				if d.adv.hostile(slot) {
					sybils = append(sybils, slot)
				}
			}
			if !slices.Equal(sybils, []int{8, 9, 10, 11}) {
				t.Fatalf("hostile slots %v, want the four join slots", sybils)
			}
			// A joiner sits out the epoch it joined in; wait until every
			// sybil takes part, so leaving them out of the estimate is a
			// choice of the sampler, not of the protocol.
			deadline := time.Now().Add(5 * time.Second)
			for _, slot := range sybils {
				for !d.nodes[slot].node.Snapshot().Participating {
					if time.Now().After(deadline) {
						t.Fatalf("sybil slot %d never joined an epoch", slot)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			if s := d.gather(); s.participating != 12 || s.est.N() != 8 {
				t.Fatalf("%d participants, %d estimates sampled; want 12 and the 8 honest ones", s.participating, s.est.N())
			}
		})
	}
}

// openFDs counts the process's open file descriptors, or returns -1 where
// /proc is unavailable.
func openFDs() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// leakCheck snapshots the goroutine count and the open fds, and returns a
// check that both are back at those values. Nodes, mux readers and the
// process's scheduler wind down asynchronously after their Stop, so the
// check polls for a while before it fails.
func leakCheck(t *testing.T) func() {
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			g, f := runtime.NumGoroutine(), openFDs()
			if g <= goroutines && f <= fds {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("fleet left %d goroutines (was %d) and %d fds (was %d) behind:\n%s", g, goroutines, f, fds, buf)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestFleetsLeaveNothingBehind runs both fleet executors to completion and
// cancels them mid-run: every node, endpoint, socket and goroutine they
// made must be gone once they return.
func TestFleetsLeaveNothingBehind(t *testing.T) {
	sc := Scenario{
		Name: "leak", N: 12, Cycles: 4, EpochLen: 2, Seed: 4,
		Events: []Event{{Kind: KindJoin, At: 2, Count: 2}, {Kind: KindCrash, At: 3, Count: 2}},
	}.WithDefaults()
	executors := map[string]func(context.Context) (*RunResult, error){
		"udp": func(ctx context.Context) (*RunResult, error) { return RunUDP(ctx, sc, udpTestOptions()) },
		"live": func(ctx context.Context) (*RunResult, error) {
			return RunLive(ctx, sc, FleetOptions{CycleLen: 20 * time.Millisecond})
		},
	}
	for _, name := range []string{"udp", "live"} {
		run := executors[name]
		t.Run(name+"/clean", func(t *testing.T) {
			check := leakCheck(t)
			if _, err := run(context.Background()); err != nil {
				t.Fatal(err)
			}
			check()
		})
		t.Run(name+"/cancel", func(t *testing.T) {
			check := leakCheck(t)
			ctx, cancel := context.WithCancel(context.Background())
			// A run founds its twelve nodes in about a millisecond and
			// plays its four cycles from one cycle later, so it is past
			// its founding and short of its end at 50ms.
			time.AfterFunc(50*time.Millisecond, cancel)
			if _, err := run(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v, want context.Canceled", err)
			}
			check()
		})
	}
}

// TestFleetFirstCycleFollowsFounding: a fleet's first scripted cycle
// starts within one cycle of its founding, not at the next epoch boundary
// after it, so a run with long epochs does not first idle through most of
// one. Both runs found eight nodes in well under a millisecond and play
// three cycles of 10ms, against epochs of one second.
func TestFleetFirstCycleFollowsFounding(t *testing.T) {
	sc := Scenario{Name: "prompt", N: 8, Cycles: 3, EpochLen: 100, Seed: 6}.WithDefaults()
	opts := FleetOptions{CycleLen: 10 * time.Millisecond}
	epoch := time.Duration(sc.EpochLen) * opts.CycleLen
	for name, run := range map[string]func(context.Context, Scenario, FleetOptions) (*RunResult, error){
		"live": RunLive, "udp": RunUDP,
	} {
		t.Run(name, func(t *testing.T) {
			start := time.Now()
			if _, err := run(context.Background(), sc, opts); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took >= epoch/2 {
				t.Fatalf("run of %d cycles of %v took %v: it waited for an epoch boundary of %v", sc.Cycles, opts.CycleLen, took, epoch)
			}
		})
	}
}

// TestUDPSpawnFailure pins the error paths of a fleet's founding: a
// network that cannot be built, and one that runs out of endpoints after
// two slots have bound theirs. The run must surface the error, not panic
// tearing down a half-initialized fleet, and leave nothing behind — the
// built mux's sockets included.
func TestUDPSpawnFailure(t *testing.T) {
	check := leakCheck(t)
	sc := Scenario{Name: "udp-spawn-fail", N: 4, Cycles: 2, EpochLen: 2, Seed: 1}.WithDefaults()
	noNet := func(Scenario, *transport.UDPFilter) (fleetNet, error) { return nil, errors.New("no sockets left") }
	d := newSupervisor(context.Background(), sc, udpTestOptions(), "udp", noNet)
	if _, err := d.run(); err == nil || !strings.Contains(err.Error(), "network: no sockets left") {
		t.Fatalf("run with an unbuildable network returned %v", err)
	}
	twoSlots := func(sc Scenario, filter *transport.UDPFilter) (fleetNet, error) {
		net, err := newSocketNet(sc, filter)
		if err != nil {
			return nil, err
		}
		return &scarceNet{fleetNet: net, left: 2}, nil
	}
	d = newSupervisor(context.Background(), sc, udpTestOptions(), "udp", twoSlots)
	if _, err := d.run(); err == nil || !strings.Contains(err.Error(), "slot 2: no endpoints left") {
		t.Fatalf("run on a network of two endpoints returned %v", err)
	}
	check()
}

// scarceNet is a fleet network that hands out left more endpoints.
type scarceNet struct {
	fleetNet
	left int
}

func (n *scarceNet) endpoint() (nodeEndpoint, error) {
	if n.left == 0 {
		return nil, errors.New("no endpoints left")
	}
	n.left--
	return n.fleetNet.endpoint()
}

// TestUDPExecutorPartitionHeal runs a miniature partition-and-heal
// scenario on one UDP mux on loopback. Like the live-mem equivalent the
// run is wall-clock driven, so assertions are deliberately loose: the
// point is that a fleet on real sockets survives a scripted partition and re-converges after the heal.
// /metrics is scraped mid-run (runScraped), and the run's divergence from
// the simulator's on the same script is computed over every cycle.
func TestUDPExecutorPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP fleet test skipped in -short mode")
	}
	sc := Scenario{
		Name: "udp-partition-heal", N: 24, Cycles: 24, EpochLen: 8, Seed: 9,
		Events: []Event{
			{Kind: KindPartition, At: 3, Groups: []float64{1, 1}},
			{Kind: KindHeal, At: 10},
		},
	}.WithDefaults()
	opts := udpTestOptions()
	opts.Obs = obs.NewRegistry()
	res := runScraped(t, opts.Obs, func() (*RunResult, error) { return RunUDP(context.Background(), sc, opts) })
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
	checkDivergence(t, sc, res)
}

// TestUDPExecutorChurnJoinCrash exercises the remaining scripted event
// kinds over UDP: churn, a join wave, a crash and a loss
// burst, checking the supervisor's fleet bookkeeping against the
// sampled node counts.
func TestUDPExecutorChurnJoinCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP fleet test skipped in -short mode")
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
	res, err := RunUDP(context.Background(), sc, udpTestOptions())
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

// TestUDPExecutorLieEstimateTraceStitches is the UDP half of the
// wire-lying acceptance: Byzantine nodes corrupt their replies at the
// wire layer without touching the exchange ID, so the fleet's one trace
// ring still stitches spans to completion, and the merged node metrics
// surface the lie count.
func TestUDPExecutorLieEstimateTraceStitches(t *testing.T) {
	if testing.Short() {
		t.Skip("UDP fleet test skipped in -short mode")
	}
	sc := Scenario{
		Name: "udp-lie", N: 20, Cycles: 16, EpochLen: 8, Seed: 7,
		Adversaries: []Adversary{{Behavior: BehaviorLieEstimate, Fraction: 0.2, Value: 1e6}},
	}.WithDefaults()
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(8192)
	opts := udpTestOptions()
	opts.Obs = reg
	opts.Trace = ring
	res, err := RunUDP(context.Background(), sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Final().Alive; got != sc.N {
		t.Fatalf("final alive = %d, want %d (lying must not change membership)", got, sc.N)
	}
	spans := obs.StitchSpans(ring.Entries())
	completed := 0
	for _, sp := range spans {
		if sp.Outcome == "completed" {
			completed++
		}
	}
	if completed == 0 {
		t.Fatalf("no completed spans stitched from %d events — lying broke exchange identity",
			len(ring.Entries()))
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
		t.Error("Byzantine nodes reported no lies")
	}
	if !strings.Contains(out, "agg_adversary_nodes 4") { // round(0.2 * 20)
		t.Error("hostile population gauge missing or wrong in supervisor export")
	}
}

// bootstrapSubsetOracle is bootstrapSubset as it was with a fresh seen set
// per call: the reference the shared-scratch sampler must reproduce.
func bootstrapSubsetOracle(all []string, seed uint64, slot int) []string {
	want := 4 * overlay.DefaultCacheSize
	if len(all) <= want+1 {
		return all
	}
	rng := rand.New(rand.NewPCG(seed, uint64(slot)*0x9e3779b97f4a7c15+0x6c62272e07bb0142))
	out := make([]string, 0, want)
	seen := make(map[int]struct{}, want)
	for len(out) < want {
		i := rng.IntN(len(all))
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		out = append(out, all[i])
	}
	return out
}

// TestBootstrapSubsetSharedScratch: one seen set reused across a founding's
// slots draws every slot's contacts exactly as a fresh set per slot did.
func TestBootstrapSubsetSharedScratch(t *testing.T) {
	for _, n := range []int{48, 121, 122, 500, 10_000} {
		all := make([]string, n)
		for i := range all {
			all[i] = fmt.Sprintf("mem-%d", i)
		}
		for _, seed := range []uint64{1, 42, 9191} {
			seen := make(map[int]struct{})
			for slot := range min(n, 300) {
				got := bootstrapSubset(all, seed, slot, seen)
				if want := bootstrapSubsetOracle(all, seed, slot); !slices.Equal(got, want) {
					t.Fatalf("n=%d seed=%d slot=%d: contacts differ from a fresh seen set's", n, seed, slot)
				}
			}
		}
	}
}
