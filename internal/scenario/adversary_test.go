package scenario

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"antientropy/internal/agent"
	"antientropy/internal/obs"
)

// TestAdvScheduleDeterministic pins the cross-executor contract: the
// Byzantine plan is a pure function of the scenario, so the supervisor
// and both sim engines — each rebuilding the schedule independently —
// select the identical attacker set.
func TestAdvScheduleDeterministic(t *testing.T) {
	sc, err := ByName("inject-extreme")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 200
	a := newAdvSchedule(sc, sc.MaxSlots())
	b := newAdvSchedule(sc, sc.MaxSlots())
	if a == nil || b == nil {
		t.Fatal("attacked scenario produced a nil schedule")
	}
	if a.byzN != b.byzN || a.byzN != 10 { // 5% of 200
		t.Fatalf("byzN = %d/%d, want 10", a.byzN, b.byzN)
	}
	for slot := range a.byzOf {
		if a.byzOf[slot] != b.byzOf[slot] {
			t.Fatalf("slot %d: schedule disagrees (%d vs %d)", slot, a.byzOf[slot], b.byzOf[slot])
		}
	}
	honest := Scenario{Name: "h", N: 50, Cycles: 10, Seed: 1}.WithDefaults()
	if s := newAdvSchedule(honest, honest.MaxSlots()); s != nil {
		t.Fatal("honest scenario got a non-nil schedule — honest paths must stay untouched")
	}
}

// TestAttackedShardedDeterministicCSV extends the sharded determinism
// contract to attacked runs: same seed, same shard count, byte-identical
// CSV, at several shard counts.
func TestAttackedShardedDeterministicCSV(t *testing.T) {
	sc, err := ByName("inject-extreme")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 200
	sc.Cycles = 40
	for _, shards := range []int{1, 4} {
		render := func() []byte {
			res, err := RunSimWith(sc, SimOptions{Engine: EngineSharded, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if a, b := render(), render(); !bytes.Equal(a, b) {
			t.Fatalf("shards=%d: identical attacked runs produced different CSV", shards)
		}
	}
}

// TestHonestTwinZeroBiasWithoutAdversaries: a scenario with no
// adversaries is its own honest twin, so the bias report is identically
// zero — the baseline the attacked assertions lean on.
func TestHonestTwinZeroBiasWithoutAdversaries(t *testing.T) {
	sc, err := ByName("steady-churn")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 150
	sc.Cycles = 30
	twin, err := RunSimWithTwin(sc, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if twin.Bias.MeanAbsBias != 0 || twin.Bias.MaxAbsBias != 0 {
		t.Fatalf("honest scenario reported non-zero bias: %+v", twin.Bias)
	}
	if twin.Bias.Cycles != sc.Cycles+1 {
		t.Fatalf("bias covers %d cycles, want %d", twin.Bias.Cycles, sc.Cycles+1)
	}
}

// TestInjectExtremeBiasAgreesAcrossEngines runs the undefended attack
// with one shard and with several: the induced bias is an attack
// property, not an execution artifact, so the two measurements must be close (execution differs,
// physics must not).
func TestInjectExtremeBiasAgreesAcrossEngines(t *testing.T) {
	sc, err := ByName("inject-extreme")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 300
	sc.Defense = Defense{}
	serial, err := RunSimWithTwin(sc, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := RunSimWithTwin(sc, SimOptions{Engine: EngineSharded, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	sm, pm := serial.Bias.MeanAbsBias, sharded.Bias.MeanAbsBias
	if sm <= 0 || pm <= 0 {
		t.Fatalf("undefended attack induced no bias: serial %g, sharded %g", sm, pm)
	}
	if ratio := sm / pm; ratio < 0.5 || ratio > 2 {
		t.Fatalf("engines disagree on attack bias: serial %g vs sharded %g", sm, pm)
	}
}

// TestDefenseReducesBiasTenfold is the PR's acceptance gate, on both
// engines: with defenses off, inject-extreme at 5%% Byzantine shows
// measurable bias against the honest twin; with the canned defense
// (median-of-k) the mean |bias| drops at least 10x on the same seed.
func TestDefenseReducesBiasTenfold(t *testing.T) {
	sc, err := ByName("inject-extreme")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 300
	for _, opts := range []SimOptions{
		{},
		{Engine: EngineSharded, Shards: 4},
	} {
		bare := sc
		bare.Defense = Defense{}
		undefended, err := RunSimWithTwin(bare, opts)
		if err != nil {
			t.Fatal(err)
		}
		defended, err := RunSimWithTwin(sc, opts)
		if err != nil {
			t.Fatal(err)
		}
		u, d := undefended.Bias.MeanAbsBias, defended.Bias.MeanAbsBias
		// 5% of the population injecting 1e12 must leave a macroscopic
		// footprint in the honest estimates.
		if u < 1e9 {
			t.Fatalf("engine %q: undefended mean |bias| %g suspiciously small", opts.Engine, u)
		}
		if d <= 0 {
			t.Fatalf("engine %q: defended bias is exactly zero — twin plumbing broken?", opts.Engine)
		}
		if u/d < 10 {
			t.Fatalf("engine %q: defense reduced mean |bias| only %.1fx (undefended %g, defended %g), want >= 10x",
				opts.Engine, u/d, u, d)
		}
		// The defended run must actually converge back to the truth.
		if fb := defended.Bias.FinalAbsBias; fb > 100 {
			t.Fatalf("engine %q: defended final |bias| %g — the defense never recovered", opts.Engine, fb)
		}
	}
}

// TestSybilFloodJoinCap: the epoch-scoped join cap bounds how many
// identities the flood lands while the clamped mean bounds what each
// admitted sybil injects; without the defense the flood joins freely and
// swings the estimate.
func TestSybilFloodJoinCap(t *testing.T) {
	sc, err := ByName("sybil-flood")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 300
	bare := sc
	bare.Defense = Defense{}
	undefended, err := RunSimWithTwin(bare, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defended, err := RunSimWithTwin(sc, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The attack window (cycles 31-60, one epoch) attempts 600 joins;
	// uncapped they all land, capped at most JoinCap do.
	ua, da := undefended.Attacked.Final().Alive, defended.Attacked.Final().Alive
	if ua != sc.N+600 {
		t.Fatalf("undefended final alive = %d, want %d (every sybil admitted)", ua, sc.N+600)
	}
	if want := sc.N + sc.Defense.JoinCap; da != want {
		t.Fatalf("defended final alive = %d, want %d (join cap enforced)", da, want)
	}
	if u, d := undefended.Bias.MeanAbsBias, defended.Bias.MeanAbsBias; u/d < 10 {
		t.Fatalf("join cap + clamped mean reduced sybil bias only %.1fx (undefended %g, defended %g)",
			u/d, u, d)
	}
}

// TestLieEstimateBiasesWithoutMembershipChange: wire-level lying leaves
// the membership untouched (the attacker participates normally) but
// drags honest estimates toward the lie.
func TestLieEstimateBiasesWithoutMembershipChange(t *testing.T) {
	sc := Scenario{
		Name: "lie-unit", N: 200, Cycles: 60, Seed: 5,
		Adversaries: []Adversary{{Behavior: BehaviorLieEstimate, Fraction: 0.1, Value: 1e6}},
	}
	twin, err := RunSimWithTwin(sc, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := twin.Attacked.Final().Alive; got != sc.N {
		t.Fatalf("lying changed membership: final alive %d, want %d", got, sc.N)
	}
	if twin.Bias.MeanAbsBias < 1e4 {
		t.Fatalf("persistent lying induced mean |bias| %g — expected a strong pull toward 1e6",
			twin.Bias.MeanAbsBias)
	}
	if twin.Attacked.TotalMessages() == 0 {
		t.Fatal("no exchanges recorded")
	}
}

// TestReplayStaleInducesLagBias: replaying a two-epoch-old estimate
// under a value ramp biases honest estimates toward the past; the stale
// epoch tag it carries is exactly what §4.3 DropStale rejects, keeping
// the bias bounded.
func TestReplayStaleInducesLagBias(t *testing.T) {
	sc := Scenario{
		Name: "replay-unit", N: 200, Cycles: 90, Seed: 6,
		Adversaries: []Adversary{{Behavior: BehaviorReplayStale, Fraction: 0.1, Lag: 2}},
		Events:      []Event{{Kind: KindValueRamp, At: 1, Until: 90, Delta: 50}},
	}
	twin, err := RunSimWithTwin(sc, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if twin.Bias.MaxAbsBias == 0 {
		t.Fatal("replay attack induced no bias under a value ramp")
	}
	// The ramp moves truth by 50 over the run; a lag-2 replay must not
	// swing estimates by orders of magnitude more than the signal.
	if twin.Bias.MaxAbsBias > 500 {
		t.Fatalf("replay bias %g out of scale for a +50 ramp", twin.Bias.MaxAbsBias)
	}
}

// TestReplayStaleRecordDiesWithItsSlot runs the simulator with a lag-1
// replay-stale attacker through a crash of every node but one at cycle 1,
// the crashed slots restarted as joiners at once. The joiners sit out
// epoch 0 and join at the cycle-7 restart, as a new live node does, so
// the attacker in its slot has sealed nothing and must answer honestly
// through epoch 1: no lie in a 12-cycle run. Sealing the joiner's
// non-estimate at the cycle-7 edge, or keeping its predecessor's record,
// makes it replay at once. After its first participating epoch it seals
// an output and replays it through epoch 2. Seed 1's crash takes the
// attacker: a surviving one would have lied in epoch 1.
func TestReplayStaleRecordDiesWithItsSlot(t *testing.T) {
	lies := func(cycles int) float64 {
		sc := Scenario{
			Name: "replay-churn", N: 12, Cycles: cycles, EpochLen: 6, Seed: 1,
			Adversaries: []Adversary{{Behavior: BehaviorReplayStale, Count: 1, Lag: 1}},
			Events: []Event{
				{Kind: KindCrash, At: 1, Count: 11},
				{Kind: KindRestart, At: 1, Count: 11},
			},
		}
		reg := obs.NewRegistry()
		if _, err := RunSimWith(sc, SimOptions{Obs: reg}); err != nil {
			t.Fatal(err)
		}
		v, ok := seriesValue(scrape(reg), "agg_adversary_lies_total")
		if !ok {
			t.Fatal("agg_adversary_lies_total missing")
		}
		return v
	}
	if n := lies(12); n != 0 {
		t.Errorf("a replaced replay-stale slot lied %g times before sealing an output", n)
	}
	if n := lies(18); n == 0 {
		t.Error("the replaced attacker never replayed its first sealed output")
	}
}

// TestAdversaryObsExports: an attacked sim run with a registry attached
// exports the adversary telemetry family — hostile population, lie and
// rejection counters, join refusals and the live bias gauge.
func TestAdversaryObsExports(t *testing.T) {
	sc, err := ByName("inject-extreme")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 128
	sc.Cycles = 30
	// The clamping combiner counts every out-of-range peer sample it
	// bounds, so the rejection counter is observable (median-of-k
	// outvotes extremes without "rejecting" anything).
	sc.Defense = Defense{Combiner: "clamped-mean", ClampMin: -1e6, ClampMax: 1e6}
	reg := obs.NewRegistry()
	if _, err := RunSimWithTwin(sc, SimOptions{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"agg_adversary_nodes",
		"agg_adversary_lies_total",
		"agg_adversary_rejected_total",
		"agg_adversary_joins_refused_total",
		"agg_adversary_bias",
	} {
		if !strings.Contains(out, "\n"+name+" ") {
			t.Errorf("series %s missing from export", name)
		}
	}
	// 5% of 128 = 6 hostile slots.
	if !strings.Contains(out, "agg_adversary_nodes 6") {
		t.Errorf("hostile population gauge wrong:\n%s", out)
	}
	// median-of-k defense rejects/outvotes extreme samples over the run.
	if strings.Contains(out, "agg_adversary_rejected_total 0\n") {
		t.Error("defense rejected nothing during an inject-extreme run")
	}
}

// TestLiveLieEstimateTraceStitches is the live-fleet half of the
// acceptance: wire-level lying must not break exchange identity — the
// lied reply carries the untouched XID, so the shared trace ring still
// stitches both parties' events into completed spans, while the fleet's
// lie counter records the corruption.
func TestLiveLieEstimateTraceStitches(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet test skipped in -short mode")
	}
	sc := Scenario{
		Name: "live-lie", N: 24, Cycles: 12, EpochLen: 6, Seed: 9,
		Adversaries: []Adversary{{Behavior: BehaviorLieEstimate, Fraction: 0.2, Value: 1e6}},
	}.WithDefaults()
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(4096)
	res, err := RunLive(context.Background(), sc, FleetOptions{
		CycleLen: 20 * time.Millisecond, Obs: reg, Trace: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMessages() == 0 {
		t.Fatal("no exchanges attempted")
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
		t.Fatal("lie counter missing from the live export")
	}
	if strings.Contains(out, "agg_adversary_lies_total 0\n") {
		t.Error("live Byzantine nodes reported no lies")
	}
	if !strings.Contains(out, "agg_adversary_nodes 5") { // round(0.2 * 24)
		t.Error("hostile population gauge missing or wrong in live export")
	}
}

// TestReportIsOneRule pins what a Byzantine slot reports, the one rule
// both the engine hook and the agent hook adapt: lie-estimate reports
// its value (or amplifies the honest estimate) in the current epoch;
// replay-stale stays honest until the slot has sealed Lag outputs, then
// reports the output sealed Lag epochs back with its epoch tag; nothing
// lies outside its window or from an honest slot.
func TestReportIsOneRule(t *testing.T) {
	sc := Scenario{
		Name: "report", N: 4, Cycles: 20, Seed: 1,
		Adversaries: []Adversary{
			{Behavior: BehaviorLieEstimate, Count: 1, Value: 1e6, Until: 10},
			{Behavior: BehaviorReplayStale, Count: 1, Lag: 2},
			{Behavior: BehaviorLieEstimate, Count: 1, Amplify: 3},
		},
	}.WithDefaults()
	adv := newAdvSchedule(sc, sc.MaxSlots())
	slotOf := map[int]int{} // adversary index → slot
	honest := -1
	for slot, ai := range adv.byzOf {
		if ai < 0 {
			honest = slot
		} else {
			slotOf[ai] = slot
		}
	}
	var past []agent.Output
	for e := range uint64(4) {
		past = append(past, agent.Output{Epoch: e, Value: float64(10 * (e + 1)), OK: true})
	}
	type want struct {
		v    float64
		tag  uint64
		lied bool
	}
	for _, tc := range []struct {
		name        string
		slot, cycle int
		past        []agent.Output
		want        want
	}{
		{"honest slot", honest, 5, past, want{}},
		{"fixed lie", slotOf[0], 5, nil, want{1e6, 7, true}},
		{"fixed lie after its window", slotOf[0], 11, nil, want{}},
		{"amplified lie", slotOf[2], 5, nil, want{3 * 2.5, 7, true}},
		{"replay before lag outputs", slotOf[1], 5, past[:1], want{}},
		{"replay at lag outputs", slotOf[1], 5, past[:2], want{10, 0, true}},
		{"replay four sealed", slotOf[1], 5, past, want{30, 2, true}},
	} {
		v, tag, lied := adv.report(tc.slot, tc.cycle, 2.5, 7, tc.past)
		if got := (want{v, tag, lied}); got != tc.want {
			t.Errorf("%s: reported %+v, want %+v", tc.name, got, tc.want)
		}
	}
	var cycle atomic.Int64
	cycle.Store(5)
	if adv.wireHook(honest, &cycle) != nil {
		t.Error("an honest slot got a wire hook")
	}
	if v, tag, lied := adv.wireHook(slotOf[1], &cycle)(7, 2.5, past[:3]); !lied || v != 20 || tag != 1 {
		t.Errorf("wire hook replayed %g in epoch %d (lied %v), want 20 in epoch 1", v, tag, lied)
	}
}

// TestReplayLagBoundedByRetainedOutputs: a node keeps agent.MaxOutputs
// sealed outputs, so a replay-stale lag beyond that is refused by every
// executor, and the error names the bound.
func TestReplayLagBoundedByRetainedOutputs(t *testing.T) {
	sc := Scenario{
		Name: "lag", N: 20, Cycles: 10, Seed: 1,
		Adversaries: []Adversary{{Behavior: BehaviorReplayStale, Count: 2, Lag: agent.MaxOutputs}},
	}
	if err := sc.WithDefaults().Validate(); err != nil {
		t.Fatalf("lag %d refused: %v", agent.MaxOutputs, err)
	}
	sc.Adversaries[0].Lag = agent.MaxOutputs + 1
	runs := map[string]func() error{
		"sim":  func() error { _, err := RunSim(sc); return err },
		"live": func() error { _, err := RunLive(context.Background(), sc, FleetOptions{}); return err },
		"udp":  func() error { _, err := RunUDP(context.Background(), sc, FleetOptions{}); return err },
	}
	for name, run := range runs {
		err := run()
		if err == nil || !strings.Contains(err.Error(), "[1, 16]") {
			t.Errorf("%s: lag %d gave error %v, want one naming the bound 16", name, agent.MaxOutputs+1, err)
		}
	}
}

// TestLiveReplayStaleDropsAtHonestNodes runs replay-stale on a live
// fleet: attackers replay the output they sealed two epochs back, with
// its epoch tag, so the fleet counts lies and honest nodes drop the
// replays as stale (§4.3). Founders bind in slot order on one mem
// network, so slot k is the endpoint "mem-k".
func TestLiveReplayStaleDropsAtHonestNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet test skipped in -short mode")
	}
	sc := Scenario{
		Name: "live-replay", N: 24, Cycles: 18, EpochLen: 6, Seed: 11,
		Adversaries: []Adversary{{Behavior: BehaviorReplayStale, Fraction: 0.2, Lag: 2}},
	}.WithDefaults()
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(1 << 15)
	if _, err := RunLive(context.Background(), sc, FleetOptions{
		CycleLen: 20 * time.Millisecond, Obs: reg, Trace: ring,
	}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); strings.Contains(out, "agg_adversary_lies_total 0\n") || !strings.Contains(out, "agg_adversary_lies_total") {
		t.Fatal("live replay-stale attackers reported no lies")
	}
	adv := newAdvSchedule(sc, sc.MaxSlots())
	hostile := map[string]bool{}
	for slot := range sc.N {
		hostile[fmt.Sprintf("mem-%d", slot)] = adv.hostile(slot)
	}
	honestDrops := 0
	for _, ev := range ring.Entries() {
		if ev.Kind == obs.TraceStaleDrop && !hostile[ev.Node] && hostile[ev.Peer] {
			honestDrops++
		}
	}
	if honestDrops == 0 {
		t.Fatal("no honest node dropped a replayed message as stale")
	}
	t.Logf("honest nodes dropped %d replayed messages as stale", honestDrops)
}
