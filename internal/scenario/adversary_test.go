package scenario

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"antientropy/internal/obs"
)

// TestAdvScheduleDeterministic pins the cross-executor contract: the
// Byzantine plan is a pure function of the scenario, so the supervisor,
// every UDP worker and both sim engines — each rebuilding the schedule
// independently — select the identical attacker set.
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
	spans := obs.StitchSpans(ring.Events())
	completed := 0
	for _, sp := range spans {
		if sp.Outcome == "completed" {
			completed++
		}
	}
	if completed == 0 {
		t.Fatalf("no completed spans stitched from %d events — lying broke exchange identity",
			len(ring.Events()))
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
