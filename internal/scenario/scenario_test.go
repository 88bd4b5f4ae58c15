package scenario

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestCannedLibrary(t *testing.T) {
	canned := Canned()
	if len(canned) < 6 {
		t.Fatalf("canned library has %d scenarios, want at least 6", len(canned))
	}
	seen := map[string]bool{}
	for _, sc := range canned {
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.Validate(); err != nil {
			t.Fatalf("canned scenario %q invalid: %v", sc.Name, err)
		}
		if sc.Description == "" {
			t.Fatalf("canned scenario %q has no description", sc.Name)
		}
	}
	if _, err := ByName("partition-heal"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("no-such"); err == nil {
		t.Fatal("ByName must reject unknown names")
	}
}

func TestLoadJSONRoundTrip(t *testing.T) {
	sc, err := ByName("partition-heal")
	if err != nil {
		t.Fatal(err)
	}
	data, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != sc.Name || got.N != sc.N || len(got.Events) != len(sc.Events) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, sc)
	}
}

func TestLoadJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"name":"x","n":10,"cycles":5,"bogus":1}`,
		"no name":       `{"n":10,"cycles":5}`,
		"tiny network":  `{"name":"x","n":1,"cycles":5}`,
		"bad event kind": `{"name":"x","n":10,"cycles":5,
			"events":[{"kind":"explode","at":1}]}`,
		"event out of range": `{"name":"x","n":10,"cycles":5,
			"events":[{"kind":"crash","at":9,"until":2,"count":1}]}`,
		"partition one group": `{"name":"x","n":10,"cycles":5,
			"events":[{"kind":"partition","at":1,"groups":[1]}]}`,
		"loss rate 1": `{"name":"x","n":10,"cycles":5,
			"events":[{"kind":"loss","at":1,"rate":1}]}`,
		"crash without size": `{"name":"x","n":10,"cycles":5,
			"events":[{"kind":"crash","at":1}]}`,
		"join count overflows": hostileJoinDoc,
		"network too large":    `{"name":"x","n":9000000000,"cycles":5}`,
		"sybil rate too large": `{"version":2,"name":"x","n":10,"cycles":5,
			"adversaries":[{"behavior":"sybil-flood","at":1,"until":4000000000000000000,"rate":9}]}`,
	}
	for name, raw := range cases {
		if _, err := Load(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: Load accepted invalid input", name)
		}
	}
}

func TestMaxSlotsCountsJoins(t *testing.T) {
	sc := Scenario{
		Name: "x", N: 100, Cycles: 50,
		Events: []Event{
			{Kind: KindJoin, At: 10, Fraction: 0.5},
			{Kind: KindJoin, At: 20, Until: 22, Every: 1, Count: 3},
		},
	}.WithDefaults()
	if got := sc.MaxSlots(); got != 100+50+9 {
		t.Fatalf("MaxSlots = %d, want 159", got)
	}
}

// hostileJoinDoc passes every per-field check, but its join total
// overflows int: before the slot total was bounded, loading it panicked
// allocating the value program.
const hostileJoinDoc = `{"version":2,"name":"big","n":10,"cycles":10,"epochLen":5,` +
	`"values":{"kind":"linear"},"events":[{"kind":"join","at":1,"until":4,"count":2305843009213693952}]}`

// FuzzLoad feeds arbitrary documents to the strict loader: whatever it
// accepts has a positive slot total within slotLimit, on which the value
// program can be built.
func FuzzLoad(f *testing.F) {
	for _, sc := range Canned() {
		data, err := sc.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(hostileJoinDoc))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := LoadJSON(data)
		if err != nil {
			return
		}
		slots := sc.MaxSlots()
		if slots <= 0 || slots > slotLimit {
			t.Fatalf("accepted scenario needs %d slots, want 1..%d", slots, slotLimit)
		}
		NewValueProgram(sc, slots)
	})
}

// TestFractionalJoinFillsEverySlot: a fractional join resolves to the
// rounded count, and the slot capacity must hold every one of those
// joiners on odd and even N, on the simulator and on a live fleet.
func TestFractionalJoinFillsEverySlot(t *testing.T) {
	for _, n := range []int{48, 49} {
		sc := Scenario{
			Name: "half-joins", N: n, Cycles: 3, EpochLen: 2, Seed: 2,
			Events: []Event{{Kind: KindJoin, At: 2, Fraction: 0.5}},
		}.WithDefaults()
		want := n + int(math.Round(float64(n)/2))
		sim, err := RunSim(sc)
		if err != nil {
			t.Fatal(err)
		}
		live, err := RunLive(context.Background(), sc, LiveOptions{CycleLen: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*RunResult{sim, live} {
			if got := res.Final().Alive; got != want {
				t.Errorf("N=%d on %s: %d alive after joining half, want %d", n, res.Executor, got, want)
			}
		}
	}
}

func TestValueProgramDynamics(t *testing.T) {
	sc := Scenario{
		Name: "vals", N: 4, Cycles: 100,
		Values: ValueSpec{Kind: "const", Value: 10},
		Events: []Event{
			{Kind: KindValueStep, At: 10, Delta: 5},
			{Kind: KindValueRamp, At: 20, Until: 30, Delta: 10},
			{Kind: KindValueOscillate, At: 40, Until: 60, Amplitude: 2, Period: 8},
		},
	}.WithDefaults()
	p := NewValueProgram(sc, sc.N)
	check := func(cycle int, want float64) {
		t.Helper()
		if got := p.Value(0, cycle); math.Abs(got-want) > 1e-9 {
			t.Fatalf("value at cycle %d = %g, want %g", cycle, got, want)
		}
	}
	check(0, 10)   // base only
	check(9, 10)   // step not yet active
	check(10, 15)  // step applied
	check(25, 20)  // step + half the ramp
	check(35, 25)  // step + full ramp
	check(42, 27)  // + oscillation peak at quarter period
	check(70, 25)  // oscillation window over
	check(100, 25) // steady thereafter
}

func TestSimPartitionHealConservesMassAndReconverges(t *testing.T) {
	sc, err := ByName("partition-heal")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 400
	res, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCycle) != sc.Cycles+1 {
		t.Fatalf("got %d metric rows, want %d", len(res.PerCycle), sc.Cycles+1)
	}
	// Mass conservation: the participants' mean must equal the true mean
	// at every cycle, partitioned or not (no loss is configured).
	for _, c := range res.PerCycle {
		if c.RelError > 1e-9 {
			t.Fatalf("cycle %d: rel error %g — partition broke mass conservation", c.Cycle, c.RelError)
		}
	}
	// While partitioned (after the epoch restart at cycle 31 re-seeded
	// raw values), the two sides converge to different means, so the
	// cross-network spread must stay visible…
	if mid := res.PerCycle[39]; mid.EstimateStdDev < 1e-3 {
		t.Fatalf("cycle 39 (partitioned): stddev %g suspiciously low", mid.EstimateStdDev)
	}
	// …and after the heal the next full epoch re-converges globally.
	if f := res.Final(); f.EstimateStdDev > 1e-3 {
		t.Fatalf("final stddev %g, want re-convergence after the heal", f.EstimateStdDev)
	}
}

// TestSimPartitionUntilAutoHeals covers the Until form of a partition:
// the split must fire once (not re-randomize every cycle, which would
// leak state across the components) and auto-heal after Until.
func TestSimPartitionUntilAutoHeals(t *testing.T) {
	sc := Scenario{
		Name: "until-partition", N: 400, Cycles: 60, EpochLen: 20, Seed: 14,
		Events: []Event{
			{Kind: KindPartition, At: 3, Until: 30, Groups: []float64{1, 1}},
		},
	}.WithDefaults()
	res, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	// After the epoch restart at cycle 21 (mid-partition) the two sides
	// must converge to *different* means — a re-randomized split would
	// mix them back to the global mean (stddev ~1e-4). With the
	// overlay-aware partition each side converges cleanly to its own
	// component mean, so the cross-network stddev settles at half the
	// component-mean gap (~0.15 for this seed) instead of the larger
	// unconverged residual seen when gossip leaked across the split.
	if mid := res.PerCycle[30]; mid.EstimateStdDev < 0.05 {
		t.Fatalf("cycle 30 (partitioned): stddev %g — components are mixing across the partition", mid.EstimateStdDev)
	}
	// Past Until the partition lifts and the next epoch re-converges.
	if f := res.Final(); f.EstimateStdDev > 1e-3 || f.RelError > 1e-9 {
		t.Fatalf("final stddev %g rel err %g: Until-partition did not auto-heal", f.EstimateStdDev, f.RelError)
	}
}

// TestSimFractionEventsSurviveSmallN guards the -n rescaling promise:
// fraction events round to nearest, so "1% churn" still churns one node
// per cycle at N=50 instead of truncating to zero.
func TestSimFractionEventsSurviveSmallN(t *testing.T) {
	sc, err := ByName("steady-churn")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 50
	res, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Churned-in joiners sit out the running epoch, so with churn active
	// the participant count must dip below N between restarts.
	sawJoiners := false
	for _, c := range res.PerCycle {
		if c.Participating < c.Alive {
			sawJoiners = true
			break
		}
	}
	if !sawJoiners {
		t.Fatal("no joiners observed: fraction churn truncated to zero at small N")
	}
}

func TestSimCorrelatedCrashHalvesNetwork(t *testing.T) {
	sc, err := ByName("correlated-crash")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 400
	res, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	if before := res.PerCycle[44].Alive; before != 400 {
		t.Fatalf("alive before the crash = %d, want 400", before)
	}
	if after := res.PerCycle[45].Alive; after != 200 {
		t.Fatalf("alive after the crash = %d, want 200", after)
	}
	if f := res.Final(); f.RelError > 1e-6 {
		t.Fatalf("final rel error %g: survivors must re-agree on their own mean", f.RelError)
	}
}

func TestSimFlashCrowdFoldsJoinersInAtRestart(t *testing.T) {
	sc, err := ByName("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 400
	res, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerCycle[35].Alive; got != 600 {
		t.Fatalf("alive after the flash crowd = %d, want 600", got)
	}
	// Joiners wait for the next epoch (cycle 61)…
	if got := res.PerCycle[40].Participating; got != 400 {
		t.Fatalf("participants mid-epoch = %d, want 400 (joiners wait)", got)
	}
	if got := res.PerCycle[65].Participating; got != 600 {
		t.Fatalf("participants after the restart = %d, want 600", got)
	}
	if f := res.Final(); f.RelError > 1e-6 {
		t.Fatalf("final rel error %g after absorbing the flash crowd", f.RelError)
	}
}

func TestSimSteadyChurnAndLossBurstStayAccurate(t *testing.T) {
	for _, name := range []string{"steady-churn", "loss-burst", "rolling-restart"} {
		sc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.N = 400
		res, err := RunSim(sc)
		if err != nil {
			t.Fatal(err)
		}
		if f := res.Final(); f.RelError > 0.05 {
			t.Errorf("%s: final rel error %g, want < 5%%", name, f.RelError)
		}
	}
}

func TestSimValueDriftTracksWithEpochLag(t *testing.T) {
	sc, err := ByName("value-drift")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 400
	res, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The signal moved by ~50% of its mean over the run; the output must
	// track it within one epoch of lag, i.e. far closer than the total
	// drift.
	if f := res.Final(); f.RelError > 0.1 {
		t.Fatalf("final rel error %g: estimate lost the drifting aggregate", f.RelError)
	}
	// The estimate must actually move with the signal: compare early vs
	// late epoch outputs.
	early := res.PerCycle[30].MeanEstimate
	late := res.Final().MeanEstimate
	if late-early < 25 {
		t.Fatalf("estimate moved only %g (early %g, late %g); the drift is not tracked", late-early, early, late)
	}
}

func TestRunResultCSVAndJSON(t *testing.T) {
	sc := Scenario{Name: "mini", N: 50, Cycles: 5, EpochLen: 5, Seed: 3}.WithDefaults()
	res, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(res.PerCycle) {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+len(res.PerCycle))
	}
	if lines[0] != CSVHeader {
		t.Fatalf("CSV header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "mini,sim,0,") {
		t.Fatalf("first CSV row %q", lines[1])
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	reparsed := strings.Count(js.String(), `"cycle"`)
	if reparsed != len(res.PerCycle) {
		t.Fatalf("JSON contains %d cycle rows, want %d", reparsed, len(res.PerCycle))
	}
	if s := res.String(); !strings.Contains(s, "mini/sim") {
		t.Fatalf("summary %q", s)
	}
}

func TestRunSimRejectsInvalidScenario(t *testing.T) {
	if _, err := RunSim(Scenario{Name: "bad", N: 1, Cycles: 1}); err == nil {
		t.Fatal("RunSim must validate the scenario")
	}
}

// TestLoadSchemaVersionGating pins the v2 strict-decode contract: the
// adversary/defense section requires schema version 2, future versions
// are rejected, and malformed documents surface the typed *DecodeError.
func TestLoadSchemaVersionGating(t *testing.T) {
	rejected := map[string]string{
		"adversaries under v1": `{"version":1,"name":"x","n":10,"cycles":5,
			"adversaries":[{"behavior":"inject-extreme","count":1,"value":1e9}]}`,
		"defense under v1": `{"version":1,"name":"x","n":10,"cycles":5,
			"defense":{"combiner":"median-of-k"}}`,
		"future version": `{"version":3,"name":"x","n":10,"cycles":5}`,
		"unknown behavior": `{"name":"x","n":10,"cycles":5,
			"adversaries":[{"behavior":"gaslight","count":1}]}`,
		"lie without value or amplify": `{"name":"x","n":10,"cycles":5,
			"adversaries":[{"behavior":"lie-estimate","count":1}]}`,
		"unknown adversary field": `{"name":"x","n":10,"cycles":5,
			"adversaries":[{"behavior":"inject-extreme","count":1,"value":1,"sneaky":true}]}`,
	}
	for name, raw := range rejected {
		if _, err := Load(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: Load accepted invalid input", name)
		}
	}
	// Unknown fields surface as the typed *DecodeError.
	_, err := Load(strings.NewReader(`{"name":"x","n":10,"cycles":5,"bogus":1}`))
	var de *DecodeError
	if !errors.As(err, &de) {
		t.Fatalf("unknown field error is %T, want *DecodeError", err)
	}
	// A version-0 document is filled to the current schema and a v2
	// adversary document loads.
	sc, err := Load(strings.NewReader(`{"version":2,"name":"ok","n":10,"cycles":5,
		"adversaries":[{"behavior":"inject-extreme","count":1,"value":1e9}],
		"defense":{"combiner":"median-of-k","samples":5}}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Version != SchemaVersion || !sc.HasAdversary() {
		t.Fatalf("v2 adversary document mangled: %+v", sc)
	}
}
