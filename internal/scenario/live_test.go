package scenario

import (
	"context"
	"testing"
	"time"

	"antientropy/internal/obs"
)

// TestLivePartitionHealReconverges runs a miniature partition-and-heal
// scenario against a real agent fleet. The run is wall-clock driven, so
// assertions are deliberately loose: the point is that the live runtime
// survives the partition and re-converges after the heal, mirroring the
// simulator executor's prediction. /metrics is scraped mid-run
// (runScraped), and the run's divergence from the simulator's on the
// same script is computed over every cycle.
func TestLivePartitionHealReconverges(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet test skipped in -short mode")
	}
	sc := Scenario{
		Name: "live-partition-heal", N: 48, Cycles: 36, EpochLen: 12, Seed: 5,
		Events: []Event{
			{Kind: KindPartition, At: 4, Groups: []float64{1, 1}},
			{Kind: KindHeal, At: 16},
		},
	}.WithDefaults()
	reg := obs.NewRegistry()
	res := runScraped(t, reg, func() (*RunResult, error) {
		return RunLive(context.Background(), sc, LiveOptions{CycleLen: 20 * time.Millisecond, Obs: reg})
	})
	if len(res.PerCycle) != sc.Cycles+1 {
		t.Fatalf("got %d metric rows, want %d", len(res.PerCycle), sc.Cycles+1)
	}
	f := res.Final()
	if f.Alive != sc.N {
		t.Fatalf("final alive = %d, want %d", f.Alive, sc.N)
	}
	if f.RelError > 0.05 {
		t.Fatalf("final rel error %g: live fleet did not re-converge after the heal", f.RelError)
	}
	if res.TotalMessages() == 0 {
		t.Fatal("no exchange attempts recorded")
	}
	checkDivergence(t, sc, res)
}

// checkDivergence compares a fleet run with the simulator's run of the
// same script: the two must align over every cycle and end within the
// fleet's 5 % re-convergence tolerance of each other.
func checkDivergence(t *testing.T, sc Scenario, fleet *RunResult) {
	t.Helper()
	sim, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	d := Diverge(sim, fleet)
	t.Log(d)
	if d.Cycles != sc.Cycles+1 || d.FinalAbsRelError > 0.05 {
		t.Errorf("divergence %v: want %d aligned cycles ending within 0.05", d, sc.Cycles+1)
	}
}

// TestLiveChurnJoinCrash exercises the remaining live event kinds on a
// small fleet: churn, a join wave, a crash and a loss burst.
func TestLiveChurnJoinCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet test skipped in -short mode")
	}
	sc := Scenario{
		Name: "live-mixed", N: 40, Cycles: 30, EpochLen: 10, Seed: 6,
		Events: []Event{
			{Kind: KindChurn, At: 3, Until: 8, Count: 1},
			{Kind: KindJoin, At: 5, Count: 8},
			{Kind: KindCrash, At: 12, Count: 6},
			{Kind: KindLoss, At: 15, Until: 20, Rate: 0.2},
		},
	}.WithDefaults()
	res, err := RunLive(context.Background(), sc, LiveOptions{CycleLen: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PerCycle[8].Alive; got != 48 {
		t.Fatalf("alive after the join wave = %d, want 48", got)
	}
	if got := res.PerCycle[13].Alive; got != 42 {
		t.Fatalf("alive after the crash = %d, want 42", got)
	}
	// After the loss burst ends, a clean epoch (cycles 21-30) restores a
	// close estimate.
	if f := res.Final(); f.RelError > 0.1 {
		t.Fatalf("final rel error %g after churn/join/crash/loss", f.RelError)
	}
}
