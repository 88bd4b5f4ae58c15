package scenario

import (
	"bytes"
	"testing"
)

// TestShardedDeterministicCSV pins the engine's determinism
// contract at the executor level: the same seed and the same shard count
// must yield byte-identical CSV output across runs, at several shard
// counts.
func TestShardedDeterministicCSV(t *testing.T) {
	sc, err := ByName("partition-heal")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 300
	for _, shards := range []int{1, 2, 8} {
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
			t.Fatalf("shards=%d: identical runs produced different CSV output", shards)
		}
	}
}

// TestShardedRunsAllCannedScenarios is the shard-count parity check:
// every canned scenario must produce valid metrics at K = 4, with
// the full row count and mass conservation wherever the script is
// lossless.
func TestShardedRunsAllCannedScenarios(t *testing.T) {
	for _, sc := range Canned() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			sc.N = 200
			res, err := RunSimWith(sc, SimOptions{Engine: EngineSharded, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			if res.Executor != "sim-sharded" {
				t.Fatalf("executor = %q", res.Executor)
			}
			if len(res.PerCycle) != sc.Cycles+1 {
				t.Fatalf("got %d metric rows, want %d", len(res.PerCycle), sc.Cycles+1)
			}
			f := res.Final()
			if f.Alive <= 0 || f.Participating <= 0 {
				t.Fatalf("final row has no live participants: %+v", f)
			}
			if res.TotalMessages() == 0 {
				t.Fatal("no exchange attempts recorded")
			}
			// Transient error is expected while crashes, joins or value
			// dynamics move the truth mid-epoch, but every honest script
			// ends in (or tracks) a converged regime: the final estimate
			// must be close to the final truth. Attacked scenarios keep a
			// residual bias by design even when defended — their tracking
			// quality is asserted against the honest twin in the adversary
			// tests — so the tight gate covers honest scenarios only.
			if !sc.HasAdversary() && f.RelError > 0.05 {
				t.Fatalf("final rel error %g — the K = 4 run failed to track the aggregate", f.RelError)
			}
		})
	}
}

// TestShardedPartitionHealConservesMassAndReconverges: mass holds
// through the split at every shard count, and the overlay remerges after
// the heal (the rendezvous reseed works at every shard count).
func TestShardedPartitionHealConservesMassAndReconverges(t *testing.T) {
	sc, err := ByName("partition-heal")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 400
	for _, shards := range []int{1, 2, 8} {
		res, err := RunSimWith(sc, SimOptions{Engine: EngineSharded, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.PerCycle {
			if c.RelError > 1e-9 {
				t.Fatalf("shards=%d cycle %d: rel error %g — partition broke mass conservation",
					shards, c.Cycle, c.RelError)
			}
		}
		if mid := res.PerCycle[39]; mid.EstimateStdDev < 1e-3 {
			t.Fatalf("shards=%d: cycle 39 (partitioned) stddev %g suspiciously low", shards, mid.EstimateStdDev)
		}
		if f := res.Final(); f.EstimateStdDev > 1e-3 {
			t.Fatalf("shards=%d: final stddev %g, want re-convergence after the heal", shards, f.EstimateStdDev)
		}
	}
}

// TestShardedVsSerialStatisticalAgreement runs the same scenario on both
// engines: the trajectories differ (different executions) but the final
// converged estimates must agree closely.
func TestShardedVsSerialStatisticalAgreement(t *testing.T) {
	sc, err := ByName("correlated-crash")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 400
	serial, err := RunSimWith(sc, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := RunSimWith(sc, SimOptions{Engine: EngineSharded, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	fs, fp := serial.Final(), sharded.Final()
	if fs.RelError > 1e-6 || fp.RelError > 1e-6 {
		t.Fatalf("final rel errors %g (serial) vs %g (sharded): one engine failed to converge",
			fs.RelError, fp.RelError)
	}
}

// TestDivergeIdenticalRunsIsZero pins the divergence report: a run
// compared against itself diverges nowhere, and against a genuinely
// different execution (another engine) it reports small but non-zero
// estimate drift.
func TestDivergeIdenticalRunsIsZero(t *testing.T) {
	sc, err := ByName("steady-churn")
	if err != nil {
		t.Fatal(err)
	}
	sc.N = 200
	a, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	self := Diverge(a, a)
	if self.Cycles != sc.Cycles+1 {
		t.Fatalf("compared %d cycles, want %d", self.Cycles, sc.Cycles+1)
	}
	if self.MeanAbsEstimate != 0 || self.MaxAbsEstimate != 0 || self.FinalAbsRelError != 0 {
		t.Fatalf("self-divergence not zero: %+v", self)
	}
	b, err := RunSimWith(sc, SimOptions{Engine: EngineSharded, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	cross := Diverge(a, b)
	if cross.MeanAbsEstimate == 0 {
		t.Fatal("different executions reported zero divergence")
	}
	if cross.MeanAbsEstimate > 1 {
		t.Fatalf("engines drifted too far apart: %+v", cross)
	}
	if cross.ExecutorA != "sim" || cross.ExecutorB != "sim-sharded" {
		t.Fatalf("executor labels wrong: %+v", cross)
	}
}

// TestRunSimWithRejectsBadOptions covers the engine-selection knob's
// error paths.
func TestRunSimWithRejectsBadOptions(t *testing.T) {
	sc, err := ByName("steady-churn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSimWith(sc, SimOptions{Engine: "warp"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := RunSimWith(sc, SimOptions{Engine: EngineSharded, Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}
