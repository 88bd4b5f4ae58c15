package main

import (
	"math"
	"slices"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/parsim"
	"antientropy/internal/scenario"
	"antientropy/internal/sim"
	"antientropy/internal/stats"
)

// simShards fixes K for the sharded engine: results depend on the shard
// count, not on the cores of the box, so rows stay bit-identical.
const simShards = 4

func simNodes(quick bool) int {
	if quick {
		return 2000
	}
	return 20000
}

// bareSerial and bareSharded build the two engines the way RunSimWith
// does (NEWSCAST, c = 30) without a script — the set-up a scenario run
// pays before its first cycle, and the engines the ladder steps.
func bareSerial(n int, seed uint64) (*sim.Engine, error) {
	return sim.New(sim.Config{
		N: n, Cycles: 1, Seed: seed, Fn: core.Average,
		Init:    func(node int) float64 { return float64(node % 100) },
		Overlay: sim.Newscast(30),
	})
}

func bareSharded(n, shards int, seed uint64) (*parsim.Engine, error) {
	return parsim.New(parsim.Config{
		N: n, Cycles: 1, Seed: seed, Shards: shards, Fn: core.Average,
		Init:    func(node int) float64 { return float64(node % 100) },
		Overlay: parsim.Newscast(30),
	})
}

// simRep is one RunSimWith execution.
type simRep struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	rows    []scenario.CycleMetrics
}

// rhoHat is the geometric-mean per-cycle variance ratio over cycles
// 2..10 of every epoch in rows: (σ₁₀/σ₂)^(2/8) per epoch, then the
// geometric mean across epochs.
func rhoHat(rows []scenario.CycleMetrics, epochLen int) float64 {
	var logSum float64
	var n int
	for base := 0; base+10 < len(rows); base += epochLen {
		lo, hi := rows[base+2].EstimateStdDev, rows[base+10].EstimateStdDev
		if lo <= 0 || hi <= 0 {
			continue
		}
		logSum += 2 * math.Log(hi/lo) / 8
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logSum / float64(n))
}

// convergeCycles is the (log-interpolated) cycle within an epoch at
// which the estimate spread first falls to threshold × |mean|, as the
// median over the epochs of rows. Epoch e's cycle c is row e·epochLen+c
// (row 0 is the initial state, row e·epochLen the end of epoch e−1).
func convergeCycles(rows []scenario.CycleMetrics, epochLen int, threshold float64) float64 {
	var per []float64
	for base := 0; base+epochLen < len(rows); base += epochLen {
		spread := make([]float64, epochLen)
		for c := range spread {
			r := rows[base+1+c]
			spread[c] = r.EstimateStdDev / math.Max(math.Abs(r.MeanEstimate), 1e-12)
		}
		if c, ok := crossing(spread, threshold); ok {
			per = append(per, c+1)
		}
	}
	return median(per)
}

// crossing finds where a decaying series first reaches threshold,
// interpolating log-linearly between the two samples around it.
func crossing(series []float64, threshold float64) (float64, bool) {
	for i, v := range series {
		if v > threshold {
			continue
		}
		if i == 0 || v <= 0 || series[i-1] <= threshold {
			return float64(i), true
		}
		prev := series[i-1]
		return float64(i-1) + math.Log(prev/threshold)/math.Log(prev/v), true
	}
	return 0, false
}

// runSimChurn is the sim-churn workload: the canned steady-churn script
// on the serial and the sharded engine, alternating, for cfg.Seconds.
// Closed loop by nature: one caller waits for each run to finish.
func runSimChurn(cfg runConfig) (*runRecord, error) {
	rec := newRecord("sim-churn", cfg)
	n := simNodes(cfg.Quick)
	sc, err := scenario.ByName("steady-churn")
	if err != nil {
		return nil, err
	}
	sc.N = n
	sc.Seed = stats.NewStreamRNG(cfg.Seed, 1).Uint64() | 1
	sc = sc.WithDefaults()

	_, setupSecs, err := timeSetup(func() (struct{}, error) {
		if _, err := bareSerial(n, sc.Seed); err != nil {
			return struct{}{}, err
		}
		_, err := bareSharded(n, simShards, sc.Seed)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	rec.Metrics.windows("setup_s", setupSecs)

	opts := map[string]scenario.SimOptions{
		"serial":  {Engine: scenario.EngineSerial},
		"sharded": {Engine: scenario.EngineSharded, Shards: simShards},
	}
	order := []string{"serial", "sharded"}
	reps := map[string][]simRep{}
	deadline := time.Now().Add(cfg.duration())
	var longest time.Duration
	for i := 0; ; i++ {
		engine := order[i%2]
		// Both engines run at least once; after that a rep starts only if
		// one as long as the longest so far still fits.
		if i >= 2 && time.Now().Add(longest).After(deadline) {
			break
		}
		sp := cfg.Spans.begin("scenario.RunSimWith", engine, 0)
		before := readUsage()
		res, err := scenario.RunSimWith(sc, opts[engine])
		after := readUsage()
		sp.end()
		rec.Attempted++
		if err != nil {
			rec.Failed++
			rec.check("run-"+engine, false, "rep %d: %v", i, err)
			continue
		}
		rep := simRep{
			wall: after.at.Sub(before.at), cpu: after.cpu - before.cpu,
			mallocs: after.mallocs - before.mallocs, rows: res.PerCycle,
		}
		if rep.wall > longest {
			longest = rep.wall
		}
		reps[engine] = append(reps[engine], rep)
	}

	nodeCycles := float64(n) * float64(sc.Cycles)
	rate := map[string]float64{}
	var cpuPerOp, allocsPerOp, rho, convMs []float64
	for _, engine := range order {
		rs := reps[engine]
		if len(rs) == 0 {
			rec.check("ran-"+engine, false, "no successful rep")
			continue
		}
		identical := true
		for _, r := range rs[1:] {
			identical = identical && slices.Equal(rs[0].rows, r.rows)
		}
		if !identical {
			rec.Failed++
		}
		rec.check("deterministic-"+engine, identical, "%d reps, per-cycle rows byte-identical: %v", len(rs), identical)
		last := rs[0].rows[len(rs[0].rows)-1]
		// Churn replaces 1 % of the mass per cycle, so the participants'
		// mean sits a few 1e-4 off the live nodes' mean (up to 1.1e-3 over
		// ten seeds): the limit leaves room for every seed.
		rec.check("accuracy-"+engine, last.RelError <= 5e-3, "cycle %d rel_error %.3g (limit 5e-3)", last.Cycle, last.RelError)
		r := rhoHat(rs[0].rows, sc.EpochLen)
		rec.check("rho-"+engine, r >= 0.28 && r <= 0.40, "convergence factor %.4f (theory %.4f, accepted 0.28..0.40)", r, 1/(2*math.Sqrt(math.E)))
		rho = append(rho, r)

		var rates, cpus, allocs []float64
		for _, rp := range rs {
			rates = append(rates, nodeCycles/rp.wall.Seconds())
			cpus = append(cpus, float64(rp.cpu.Microseconds())/nodeCycles)
			allocs = append(allocs, float64(rp.mallocs)/nodeCycles)
		}
		rate[engine] = median(rates)
		cpuPerOp = append(cpuPerOp, median(cpus))
		allocsPerOp = append(allocsPerOp, median(allocs))
		// Host time until the simulated fleet agrees to 1 %: the cycles it
		// takes (exact per seed) at this engine's measured pace.
		cyc := convergeCycles(rs[0].rows, sc.EpochLen, 0.01)
		convMs = append(convMs, cyc*float64(n)/rate[engine]*1e3)
	}
	if len(rate) == 2 {
		// One figure for both engines: total work over total time, with
		// each engine at its median pace.
		rec.Metrics.set("ops_per_s", 2/(1/rate["serial"]+1/rate["sharded"]))
		rec.Metrics.set("cpu_us_per_op", mean(cpuPerOp))
		rec.Metrics.set("allocs_per_op", mean(allocsPerOp))
		rec.Metrics.set("convergence_factor", math.Sqrt(rho[0]*rho[1]))
		rec.Metrics.set("converge_ms", mean(convMs))
		rec.Metrics.set("sim.serial_node_cycles_per_s", rate["serial"])
		rec.Metrics.set("parsim.sharded_node_cycles_per_s", rate["sharded"])
	}
	rec.Metrics.set("mem_mb", sysMiB())
	return rec, nil
}
