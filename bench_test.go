// Benchmarks regenerating every table and figure of the DSN'04 paper at
// laptop scale (the paper shows behaviour is network-size independent;
// cmd/aggsim reruns any figure at the full 10⁵–10⁶ scale). Each figure
// benchmark prints the regenerated series once, so
//
//	go test -bench=Fig -benchmem
//
// reproduces the paper's evaluation tables in one run. Micro-benchmarks
// cover the protocol's hot paths.
package antientropy_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"antientropy"
	"antientropy/internal/core"
	"antientropy/internal/experiments"
	"antientropy/internal/overlay"
	"antientropy/internal/sim"
	"antientropy/internal/stats"
	"antientropy/internal/theory"
	"antientropy/internal/topology"
	"antientropy/internal/wire"
)

// Bench scale: large enough for the paper's shapes, small enough that the
// whole root-package run (all twelve figures plus ablations and micros)
// stays well inside go test's default 10-minute timeout.
const (
	benchN    = 8000
	benchReps = 3
)

// logOnce prints a figure's series a single time per benchmark.
var logOnce sync.Map

func runFigure(b *testing.B, id string, opts antientropy.ExperimentOptions) {
	b.Helper()
	var res *antientropy.ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = antientropy.RunExperiment(id, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, done := logOnce.LoadOrStore(id, true); !done && res != nil {
		b.Logf("\n%s", res.String())
	}
}

func benchOpts() antientropy.ExperimentOptions {
	return antientropy.ExperimentOptions{N: benchN, Reps: benchReps}
}

func BenchmarkFig2AveragePeak(b *testing.B) {
	runFigure(b, "fig2", benchOpts())
}

func BenchmarkFig3aConvergenceVsSize(b *testing.B) {
	// N here is the sweep's maximum size.
	runFigure(b, "fig3a", antientropy.ExperimentOptions{N: benchN, Reps: 3})
}

func BenchmarkFig3bVarianceReduction(b *testing.B) {
	runFigure(b, "fig3b", antientropy.ExperimentOptions{N: benchN, Reps: 3})
}

func BenchmarkFig4aWattsStrogatzBeta(b *testing.B) {
	runFigure(b, "fig4a", antientropy.ExperimentOptions{N: benchN, Reps: 3})
}

func BenchmarkFig4bNewscastCacheSize(b *testing.B) {
	runFigure(b, "fig4b", antientropy.ExperimentOptions{N: benchN, Reps: 3})
}

func BenchmarkFig5CrashVariance(b *testing.B) {
	// Fig 5 estimates a variance across repetitions; it needs more reps
	// than the envelope figures (EXPERIMENTS.md records a 100-rep run).
	runFigure(b, "fig5", antientropy.ExperimentOptions{N: benchN, Reps: 25})
}

func BenchmarkFig6aSuddenDeath(b *testing.B) {
	runFigure(b, "fig6a", benchOpts())
}

func BenchmarkFig6bChurn(b *testing.B) {
	runFigure(b, "fig6b", benchOpts())
}

// BenchmarkFig6bSerialPacked pins K = 1 explicitly on the
// NEWSCAST-heaviest figure (COUNT under churn, cache exchanges every
// cycle); the name is kept so the CI bench artifact stays comparable.
func BenchmarkFig6bSerialPacked(b *testing.B) {
	opts := benchOpts()
	opts.Engine = experiments.EngineSerial
	runFigure(b, "fig6b", opts)
}

func BenchmarkFig7aLinkFailure(b *testing.B) {
	runFigure(b, "fig7a", benchOpts())
}

func BenchmarkFig7bMessageLoss(b *testing.B) {
	runFigure(b, "fig7b", benchOpts())
}

func BenchmarkFig8aMultiInstanceChurn(b *testing.B) {
	runFigure(b, "fig8a", benchOpts())
}

func BenchmarkFig8bMultiInstanceLoss(b *testing.B) {
	runFigure(b, "fig8b", benchOpts())
}

func BenchmarkAblationPushPull(b *testing.B) {
	runFigure(b, "ablation-pushpull", antientropy.ExperimentOptions{N: 5000, Reps: 3})
}

func BenchmarkAblationCombiner(b *testing.B) {
	runFigure(b, "ablation-combiner", antientropy.ExperimentOptions{N: 5000, Reps: 3})
}

func BenchmarkAblationPeerSelection(b *testing.B) {
	runFigure(b, "ablation-peer-selection", antientropy.ExperimentOptions{N: 5000, Reps: 3})
}

// --- Figure sweeps at K = 8 ---
//
// Reduced-scale reruns of a figure and an ablation with -engine sharded
// -shards 8: the CI bench job times them next to their K = 1
// counterparts above (same N, same reps), so the figure-sweep perf
// baseline of both shard counts lands in the scenario-engine-bench
// artifact.

func BenchmarkFig2Sharded(b *testing.B) {
	runFigure(b, "fig2", antientropy.ExperimentOptions{
		N: benchN, Reps: benchReps,
		Engine: antientropy.ScenarioEngineSharded, Shards: 8,
	})
}

func BenchmarkAblationPushPullSharded(b *testing.B) {
	runFigure(b, "ablation-pushpull", antientropy.ExperimentOptions{
		N: 5000, Reps: 3,
		Engine: antientropy.ScenarioEngineSharded, Shards: 8,
	})
}

func BenchmarkAblationCombinerSharded(b *testing.B) {
	runFigure(b, "ablation-combiner", antientropy.ExperimentOptions{
		N: 5000, Reps: 3,
		Engine: antientropy.ScenarioEngineSharded, Shards: 8,
	})
}

// BenchmarkRhoTheory verifies the §3 headline result ρ ≈ 1/(2√e) and
// reports the measured factor as a metric.
func BenchmarkRhoTheory(b *testing.B) {
	var rho float64
	for i := 0; i < b.N; i++ {
		w := stats.RhoWindow{To: 20}
		_, err := sim.Run(sim.Config{
			N: benchN, Cycles: 20, Seed: 1,
			Fn:      core.Average,
			Init:    sim.UniformInit(0, 1, 2),
			Overlay: experiments.RandomTopology(20).Overlay,
			Observe: func(cycle int, e *sim.Engine) {
				w.Add(0, cycle, e.ParticipantMoments().Variance())
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		var ok bool
		if rho, ok = w.Factor(); !ok {
			b.Fatal("no convergence factor")
		}
	}
	b.ReportMetric(rho, "rho")
	b.ReportMetric(theory.RhoPushPull, "rho-theory")
}

// BenchmarkExchangeDistribution verifies §4.5: exchanges per node per
// cycle ≈ 1 + Poisson(1) (mean 2, variance 1).
func BenchmarkExchangeDistribution(b *testing.B) {
	var m stats.Moments
	for i := 0; i < b.N; i++ {
		e, err := sim.New(sim.Config{
			N: benchN, Cycles: 3, Seed: 3,
			Fn:             core.Average,
			Init:           sim.ConstInit(1),
			Overlay:        experiments.CompleteTopology().Overlay,
			TrackExchanges: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		m = stats.Moments{}
		for c := 0; c < 3; c++ {
			e.Step()
			for node := 0; node < benchN; node++ {
				count, err := e.ExchangeCount(node)
				if err != nil {
					b.Fatal(err)
				}
				m.Add(float64(count))
			}
		}
	}
	b.ReportMetric(m.Mean(), "exchanges-mean")
	b.ReportMetric(m.Variance(), "exchanges-var")
}

// --- Scenario engine ---

// benchScenario runs the canned partition-and-heal scenario at the given
// size on the selected simulation engine — the perf baseline for the
// scenario path (hooks, exchange filter, per-cycle metrics).
func benchScenario(b *testing.B, n int, opts antientropy.ScenarioSimOptions) {
	b.Helper()
	sc, err := antientropy.ScenarioByName("partition-heal")
	if err != nil {
		b.Fatal(err)
	}
	sc.N = n
	var res *antientropy.ScenarioRun
	for i := 0; i < b.N; i++ {
		res, err = antientropy.RunScenarioSimWith(sc, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	final := res.Final()
	b.ReportMetric(final.RelError, "final-rel-err")
	b.ReportMetric(float64(res.TotalMessages())/float64(len(res.PerCycle)-1), "messages/cycle")
}

// BenchmarkScenarioPartitionHeal10k is the K = 1 baseline the K = 8 run
// below is measured against (see ROADMAP "perf baseline").
func BenchmarkScenarioPartitionHeal10k(b *testing.B) {
	benchScenario(b, 10000, antientropy.ScenarioSimOptions{})
}

// BenchmarkScenarioPartitionHeal10kSharded runs the same workload at 8
// shards, which parallelize across the cores.
func BenchmarkScenarioPartitionHeal10kSharded(b *testing.B) {
	benchScenario(b, 10000, antientropy.ScenarioSimOptions{
		Engine: antientropy.ScenarioEngineSharded, Shards: 8,
	})
}

// BenchmarkScenarioPartitionHeal100kSharded is the scale benchmark: the
// full 90-cycle partition-heal scenario at 10⁵ nodes.
func BenchmarkScenarioPartitionHeal100kSharded(b *testing.B) {
	benchScenario(b, 100000, antientropy.ScenarioSimOptions{
		Engine: antientropy.ScenarioEngineSharded, Shards: 8,
	})
}

// --- Micro-benchmarks: protocol hot paths ---

func BenchmarkExchangeScalar(b *testing.B) {
	a, v := 1.0, 2.0
	for i := 0; i < b.N; i++ {
		a, v = core.Average.Update(a, v)
	}
	_ = a
}

func BenchmarkMapMerge(b *testing.B) {
	x := core.MapState{}
	y := core.MapState{}
	for l := core.LeaderID(0); l < 20; l++ {
		if l%2 == 0 {
			x[l] = float64(l)
		} else {
			y[l] = float64(l)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.Merge(x, y)
		_ = m
	}
}

func BenchmarkSimCycleRandomOverlay(b *testing.B) {
	e, err := sim.New(sim.Config{
		N: benchN, Cycles: 1 << 30, Seed: 1,
		Fn:      core.Average,
		Init:    sim.LinearInit(),
		Overlay: experiments.RandomTopology(20).Overlay,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(benchN), "exchanges/cycle")
}

func BenchmarkSimCycleNewscast(b *testing.B) {
	e, err := sim.New(sim.Config{
		N: benchN, Cycles: 1 << 30, Seed: 1,
		Fn:      core.Average,
		Init:    sim.LinearInit(),
		Overlay: sim.Newscast(30),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkSimCycleNewscast200k is one NEWSCAST cycle at N = 200 000,
// where the views (48 MB) fit in no core's cache, at K = 1 and K = 4:
// the K = 1 rung times the row layout and the merge kernel against
// memory, the K = 4 rung adds the level-parallel cross-shard drain.
func BenchmarkSimCycleNewscast200k(b *testing.B) {
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			e, err := sim.New(sim.Config{
				N: 200000, Cycles: 1 << 30, Seed: 1, Shards: k,
				Fn:      core.Average,
				Init:    sim.LinearInit(),
				Overlay: sim.Newscast(30),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

func BenchmarkSimCycleVector32(b *testing.B) {
	leaders := make([]int, 32)
	for d := range leaders {
		leaders[d] = d
	}
	e, err := sim.New(sim.Config{
		N: benchN, Cycles: 1 << 30, Seed: 1,
		Dim: 32, Leaders: leaders,
		Overlay: experiments.RandomTopology(20).Overlay,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkTableExchange is the engines' NEWSCAST exchange in the shape
// of the benchmark ladder's overlay.table_exchange_ns rung: N = 20 000
// warmed views of c = 30, every node initiating once per cycle. It cannot
// show an L2 cliff: the merge's per-key flags (one byte per node) are
// 20 KB here and fit in any layout; BenchmarkTableExchangeMillion can.
func BenchmarkTableExchange(b *testing.B) { benchTableExchange(b, 20000) }

// BenchmarkTableExchangeMillion is the same exchange at the paper's
// largest scale, N = 10⁶: the views (240 MB) fit in no cache, and the
// merge's per-key flags are 1 MB per workspace.
func BenchmarkTableExchangeMillion(b *testing.B) { benchTableExchange(b, 1000000) }

func benchTableExchange(b *testing.B, n int) {
	const c = 30
	rng := stats.NewRNG(1)
	table, err := overlay.NewTable(n, c)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		table.At(i).SeedRandom(c, n, 0, rng)
	}
	var scratch []uint64
	i, cycle := 0, 1
	exchange := func() {
		if j := table.Neighbor(i, rng); j >= 0 {
			scratch = table.Exchange(scratch, i, j, cycle)
		}
		if i++; i == n {
			i = 0
			cycle++
		}
	}
	for k := 0; k < 2*n; k++ {
		exchange()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		exchange()
	}
}

// BenchmarkMembershipAbsorb is the live agent's merge of a received view
// into a full c = 30 cache of a 500-node fleet: a 31-entry full frame in
// storage order, a 2-entry delta frame, and a 31-entry frame in the
// sender's order (which the merge has to sort first).
func BenchmarkMembershipAbsorb(b *testing.B) {
	const c, fleet = 30, 500
	remotes := func(rng *stats.RNG, size int, sorted bool) [][]uint64 {
		out := make([][]uint64, 64)
		picks := make([]int, size)
		for k := range out {
			rng.Sample(picks, fleet, func(j int) bool { return j == 0 })
			for _, key := range picks {
				out[k] = append(out[k], overlay.Pack(int32(key), int32(k+1)))
			}
			if sorted {
				slices.Sort(out[k])
			}
		}
		return out
	}
	for _, bc := range []struct {
		name   string
		size   int
		sorted bool
	}{{"full31", c + 1, true}, {"delta2", 2, true}, {"unsorted31", c + 1, false}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := stats.NewRNG(1)
			view, err := overlay.NewMembership(0, c)
			if err != nil {
				b.Fatal(err)
			}
			view.SeedRandom(c, fleet, 0, rng)
			rs := remotes(rng, bc.size, bc.sorted)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				view.AbsorbPacked(rs[k%len(rs)])
			}
		})
	}
}

func BenchmarkTopologyRandomKOut(b *testing.B) {
	rng := stats.NewRNG(1)
	for i := 0; i < b.N; i++ {
		if _, err := topology.NewRandomKOut(benchN, 20, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologyWattsStrogatz(b *testing.B) {
	rng := stats.NewRNG(1)
	for i := 0; i < b.N; i++ {
		if _, err := topology.NewWattsStrogatz(benchN, 20, 0.25, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologyBarabasiAlbert(b *testing.B) {
	rng := stats.NewRNG(1)
	for i := 0; i < b.N; i++ {
		if _, err := topology.NewBarabasiAlbert(benchN, 10, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodeDecode round-trips one message two ways: through
// the fresh-storage wrappers, and the way a live node does it — append
// into a kept buffer, decode into a kept Decoder that resolves addresses
// it has already interned.
func BenchmarkWireEncodeDecode(b *testing.B) {
	msg := &wire.ExchangeRequest{
		From: "10.1.2.3:7000",
		Payload: wire.Payload{
			Seq: 1, Epoch: 42, FuncID: wire.FuncAverage, Scalar: 3.14,
			View: wire.ViewFrame{Kind: wire.ViewFull, Gen: 1, Entries: []wire.Descriptor{
				{Addr: "10.0.0.1:7000", Stamp: 1}, {Addr: "10.0.0.2:7000", Stamp: 2},
				{Addr: "10.0.0.3:7000", Stamp: 3}, {Addr: "10.0.0.4:7000", Stamp: 4},
			}},
		},
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := wire.Encode(msg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := wire.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		book := overlay.NewBook()
		book.Intern(msg.From)
		for _, d := range msg.View.Entries {
			book.Intern(d.Addr)
		}
		dec := wire.Decoder{Lookup: book.Canonical}
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = wire.AppendEncode(buf[:0], msg); err != nil {
				b.Fatal(err)
			}
			if _, err := dec.Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPushSumRound steps the engine one cycle under the push-sum
// rule, (s, w) = (i, 1), on the random 20-out graph.
func BenchmarkPushSumRound(b *testing.B) {
	e, err := sim.New(sim.Config{
		N: benchN, Seed: 1,
		Dim: 2,
		VecInit: func(i, d int) float64 {
			if d == 0 {
				return float64(i)
			}
			return 1
		},
		Overlay: sim.Static(func(n int, rng *stats.RNG) (topology.Graph, error) {
			return topology.NewRandomKOut(n, 20, rng)
		}),
		Rule: sim.PushSum,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkTrimmedMeanCombine(b *testing.B) {
	rng := stats.NewRNG(1)
	ests := make([]float64, 50)
	for i := range ests {
		ests[i] = 1000 * rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Combine(ests); err != nil {
			b.Fatal(err)
		}
	}
}
