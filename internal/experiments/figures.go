package experiments

import (
	"fmt"
	"math"

	"antientropy/internal/core"
	"antientropy/internal/scenario"
	"antientropy/internal/sim"
	"antientropy/internal/stats"
	"antientropy/internal/theory"
)

// standard is Figure 3's eight overlay families: degree 20, NEWSCAST c = 30.
var standard = standardTopologies(20, 30)

// rows is the table of registered figures. The constants are the
// paper's (§7: N = 10⁵, 50 repetitions unless a figure says otherwise);
// the ablations, extensions and scenario runs use laptop-scale ones.
func rows() []row {
	return []row{
		{
			id: "fig2", desc: "AVERAGE min/max trajectory, peak distribution, 30 cycles",
			title:  "Behavior of protocol AVERAGE (peak distribution)",
			xLabel: "cycle", yLabel: "estimated average (min/max over nodes)",
			n: 100000, reps: 50, seed: 2, cycles: 30, minN: 2,
			series: []string{"Minimum", "Maximum"},
			// Initially a single node holds the value N while all others
			// hold 0, so the true average is 1.
			measure: func(c cell) ([]float64, error) {
				v := make([]float64, 0, 2*(c.cycles+1))
				_, err := sim.Run(c.eng.with(sim.Config{
					N: c.n, Cycles: c.cycles, Seed: c.seed,
					Fn: core.Average, Init: sim.PeakInit(float64(c.n), 0),
					Overlay: RandomTopology(20).Overlay,
					Observe: func(_ int, e *sim.Engine) {
						m := e.ParticipantMoments()
						v = append(v, m.Min(), m.Max())
					},
				}))
				return v, err
			},
		},
		{
			// Performance is independent of size and strongly dependent
			// on topology.
			id: "fig3a", desc: "convergence factor vs network size, 8 topologies",
			title:  "Average convergence factor over 20 cycles vs network size",
			xLabel: "network size", yLabel: "convergence factor",
			n: 1000000, reps: 10, seed: 3, cycles: 20, minN: 100,
			series: labels(standard), perSeries: true, axis: sizes,
			seedShift: 8, seedLabel: true,
			// Fewer reps at the largest sizes keeps full-scale runs
			// tractable; the factor's variance shrinks with N anyway.
			repsAt: func(x float64, reps int) int {
				if x >= 300000 {
					return min(reps, 3)
				}
				return reps
			},
			measure: func(c cell) ([]float64, error) {
				return convergence(c, int(c.x), standard[c.series].Overlay)
			},
		},
		{
			// Geometric decay appears as a straight line on the paper's
			// log plot.
			id: "fig3b", desc: "normalized variance reduction per cycle, 8 topologies",
			title:  "Variance reduction normalized by initial variance",
			xLabel: "cycle", yLabel: "sigma^2_i / sigma^2_0",
			n: 100000, reps: 10, seed: 4, cycles: 50,
			series: labels(standard), perSeries: true, seedLabel: true,
			measure: func(c cell) ([]float64, error) {
				var tracker stats.ConvergenceTracker
				_, err := sim.Run(c.eng.with(sim.Config{
					N: c.n, Cycles: c.cycles, Seed: c.seed,
					Fn: core.Average, Init: sim.UniformInit(0, 1, c.seed^0x5eed),
					Overlay: standard[c.series].Overlay,
					Observe: func(_ int, e *sim.Engine) {
						tracker.Record(e.ParticipantMoments().Variance())
					},
				}))
				if err != nil {
					return nil, err
				}
				return tracker.NormalizedReduction(), nil
			},
		},
		{
			// β from complete order (0) to complete disorder (1):
			// randomness lowers the factor with no sharp phase transition.
			id: "fig4a", desc: "convergence factor vs Watts-Strogatz beta",
			title:  "Convergence factor for Watts-Strogatz graphs vs beta",
			xLabel: "beta", yLabel: "convergence factor",
			n: 100000, reps: 10, seed: 5, cycles: 20, steps: 21, max: 1,
			series: []string{"W-S"}, axis: linear, seedShift: 16,
			measure: func(c cell) ([]float64, error) {
				return convergence(c, c.n, wattsStrogatz(20, c.x))
			},
		},
		{
			// Poor at c = 2, plateauing near the random-graph level by
			// c ≈ 30: the basis for the paper's c = 30.
			id: "fig4b", desc: "convergence factor vs NEWSCAST cache size",
			title:  "Convergence factor for NEWSCAST graphs vs cache size c",
			xLabel: "cache size c", yLabel: "convergence factor",
			n: 100000, reps: 10, seed: 6, cycles: 20,
			series: []string{"Newscast"}, seedShift: 16,
			axis: list(2, 3, 4, 5, 7, 10, 15, 20, 25, 30, 35, 40, 45, 50),
			measure: func(c cell) ([]float64, error) {
				return convergence(c, c.n, sim.Newscast(int(c.x)))
			},
		},
		fig5(),
		{
			// Early deaths can remove most of the leader's mass; after
			// cycle ~10 the damage is negligible.
			id: "fig6a", desc: "COUNT vs sudden-death cycle (50% crash)",
			title:  "COUNT with 50% sudden death at cycle x",
			xLabel: "cycle of sudden death", yLabel: "estimated size",
			n: 100000, reps: 50, seed: 8, cycles: 30, steps: 21, max: 20,
			series: []string{"Experiments"}, axis: linear, seedShift: 20,
			measure: func(c cell) ([]float64, error) {
				// Cycle 0 on the paper's x axis means "at the very
				// start"; the failure hook runs at the start of cycle 1.
				death := sim.SuddenDeath{AtCycle: max(int(c.x), 1), Fraction: 0.5}
				return countEpoch(c, []sim.FailureModel{death}, 0)
			},
		},
		{
			// The correct answer remains N: the epoch reports the size at
			// its start.
			id: "fig6b", desc: "COUNT under churn (constant size)",
			title:  "COUNT under continuous churn (constant network size)",
			xLabel: "nodes substituted per cycle", yLabel: "estimated size",
			n: 100000, reps: 50, seed: 9, cycles: 30, steps: 11,
			series: []string{"Experiments"}, seedShift: 20,
			// Up to 2.5% of N substituted per cycle (2 500 at 10⁵): 75%
			// of the nodes replaced per epoch.
			axis: func(r *row, _ int) []float64 {
				xs := make([]float64, r.steps)
				for i := range xs {
					xs[i] = float64(r.n / 40 * i / (r.steps - 1))
				}
				return xs
			},
			measure: func(c cell) ([]float64, error) {
				return countEpoch(c, churn(int(c.x)), 0)
			},
		},
		{
			// Link failure only slows convergence, never past the §6.2
			// bound ρ_d = e^(P_d − 1).
			id: "fig7a", desc: "COUNT convergence factor vs link failure Pd + bound",
			title:  "COUNT convergence factor vs link failure probability",
			xLabel: "Pd", yLabel: "convergence factor",
			n: 100000, reps: 50, seed: 10, cycles: 20, steps: 10, max: 0.9,
			series: []string{"Average Convergence Factor"}, axis: linear, seedShift: 18,
			measure: func(c cell) ([]float64, error) {
				// COUNT is an averaging instance over the peak
				// distribution; its factor is measured on the estimates.
				var tracker stats.ConvergenceTracker
				_, err := sim.Run(c.eng.with(sim.Config{
					N: c.n, Cycles: c.cycles, Seed: c.seed,
					Dim: 1, Leaders: []int{0},
					Overlay:     sim.Newscast(30),
					LinkFailure: c.x,
					Observe: func(_ int, e *sim.Engine) {
						var m stats.Moments
						e.ForEachParticipantVec(func(_ int, vec []float64) { m.Add(vec[0]) })
						tracker.Record(m.Variance())
					},
				}))
				if err != nil {
					return nil, err
				}
				return one(tracker.AverageFactor(c.cycles))
			},
			theory: "Theoretical Upper Bound",
			theoryAt: func(c cell) (float64, error) {
				return theory.LinkFailureBound(c.x), nil
			},
		},
		{
			// Small loss keeps estimates reasonable; heavy loss spreads
			// them over orders of magnitude.
			id: "fig7b", desc: "COUNT size estimates vs message loss",
			title:  "COUNT size estimates vs fraction of messages lost",
			xLabel: "fraction of messages lost", yLabel: "estimated size",
			n: 100000, reps: 50, seed: 11, cycles: 30, steps: 11, max: 0.5,
			series: []string{"Max values", "Min values"}, axis: linear, seedShift: 18,
			measure: func(c cell) ([]float64, error) {
				e, err := sim.Run(c.eng.with(sim.Config{
					N: c.n, Cycles: c.cycles, Seed: c.seed,
					Dim: 1, Leaders: []int{0},
					Overlay:     sim.Newscast(30),
					MessageLoss: c.x,
				}))
				if err != nil {
					return nil, err
				}
				m := e.SizeMoments()
				if m.N() == 0 {
					return []float64{math.Inf(1), math.Inf(1)}, nil
				}
				return []float64{m.Max(), m.Min()}, nil
			},
		},
		fig8("fig8a", "multi-instance COUNT vs t under churn", "Multi-instance COUNT under churn", 12,
			func(c cell) ([]sim.FailureModel, float64) { return churn(c.n / 100), 0 }),
		fig8("fig8b", "multi-instance COUNT vs t under 20% message loss", "Multi-instance COUNT under message loss", 13,
			func(cell) ([]sim.FailureModel, float64) { return nil, 0.2 }),
		{
			// §4.1: the epoch-restart scheme makes the output track a
			// drifting signal with one-epoch lag.
			id: "extension-adaptivity", desc: "§4.1 restart tracks a drifting average across epochs",
			title:  "Automatic restart tracks a drifting global average (§4.1)",
			xLabel: "epoch", yLabel: "relative error of the epoch output",
			n: 10000, reps: 10, seed: 41,
			series: []string{"relative error per epoch"},
			measure: func(c cell) ([]float64, error) {
				results, err := sim.RunEpochChain(sim.EpochChainConfig{
					N: c.n, Epochs: 8, Gamma: 30, Seed: c.seed,
					// The environment ramps by 50% per epoch plus a
					// per-node component, so every epoch has a fresh
					// target.
					ValueAt: func(epoch, node int) float64 {
						return 100*math.Pow(1.5, float64(epoch)) + float64(node%100)
					},
					Overlay: sim.Newscast(30),
					Shards:  c.eng.shards, Workers: c.eng.workers,
				})
				var v []float64
				for _, r := range results {
					v = append(v, math.Abs(r.Outputs.Mean()-r.TrueAverage)/r.TrueAverage)
				}
				return v, err
			},
		},
		{
			// §5: P_lead = C/N̂ is fed by the previous epoch's estimate.
			// From a deliberately wrong guess (N̂₀ = 2) the estimate must
			// lock onto N after one epoch and the leaders settle near C.
			id: "extension-countchain", desc: "§5 COUNT lifecycle: P_lead=C/N-hat feedback across epochs",
			title:  "COUNT lifecycle: P_lead = C/N-hat feedback across epochs (§5)",
			xLabel: "epoch", yLabel: "size estimate / leaders elected",
			n: 10000, reps: 10, seed: 41,
			series: []string{"size estimate", "leaders elected"},
			measure: func(c cell) ([]float64, error) {
				results, err := sim.RunCountEpochChain(sim.CountChainConfig{
					N: c.n, Epochs: 6, Gamma: 30, Seed: c.seed,
					Concurrency: 8, InitialGuess: 2,
					Overlay: sim.Newscast(30),
					Shards:  c.eng.shards, Workers: c.eng.workers,
				})
				var v []float64
				for _, r := range results {
					est := math.NaN() // leaderless epoch
					if r.Outputs.N() > 0 {
						est = r.Outputs.Mean()
					}
					v = append(v, est, float64(r.LeadersElected))
				}
				return v, err
			},
		},
		{
			// §5: MIN/MAX spread like an epidemic broadcast, in O(log N)
			// cycles and under the Pittel push-gossip bound.
			id: "extension-minmax", desc: "§5 MIN/MAX epidemic broadcast: O(log N) propagation",
			title:  "MIN spreads as an epidemic broadcast (§5)",
			xLabel: "network size", yLabel: "cycles to full propagation",
			n: 10000, reps: 10, seed: 41,
			series: []string{"cycles to full MIN propagation"}, axis: sizes, seedShift: 10,
			measure: func(c cell) ([]float64, error) {
				n := int(c.x)
				e, err := sim.New(c.eng.with(sim.Config{
					N: n, Cycles: 640, Seed: c.seed, Fn: core.Min,
					// Node 0 holds the unique minimum.
					Init:    func(node int) float64 { return float64(1 + node) },
					Overlay: RandomTopology(20).Overlay,
				}))
				if err != nil {
					return nil, err
				}
				for cycle := 1; cycle <= 640; cycle++ {
					e.Step()
					if e.ParticipantMoments().Max() == 1 { // everyone has the minimum
						return []float64{float64(cycle)}, nil
					}
				}
				return nil, fmt.Errorf("MIN did not propagate in 640 cycles at n=%d", n)
			},
			theory: "Pittel push bound",
			theoryAt: func(c cell) (float64, error) {
				return theory.EpidemicRoundsBound(int(c.x)), nil
			},
		},
		scenarioRow("steady-churn", "fig 6b/8a churn regime re-expressed as a declarative scenario"),
		scenarioRow("partition-heal", "partition-and-heal scenario: mass conserved, estimate re-converges"),
		advbiasRow("inject-extreme", "Byzantine value injection: |bias| vs honest twin, defense off/on"),
		advbiasRow("sybil-flood", "sybil join flood: |bias| vs honest twin, defense off/on"),
		{
			// A1: the paper's push-pull against the Kempe et al. push-sum
			// baseline and naive push-only averaging, on the uniform
			// [0,1) workload.
			id: "ablation-pushpull", desc: "A1: push-pull vs push-sum vs push-only under loss",
			title:  "Push-pull vs push-sum vs push-only: relative error vs message loss",
			xLabel: "message loss fraction", yLabel: "mean |estimate − truth| / truth",
			n: 10000, reps: 10, seed: 21, cycles: 30,
			series: []string{"push-pull", "push-sum", "push-only"}, perSeries: true,
			axis: list(0, 0.05, 0.1, 0.2, 0.3), seedShift: 12,
			measure: func(c cell) ([]float64, error) {
				return ruleError(c, []sim.Rule{sim.PushPull, sim.PushSum, sim.PushOnly}[c.series])
			},
		},
		{
			// A2: the §7.3 trimmed mean against a plain mean over the
			// same multi-instance COUNT runs under 20% message loss.
			id: "ablation-combiner", desc: "A2: trimmed-mean vs plain-mean combiner",
			title:  "Trimmed-mean vs plain-mean combiner under 20% message loss",
			xLabel: "number of aggregation instances t", yLabel: "mean |estimate − N| / N",
			n: 10000, reps: 10, seed: 21, cycles: 30,
			series: []string{"trimmed mean (paper)", "plain mean"},
			axis:   list(3, 6, 12, 24, 48), seedShift: 12,
			measure: combinerError,
		},
		{
			// A3: NEWSCAST refreshed every cycle vs frozen after
			// bootstrap (stale caches) vs uniform random selection.
			id: "ablation-peer-selection", desc: "A3: fresh vs frozen NEWSCAST vs uniform selection",
			title:  "Peer selection quality: convergence factor by overlay freshness",
			xLabel: "series index", yLabel: "convergence factor",
			n: 10000, reps: 10, seed: 21, cycles: 20,
			series: []string{
				"uniform random (ideal)", "newscast c=30 (fresh)",
				"newscast c=30 (frozen)", "newscast c=5 (fresh)",
			},
			perSeries: true, seedLabel: true,
			axis: func(_ *row, series int) []float64 { return []float64{float64(series)} },
			measure: func(c cell) ([]float64, error) {
				overlays := []sim.OverlaySpec{
					CompleteTopology().Overlay, sim.Newscast(30), sim.NewscastFrozen(30), sim.Newscast(5),
				}
				return convergence(c, c.n, overlays[c.series])
			},
		},
	}
}

// fig5 compares the empirical Var(µ₂₀)/E(σ²₀) under per-cycle
// proportional crashes, on the fully connected topology and on NEWSCAST,
// with Theorem 1's prediction at ρ = 1/(2√e). The initial distribution is
// the peak, whose σ²₀ is exactly N (unbiased).
func fig5() row {
	// "Fully connected" means full knowledge of the *current*
	// membership: crashed nodes are no longer anyone's neighbors. A
	// static complete graph would keep timing out against the dead and
	// stall convergence, which the paper's model excludes.
	overlays := []sim.OverlaySpec{sim.CompleteLive(), sim.Newscast(30)}
	return row{
		id: "fig5", desc: "Var(mu_20)/E(sigma^2_0) vs crash rate Pf + Theorem 1",
		title:  "Effects of node crashes on the variance of AVERAGE at cycle 20",
		xLabel: "Pf", yLabel: "Var(mu_20) / E(sigma^2_0)",
		n: 100000, reps: 100, seed: 7, cycles: 20, steps: 7, max: 0.3, minReps: 2,
		series: []string{"fully connected topology", "newscast"}, perSeries: true,
		axis: linear, seedShift: 24, seedLabel: true,
		measure: func(c cell) ([]float64, error) {
			var failures []sim.FailureModel
			if c.x > 0 {
				failures = append(failures, sim.CrashFraction{P: c.x})
			}
			e, err := sim.Run(c.eng.with(sim.Config{
				N: c.n, Cycles: c.cycles, Seed: c.seed,
				Fn: core.Average, Init: sim.PeakInit(float64(c.n), 0),
				Overlay: overlays[c.series], Failures: failures,
			}))
			if err != nil {
				return nil, err
			}
			return []float64{e.ParticipantMoments().Mean()}, nil
		},
		reduce: func(n int, p Point, mus []float64) (Point, error) {
			v, err := stats.Variance(mus)
			p.Mean = v / float64(n)
			p.Min, p.Max = p.Mean, p.Mean
			return p, err
		},
		theory: "predicted",
		theoryAt: func(c cell) (float64, error) {
			sigma0 := float64(c.n)
			v, err := theory.CrashVariance(c.x, c.n, sigma0, theory.RhoPushPull, c.cycles)
			return v / sigma0, err
		},
	}
}

// fig8 is Figure 8: COUNT with t concurrent instances combined by the
// §7.3 trimmed mean, under the faults env returns; per t, the minimum and
// maximum combined estimate over all nodes. The combiner must tighten
// the envelopes dramatically as t grows.
func fig8(id, desc, title string, seed uint64, env func(c cell) ([]sim.FailureModel, float64)) row {
	return row{
		id: id, desc: desc, title: title,
		xLabel: "number of aggregation instances t", yLabel: "estimated size (min/max over nodes)",
		n: 100000, reps: 50, seed: seed, cycles: 30,
		series: []string{"Max", "Min"}, axis: list(1, 2, 3, 5, 10, 20, 30, 40, 50), seedShift: 18,
		measure: func(c cell) ([]float64, error) {
			t := int(c.x)
			if t > c.n {
				return nil, fmt.Errorf("invalid instance count %d", t)
			}
			failures, loss := env(c)
			// Each instance is led by a distinct random node, as if t
			// nodes had won the P_lead coin flip this epoch.
			e, err := sim.Run(c.eng.with(sim.Config{
				N: c.n, Cycles: c.cycles, Seed: c.seed,
				Dim: t, Leaders: leadersFor(c.n, t, c.seed),
				Overlay:  sim.Newscast(30),
				Failures: failures, MessageLoss: loss,
			}))
			if err != nil {
				return nil, err
			}
			lo, hi, found := math.Inf(1), math.Inf(-1), false
			e.ForEachParticipantVec(func(node int, _ []float64) {
				est := e.SizeEstimateAt(node)
				if math.IsInf(est, 0) {
					return
				}
				found = true
				if est < lo {
					lo = est
				}
				if est > hi {
					hi = est
				}
			})
			if !found {
				return []float64{math.Inf(1), math.Inf(1)}, nil
			}
			return []float64{hi, lo}, nil
		},
	}
}

// churn substitutes perCycle nodes every cycle (none at 0).
func churn(perCycle int) []sim.FailureModel {
	if perCycle > 0 {
		return []sim.FailureModel{sim.Churn{PerCycle: perCycle}}
	}
	return nil
}

// ruleError runs one A1 repetition under rule and returns the relative
// error of the participants' mean estimate against the true average.
// Each (loss, rep) seed is shared by all three rules, so they see the
// same values and the same graph instance.
func ruleError(c cell, rule sim.Rule) ([]float64, error) {
	init := sim.UniformInit(0, 1, c.seed^0x7777)
	vals := make([]float64, c.n)
	for i := range vals {
		vals[i] = init(i)
	}
	truth, err := stats.Mean(vals)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		N: c.n, Cycles: c.cycles, Seed: c.seed,
		Overlay:     RandomTopology(20).Overlay,
		MessageLoss: c.x,
		Rule:        rule,
	}
	if rule == sim.PushSum {
		// (s, w) = (value, 1): the estimate s/w tends to the average.
		cfg.Dim = 2
		cfg.VecInit = func(i, d int) float64 {
			if d == 0 {
				return vals[i]
			}
			return 1
		}
	} else {
		cfg.Fn, cfg.Init = core.Average, func(i int) float64 { return vals[i] }
	}
	e, err := sim.Run(c.eng.with(cfg))
	if err != nil {
		return nil, err
	}
	var est stats.Moments
	if rule == sim.PushSum {
		e.ForEachParticipantVec(func(_ int, sw []float64) {
			if sw[1] > 0 {
				est.Add(sw[0] / sw[1])
			}
		})
	} else {
		est = e.ParticipantMoments()
	}
	if est.N() == 0 {
		return []float64{math.Inf(1)}, nil
	}
	return []float64{math.Abs(est.Mean()-truth) / truth}, nil
}

// combinerError runs one A2 repetition with t = c.x instances and returns
// the mean relative error of the trimmed-mean and of the plain-mean
// combined estimates.
func combinerError(c cell) ([]float64, error) {
	t := int(c.x)
	e, err := sim.Run(c.eng.with(sim.Config{
		N: c.n, Cycles: c.cycles, Seed: c.seed,
		Dim: t, Leaders: leadersFor(c.n, t, c.seed),
		Overlay:     sim.Newscast(30),
		MessageLoss: 0.2,
	}))
	if err != nil {
		return nil, err
	}
	var trimmed, plain stats.Moments
	e.ForEachParticipantVec(func(_ int, vec []float64) {
		ests := make([]float64, 0, t)
		for _, v := range vec {
			if v > 0 {
				ests = append(ests, core.SizeFromAverage(v))
			}
		}
		if len(ests) == 0 {
			return
		}
		if v, err := core.Combine(ests); err == nil {
			trimmed.Add(v)
		}
		if v, err := core.CombinePlain(ests); err == nil {
			plain.Add(v)
		}
	})
	n := float64(c.n)
	return []float64{math.Abs(trimmed.Mean()-n) / n, math.Abs(plain.Mean()-n) / n}, nil
}

// canned looks up a canned scenario; the registry names only those.
func canned(name string) scenario.Scenario {
	sc, err := scenario.ByName(name)
	if err != nil {
		panic(err)
	}
	return sc
}

// scenarioRow re-expresses a canned scenario as a figure: per cycle, the
// relative estimate error, the estimate spread and the live-node
// fraction, from the generic scenario engine rather than a bespoke loop.
// N = 0 keeps the scenario's own size.
func scenarioRow(name, desc string) row {
	sc := canned(name)
	return row{
		id: "scenario-" + name, desc: desc,
		title:  fmt.Sprintf("Scenario %q on the sim executor (%s)", name, sc.Description),
		xLabel: "cycle", yLabel: "rel error / stddev / live fraction",
		n: sc.N, reps: 5, seed: 21, minN: 2,
		series: []string{"rel error", "estimate stddev", "live fraction"},
		measure: func(c cell) ([]float64, error) {
			s := sc
			s.N, s.Seed = c.n, c.seed
			res, err := scenario.RunSimWith(s, c.eng.simOptions())
			if err != nil {
				return nil, err
			}
			var v []float64
			for _, m := range res.PerCycle {
				v = append(v, m.RelError, m.EstimateStdDev, float64(m.Alive)/float64(res.N))
			}
			return v, nil
		},
	}
}

// advbiasRow runs an attacked canned scenario against its honest twin,
// once with its defense section stripped and once as declared, and plots
// the per-cycle |estimate bias| of both: the gap is the defense's effect
// under identical attack schedules. N = 0 keeps the scenario's own size.
func advbiasRow(name, desc string) row {
	sc := canned(name)
	return row{
		id: "advbias-" + name, desc: desc,
		title:  fmt.Sprintf("Attack bias vs honest twin, %q, defense off/on", name),
		xLabel: "cycle", yLabel: "|attacked mean estimate - honest mean estimate|",
		n: sc.N, reps: 3, seed: 29, minN: 2,
		series: []string{"undefended |bias|", "defended |bias|"},
		measure: func(c cell) ([]float64, error) {
			attacked := sc
			attacked.N, attacked.Seed = c.n, c.seed
			bare := attacked
			bare.Defense = scenario.Defense{}
			undef, err := scenario.RunSimWithTwin(bare, c.eng.simOptions())
			if err != nil {
				return nil, err
			}
			def, err := scenario.RunSimWithTwin(attacked, c.eng.simOptions())
			if err != nil {
				return nil, err
			}
			u, d := undef.Bias.PerCycle, def.Bias.PerCycle
			var v []float64
			for i := range min(len(u), len(d)) {
				v = append(v, math.Abs(u[i]), math.Abs(d[i]))
			}
			return v, nil
		},
	}
}

// labels lists the names of specs.
func labels(specs []TopologySpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}
