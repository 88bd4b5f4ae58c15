package experiments

import (
	"fmt"
	"math"

	"antientropy/internal/baseline"
	"antientropy/internal/core"
	"antientropy/internal/sim"
	"antientropy/internal/stats"
)

// AblationConfig parameterizes the design-choice ablations (DESIGN.md
// A1–A3). They are not paper figures, but quantify the decisions the
// paper argues for in §3, §7.3 and §4.4.
type AblationConfig struct {
	// N is the network size.
	N int
	// Cycles (or rounds) per run.
	Cycles int
	// Reps per point.
	Reps int
	// Seed is the master seed.
	Seed uint64
	// EngineSel selects the simulation engine for the protocol runs. The
	// push-sum/push-only reference baselines of A1 always execute on
	// their own serial implementations — they are comparison yardsticks,
	// not engine workloads.
	EngineSel
}

// DefaultAblation returns laptop-scale defaults (the ablations compare
// mechanisms, so moderate N suffices).
func DefaultAblation() AblationConfig {
	return AblationConfig{N: 10000, Cycles: 30, Reps: 10, Seed: 21}
}

func (c AblationConfig) validate() error {
	if c.N < 10 || c.Cycles < 1 || c.Reps < 1 {
		return fmt.Errorf("experiments: invalid ablation config %+v", c)
	}
	return nil
}

// RunAblationPushPull contrasts the paper's push-pull scheme with the
// Kempe et al. push-sum baseline and naive push-only averaging (A1): for
// each loss level, the mean relative error of the final estimates on the
// uniform [0,1) workload.
func RunAblationPushPull(cfg AblationConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng, err := cfg.EngineSel.resolve(cfg.N, cfg.Reps)
	if err != nil {
		return nil, err
	}
	lossLevels := []float64{0, 0.05, 0.1, 0.2, 0.3}
	topo := RandomTopology(20)
	overlay := randomGraph(20)
	result := &Result{
		ID:     "ablation-pushpull",
		Title:  "Push-pull vs push-sum vs push-only: relative error vs message loss",
		XLabel: "message loss fraction",
		YLabel: "mean |estimate − truth| / truth",
		Engine: eng.name,
	}
	type runner struct {
		label string
		run   func(seed uint64, loss float64) (float64, error)
	}
	// Truth: uniform values with known per-seed mean, measured directly.
	values := func(seed uint64, n int) []float64 {
		init := sim.UniformInit(0, 1, seed^0x7777)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = init(i)
		}
		return vals
	}
	meanError := func(est stats.Moments, truth float64) float64 {
		if est.N() == 0 {
			return math.Inf(1)
		}
		return math.Abs(est.Mean()-truth) / truth
	}
	runners := []runner{
		{"push-pull", func(seed uint64, loss float64) (float64, error) {
			vals := values(seed, cfg.N)
			truth, err := stats.Mean(vals)
			if err != nil {
				return 0, err
			}
			e, err := eng.run(coreConfig{
				N: cfg.N, Cycles: cfg.Cycles, Seed: seed,
				Fn:          core.Average,
				Init:        func(i int) float64 { return vals[i] },
				Topology:    topo,
				MessageLoss: loss,
			})
			if err != nil {
				return 0, err
			}
			return meanError(e.ParticipantMoments(), truth), nil
		}},
		{"push-sum", func(seed uint64, loss float64) (float64, error) {
			vals := values(seed, cfg.N)
			truth, err := stats.Mean(vals)
			if err != nil {
				return 0, err
			}
			ps, err := baseline.RunPushSum(baseline.Config{
				N: cfg.N, Rounds: cfg.Cycles, Seed: seed,
				SInit:       func(i int) float64 { return vals[i] },
				WInit:       func(int) float64 { return 1 },
				Overlay:     overlay,
				MessageLoss: loss,
			})
			if err != nil {
				return 0, err
			}
			return meanError(ps.Moments(), truth), nil
		}},
		{"push-only", func(seed uint64, loss float64) (float64, error) {
			vals := values(seed, cfg.N)
			truth, err := stats.Mean(vals)
			if err != nil {
				return 0, err
			}
			po, err := baseline.RunPushOnly(baseline.Config{
				N: cfg.N, Rounds: cfg.Cycles, Seed: seed,
				SInit:       func(i int) float64 { return vals[i] },
				Overlay:     overlay,
				MessageLoss: loss,
			})
			if err != nil {
				return 0, err
			}
			return meanError(po.Moments(), truth), nil
		}},
	}
	for _, r := range runners {
		series := Series{Label: r.label, Points: make([]Point, 0, len(lossLevels))}
		for li, loss := range lossLevels {
			seed := cfg.Seed ^ hashLabel(r.label) ^ (uint64(li+1) << 12)
			vals, err := repValues(cfg.Reps, seed, func(_ int, s uint64) (float64, error) {
				return r.run(s, loss)
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: ablation A1 %s loss=%g: %w", r.label, loss, err)
			}
			series.Points = append(series.Points, summarize(loss, vals))
		}
		result.Series = append(result.Series, series)
	}
	return result, nil
}

// RunAblationCombiner contrasts the §7.3 trimmed-mean combiner with a
// plain mean over the same multi-instance COUNT runs under 20% message
// loss (A2): per t, the mean relative error of the combined estimate.
func RunAblationCombiner(cfg AblationConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng, err := cfg.EngineSel.resolve(cfg.N, cfg.Reps)
	if err != nil {
		return nil, err
	}
	instanceCounts := []int{3, 6, 12, 24, 48}
	const loss = 0.2
	result := &Result{
		ID:     "ablation-combiner",
		Title:  "Trimmed-mean vs plain-mean combiner under 20% message loss",
		XLabel: "number of aggregation instances t",
		YLabel: "mean |estimate − N| / N",
		Engine: eng.name,
	}
	topo := NewscastTopology(30)
	trimmed := Series{Label: "trimmed mean (paper)", Points: make([]Point, 0, len(instanceCounts))}
	plain := Series{Label: "plain mean", Points: make([]Point, 0, len(instanceCounts))}
	for ti, t := range instanceCounts {
		seed := cfg.Seed ^ (uint64(ti+1) << 12)
		errTrim := make([]float64, cfg.Reps)
		errPlain := make([]float64, cfg.Reps)
		err := sim.ParallelReps(cfg.Reps, seed, func(rep int, s uint64) error {
			e, err := eng.run(coreConfig{
				N: cfg.N, Cycles: cfg.Cycles, Seed: s,
				Dim:         t,
				Leaders:     leadersFor(cfg.N, t, s),
				Topology:    topo,
				MessageLoss: loss,
			})
			if err != nil {
				return err
			}
			var mTrim, mPlain stats.Moments
			e.ForEachParticipantVec(func(node int, vec []float64) {
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
					mTrim.Add(v)
				}
				if v, err := core.CombinePlain(ests); err == nil {
					mPlain.Add(v)
				}
			})
			n := float64(cfg.N)
			errTrim[rep] = math.Abs(mTrim.Mean()-n) / n
			errPlain[rep] = math.Abs(mPlain.Mean()-n) / n
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation A2 t=%d: %w", t, err)
		}
		trimmed.Points = append(trimmed.Points, summarize(float64(t), errTrim))
		plain.Points = append(plain.Points, summarize(float64(t), errPlain))
	}
	result.Series = append(result.Series, trimmed, plain)
	return result, nil
}

// RunAblationPeerSelection compares peer-selection quality (A3): NEWSCAST
// refreshed every cycle vs a NEWSCAST whose gossip is frozen after
// bootstrap (stale caches) vs uniform random selection, measured by the
// convergence factor.
func RunAblationPeerSelection(cfg AblationConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng, err := cfg.EngineSel.resolve(cfg.N, cfg.Reps)
	if err != nil {
		return nil, err
	}
	named := func(name string, t TopologySpec) TopologySpec {
		t.Name = name
		return t
	}
	specs := []TopologySpec{
		named("uniform random (ideal)", CompleteTopology()),
		named("newscast c=30 (fresh)", NewscastTopology(30)),
		named("newscast c=30 (frozen)", newscastFrozenTopology(30)),
		named("newscast c=5 (fresh)", NewscastTopology(5)),
	}
	result := &Result{
		ID:     "ablation-peer-selection",
		Title:  "Peer selection quality: convergence factor by overlay freshness",
		XLabel: "series index",
		YLabel: "convergence factor",
		Engine: eng.name,
	}
	for si, spec := range specs {
		seed := cfg.Seed ^ hashLabel(spec.Name)
		vals, err := repValues(cfg.Reps, seed, func(_ int, s uint64) (float64, error) {
			return measureConvergenceFactor(eng, cfg.N, min(cfg.Cycles, 20), s, spec, 0)
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation A3 %s: %w", spec.Name, err)
		}
		result.Series = append(result.Series, Series{
			Label:  spec.Name,
			Points: []Point{summarize(float64(si), vals)},
		})
	}
	return result, nil
}
