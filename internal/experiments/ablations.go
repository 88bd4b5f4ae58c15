package experiments

import (
	"fmt"
	"math"

	"antientropy/internal/core"
	"antientropy/internal/sim"
	"antientropy/internal/stats"
)

// AblationConfig parameterizes the design-choice ablations A1–A3 (README,
// "Reproducing the paper"). They are not paper figures, but quantify the
// decisions the paper argues for in §3, §7.3 and §4.4.
type AblationConfig struct {
	// N is the network size.
	N int
	// Cycles (or rounds) per run.
	Cycles int
	// Reps per point.
	Reps int
	// Seed is the master seed.
	Seed uint64
	// EngineSel selects the shard count of every run, A1's push-sum and
	// push-only rules included.
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
// uniform [0,1) workload. The three are exchange rules of the one engine
// (sim.Config.Rule), and each (loss, rep) seed is shared by all three, so
// they see the same values and the same graph instance.
func RunAblationPushPull(cfg AblationConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng, err := cfg.EngineSel.resolve(cfg.N, cfg.Reps)
	if err != nil {
		return nil, err
	}
	lossLevels := []float64{0, 0.05, 0.1, 0.2, 0.3}
	result := &Result{
		ID:     "ablation-pushpull",
		Title:  "Push-pull vs push-sum vs push-only: relative error vs message loss",
		XLabel: "message loss fraction",
		YLabel: "mean |estimate − truth| / truth",
		Engine: eng.name,
	}
	rules := []struct {
		label string
		rule  sim.Rule
	}{{"push-pull", sim.PushPull}, {"push-sum", sim.PushSum}, {"push-only", sim.PushOnly}}
	for _, r := range rules {
		series := Series{Label: r.label, Points: make([]Point, 0, len(lossLevels))}
		for li, loss := range lossLevels {
			seed := cfg.Seed ^ (uint64(li+1) << 12)
			vals, err := repValues(cfg.Reps, seed, func(_ int, s uint64) (float64, error) {
				return ruleError(eng, cfg, r.rule, s, loss)
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

// ruleError runs one A1 repetition under rule and returns the relative
// error of the participants' mean estimate against the true average.
func ruleError(eng sweepEngine, cfg AblationConfig, rule sim.Rule, seed uint64, loss float64) (float64, error) {
	init := sim.UniformInit(0, 1, seed^0x7777)
	vals := make([]float64, cfg.N)
	for i := range vals {
		vals[i] = init(i)
	}
	truth, err := stats.Mean(vals)
	if err != nil {
		return 0, err
	}
	cc := coreConfig{
		N: cfg.N, Cycles: cfg.Cycles, Seed: seed,
		Topology:    RandomTopology(20),
		MessageLoss: loss,
		Rule:        rule,
	}
	if rule == sim.PushSum {
		// (s, w) = (value, 1): the estimate s/w tends to the average.
		cc.Dim = 2
		cc.VecInit = func(i, d int) float64 {
			if d == 0 {
				return vals[i]
			}
			return 1
		}
	} else {
		cc.Fn, cc.Init = core.Average, func(i int) float64 { return vals[i] }
	}
	e, err := eng.run(cc)
	if err != nil {
		return 0, err
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
		return math.Inf(1), nil
	}
	return math.Abs(est.Mean()-truth) / truth, nil
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
