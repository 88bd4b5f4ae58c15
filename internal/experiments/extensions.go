package experiments

import (
	"fmt"
	"math"

	"antientropy/internal/core"
	"antientropy/internal/sim"
	"antientropy/internal/theory"
)

// ExtensionConfig parameterizes the extension experiments: behaviours the
// paper claims in prose (§4.1 adaptivity, §5 epidemic MIN/MAX) but does
// not plot.
type ExtensionConfig struct {
	// N is the network size.
	N int
	// Reps per point.
	Reps int
	// Seed is the master seed.
	Seed uint64
	// EngineSel selects the simulation engine.
	EngineSel
}

// DefaultExtension returns laptop-scale defaults.
func DefaultExtension() ExtensionConfig {
	return ExtensionConfig{N: 10000, Reps: 10, Seed: 41}
}

func (c ExtensionConfig) validate() error {
	if c.N < 10 || c.Reps < 1 {
		return fmt.Errorf("experiments: invalid extension config %+v", c)
	}
	return nil
}

// RunExtensionAdaptivity demonstrates §4.1: the epoch-restart scheme
// makes the output track a drifting signal with one-epoch lag. The
// global average follows a ramp; the experiment reports, per epoch, the
// relative error between the epoch output and the epoch's true average.
func RunExtensionAdaptivity(cfg ExtensionConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng, err := cfg.EngineSel.resolve(cfg.N, cfg.Reps)
	if err != nil {
		return nil, err
	}
	topo := NewscastTopology(30)
	const epochs = 8
	errSeries := make([][]float64, cfg.Reps)
	err = sim.ParallelReps(cfg.Reps, cfg.Seed, func(rep int, seed uint64) error {
		results, err := sim.RunEpochChain(sim.EpochChainConfig{
			N:      cfg.N,
			Epochs: epochs,
			Gamma:  30,
			Seed:   seed,
			// The environment ramps by 50% per epoch plus a per-node
			// component, so every epoch has a fresh target.
			ValueAt: func(epoch, node int) float64 {
				base := 100 * math.Pow(1.5, float64(epoch))
				return base + float64(node%100)
			},
			Overlay: topo.Overlay,
			Shards:  eng.shards,
			Workers: eng.workers,
		})
		if err != nil {
			return err
		}
		es := make([]float64, 0, epochs)
		for _, r := range results {
			es = append(es, math.Abs(r.Outputs.Mean()-r.TrueAverage)/r.TrueAverage)
		}
		errSeries[rep] = es
		return nil
	})
	if err != nil {
		return nil, err
	}
	series := Series{Label: "relative error per epoch", Points: make([]Point, 0, epochs)}
	perRep := make([]float64, cfg.Reps)
	for e := 0; e < epochs; e++ {
		for rep := range errSeries {
			perRep[rep] = errSeries[rep][e]
		}
		series.Points = append(series.Points, summarize(float64(e), perRep))
	}
	return &Result{
		ID:     "extension-adaptivity",
		Title:  "Automatic restart tracks a drifting global average (§4.1)",
		XLabel: "epoch",
		YLabel: "relative error of the epoch output",
		Engine: eng.name,
		Series: []Series{series},
	}, nil
}

// RunExtensionCountChain demonstrates the full §5 COUNT lifecycle: the
// P_lead = C/N̂ election is fed by the previous epoch's estimate. The
// experiment starts from a deliberately wrong size guess (N̂₀ = 2) and
// reports, per epoch, the mean size estimate and the number of leaders
// elected — the estimate must lock onto N after the first epoch and the
// leader count must settle near C.
func RunExtensionCountChain(cfg ExtensionConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng, err := cfg.EngineSel.resolve(cfg.N, cfg.Reps)
	if err != nil {
		return nil, err
	}
	topo := NewscastTopology(30)
	const epochs = 6
	const concurrency = 8
	estSeries := make([][]float64, cfg.Reps)
	leadSeries := make([][]float64, cfg.Reps)
	err = sim.ParallelReps(cfg.Reps, cfg.Seed, func(rep int, seed uint64) error {
		results, err := sim.RunCountEpochChain(sim.CountChainConfig{
			N:            cfg.N,
			Epochs:       epochs,
			Gamma:        30,
			Seed:         seed,
			Concurrency:  concurrency,
			InitialGuess: 2, // deliberately wrong: forces the feedback loop to correct it
			Overlay:      topo.Overlay,
			Shards:       eng.shards,
			Workers:      eng.workers,
		})
		if err != nil {
			return err
		}
		es := make([]float64, 0, epochs)
		ls := make([]float64, 0, epochs)
		for _, r := range results {
			if r.Outputs.N() > 0 {
				es = append(es, r.Outputs.Mean())
			} else {
				es = append(es, math.NaN()) // leaderless epoch
			}
			ls = append(ls, float64(r.LeadersElected))
		}
		estSeries[rep] = es
		leadSeries[rep] = ls
		return nil
	})
	if err != nil {
		return nil, err
	}
	estimates := Series{Label: "size estimate", Points: make([]Point, 0, epochs)}
	leaders := Series{Label: "leaders elected", Points: make([]Point, 0, epochs)}
	perRep := make([]float64, cfg.Reps)
	for e := 0; e < epochs; e++ {
		for rep := range estSeries {
			perRep[rep] = estSeries[rep][e]
		}
		estimates.Points = append(estimates.Points, summarize(float64(e), perRep))
		for rep := range leadSeries {
			perRep[rep] = leadSeries[rep][e]
		}
		leaders.Points = append(leaders.Points, summarize(float64(e), perRep))
	}
	return &Result{
		ID:     "extension-countchain",
		Title:  "COUNT lifecycle: P_lead = C/N-hat feedback across epochs (§5)",
		XLabel: "epoch",
		YLabel: "size estimate / leaders elected",
		Engine: eng.name,
		Series: []Series{estimates, leaders},
	}, nil
}

// RunExtensionMinMax demonstrates §5: MIN/MAX spread like an epidemic
// broadcast — the number of cycles to full propagation grows
// logarithmically in N and stays under the Pittel push-gossip bound.
func RunExtensionMinMax(cfg ExtensionConfig) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng, err := cfg.EngineSel.resolve(cfg.N, cfg.Reps)
	if err != nil {
		return nil, err
	}
	topo := RandomTopology(20)
	sizes := logGrid(100, cfg.N)
	measured := Series{Label: "cycles to full MIN propagation", Points: make([]Point, 0, len(sizes))}
	bound := Series{Label: "Pittel push bound", Points: make([]Point, 0, len(sizes))}
	for si, n := range sizes {
		seed := cfg.Seed ^ (uint64(si+1) << 10)
		vals, err := repValues(cfg.Reps, seed, func(_ int, s uint64) (float64, error) {
			e, err := eng.start(coreConfig{
				N:      n,
				Cycles: 10 * 64, // safety margin; we stop early below
				Seed:   s,
				Fn:     core.Min,
				// Node 0 holds the unique minimum.
				Init:     func(node int) float64 { return float64(1 + node) },
				Topology: topo,
			})
			if err != nil {
				return 0, err
			}
			for cycle := 1; cycle <= 640; cycle++ {
				e.Step()
				m := e.ParticipantMoments()
				if m.Max() == 1 { // everyone has the minimum
					return float64(cycle), nil
				}
			}
			return 0, fmt.Errorf("experiments: MIN did not propagate in 640 cycles at n=%d", n)
		})
		if err != nil {
			return nil, err
		}
		measured.Points = append(measured.Points, summarize(float64(n), vals))
		b := theory.EpidemicRoundsBound(n)
		bound.Points = append(bound.Points, Point{X: float64(n), Mean: b, Min: b, Max: b})
	}
	return &Result{
		ID:     "extension-minmax",
		Title:  "MIN spreads as an epidemic broadcast (§5)",
		XLabel: "network size",
		YLabel: "cycles to full propagation",
		Engine: eng.name,
		Series: []Series{measured, bound},
	}, nil
}
