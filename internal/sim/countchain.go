package sim

import (
	"errors"
	"fmt"

	"antientropy/internal/core"
	"antientropy/internal/stats"
)

// CountChainConfig drives the full COUNT lifecycle of §5 across epochs:
// at every epoch start each node becomes the leader of a concurrent
// instance with probability P_lead = C/N̂, where N̂ is the previous
// epoch's size estimate; the instances run for Gamma cycles and the
// §7.3 trimmed mean combines them into the epoch's output, which feeds
// the next election.
type CountChainConfig struct {
	// N is the network size.
	N int
	// Epochs to run.
	Epochs int
	// Gamma is the cycle count per epoch.
	Gamma int
	// Seed drives all randomness.
	Seed uint64
	// Concurrency is C, the desired number of concurrent instances.
	Concurrency float64
	// InitialGuess seeds N̂ before any epoch has completed.
	InitialGuess float64
	// MaxInstances caps the concurrent instances actually simulated
	// (memory guard: a wildly low N̂ makes P_lead ≈ 1 and would elect
	// every node; the surplus leaders are subsampled). Default 64.
	MaxInstances int
	// Overlay builds the overlay (rebuilt per epoch).
	Overlay OverlaySpec
	// Failures are applied within every epoch.
	Failures []FailureModel
	// LinkFailure and MessageLoss apply within every epoch.
	LinkFailure float64
	MessageLoss float64
	// Shards and Workers are passed to every epoch's Config.
	Shards, Workers int
}

func (c CountChainConfig) validate() error {
	if c.N < 1 || c.Epochs < 1 || c.Gamma < 1 {
		return fmt.Errorf("sim: invalid count chain config %+v", c)
	}
	if c.Concurrency <= 0 {
		return errors.New("sim: count chain requires positive Concurrency")
	}
	if c.InitialGuess < 1 {
		return errors.New("sim: count chain requires InitialGuess >= 1")
	}
	if c.Overlay == nil {
		return errors.New("sim: count chain requires an overlay")
	}
	return nil
}

// CountEpochResult is one epoch of the COUNT lifecycle.
type CountEpochResult struct {
	// Epoch index (0-based).
	Epoch int
	// PLead is the election probability used this epoch.
	PLead float64
	// LeadersElected is the number of nodes that won the coin flip
	// (before the MaxInstances cap).
	LeadersElected int
	// Instances is the number of concurrent instances actually run.
	Instances int
	// Outputs summarizes the per-node combined size estimates at the
	// epoch's end (empty if no leader was elected).
	Outputs stats.Moments
}

// RunCountEpochChain executes the configured epochs and returns one
// result per epoch. Epochs that elect no leader produce no estimate and
// leave N̂ unchanged — exactly the behaviour the paper's Poisson model
// accepts as an occasional outcome.
func RunCountEpochChain(cfg CountChainConfig) ([]CountEpochResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxInstances := cfg.MaxInstances
	if maxInstances <= 0 {
		maxInstances = 64
	}
	electionRNG := stats.NewRNG(cfg.Seed ^ 0xe1ec7)
	estimate := cfg.InitialGuess
	results := make([]CountEpochResult, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		pLead := core.LeaderProbability(cfg.Concurrency, estimate)
		leaders := core.ElectLeaders(cfg.N, pLead, electionRNG)
		res := CountEpochResult{
			Epoch:          epoch,
			PLead:          pLead,
			LeadersElected: len(leaders),
		}
		if len(leaders) > maxInstances {
			// Subsample: keep an arbitrary deterministic prefix after a
			// shuffle so the cap does not bias toward low node ids.
			electionRNG.Shuffle(len(leaders), func(i, j int) {
				leaders[i], leaders[j] = leaders[j], leaders[i]
			})
			leaders = leaders[:maxInstances]
		}
		res.Instances = len(leaders)
		if len(leaders) > 0 {
			e, err := Run(Config{
				N:           cfg.N,
				Cycles:      cfg.Gamma,
				Seed:        RepSeed(cfg.Seed, epoch),
				Shards:      cfg.Shards,
				Workers:     cfg.Workers,
				Dim:         len(leaders),
				Leaders:     leaders,
				Overlay:     cfg.Overlay,
				Failures:    cfg.Failures,
				LinkFailure: cfg.LinkFailure,
				MessageLoss: cfg.MessageLoss,
			})
			if err != nil {
				return nil, fmt.Errorf("sim: count chain epoch %d: %w", epoch, err)
			}
			res.Outputs = e.SizeMoments()
			if res.Outputs.N() > 0 {
				estimate = res.Outputs.Mean()
			}
		}
		results = append(results, res)
	}
	return results, nil
}
