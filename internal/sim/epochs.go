package sim

import (
	"errors"
	"fmt"

	"antientropy/internal/core"
	"antientropy/internal/stats"
)

// EpochChainConfig drives a multi-epoch simulation implementing the §4.1
// automatic-restart scheme in the deterministic substrate: the protocol
// runs Gamma cycles, its estimate becomes the epoch output, and a fresh
// instance restarts from the (possibly changed) local values. This is
// what makes the protocol adaptive — the output follows the signal with
// one epoch of lag.
type EpochChainConfig struct {
	// N is the network size.
	N int
	// Epochs to run.
	Epochs int
	// Gamma is the cycle count per epoch.
	Gamma int
	// Seed drives all randomness.
	Seed uint64
	// ValueAt yields node i's local value at the start of the given
	// epoch (the "dynamic aspect of the node or its environment", §3).
	ValueAt func(epoch, node int) float64
	// Overlay builds the overlay, rebuilt fresh per epoch for static
	// graphs (NEWSCAST state is also restarted; in a deployment it
	// persists, which only helps).
	Overlay OverlaySpec
	// LinkFailure and MessageLoss apply within every epoch.
	LinkFailure float64
	MessageLoss float64
	// Failures are applied within every epoch.
	Failures []FailureModel
	// Shards and Workers are passed to every epoch's Config.
	Shards, Workers int
}

func (c EpochChainConfig) validate() error {
	if c.N < 1 || c.Epochs < 1 || c.Gamma < 1 {
		return fmt.Errorf("sim: invalid epoch chain config %+v", c)
	}
	if c.ValueAt == nil {
		return errors.New("sim: epoch chain requires ValueAt")
	}
	if c.Overlay == nil {
		return errors.New("sim: epoch chain requires an overlay")
	}
	return nil
}

// EpochResult is one epoch's outcome.
type EpochResult struct {
	// Epoch index (0-based).
	Epoch int
	// TrueAverage of the values the epoch started from.
	TrueAverage float64
	// Outputs summarizes the per-node estimates at the epoch's end.
	Outputs stats.Moments
}

// RunEpochChain executes the configured epochs and returns one result per
// epoch.
func RunEpochChain(cfg EpochChainConfig) ([]EpochResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	results := make([]EpochResult, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var truth stats.Moments
		for i := 0; i < cfg.N; i++ {
			truth.Add(cfg.ValueAt(epoch, i))
		}
		e, err := Run(Config{
			N:           cfg.N,
			Cycles:      cfg.Gamma,
			Seed:        RepSeed(cfg.Seed, epoch),
			Shards:      cfg.Shards,
			Workers:     cfg.Workers,
			Fn:          core.Average,
			Init:        func(node int) float64 { return cfg.ValueAt(epoch, node) },
			Overlay:     cfg.Overlay,
			Failures:    cfg.Failures,
			LinkFailure: cfg.LinkFailure,
			MessageLoss: cfg.MessageLoss,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: epoch %d: %w", epoch, err)
		}
		res := EpochResult{Epoch: epoch, TrueAverage: truth.Mean()}
		e.ForEachParticipant(func(_ int, v float64) { res.Outputs.Add(v) })
		results = append(results, res)
	}
	return results, nil
}
