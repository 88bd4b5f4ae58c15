package sim

import (
	"errors"
	"fmt"
	"math"

	"antientropy/internal/core"
	"antientropy/internal/stats"
)

// DerivedConfig parameterizes the §5 composed aggregates, which run
// multiple concurrent averaging instances and combine their outputs.
type DerivedConfig struct {
	// N is the network size.
	N int
	// Cycles per epoch.
	Cycles int
	// Seed drives the randomness.
	Seed uint64
	// Values yields node i's local value.
	Values func(node int) float64
	// Overlay builds the overlay.
	Overlay OverlaySpec
	// Leader is the node that holds the COUNT peak (SUM needs a size
	// estimate).
	Leader int
}

func (c DerivedConfig) validate() error {
	if c.N < 1 || c.Cycles < 1 {
		return fmt.Errorf("sim: invalid derived config %+v", c)
	}
	if c.Values == nil {
		return errors.New("sim: derived aggregates need Values")
	}
	if c.Overlay == nil {
		return errors.New("sim: derived aggregates need an overlay")
	}
	if c.Leader < 0 || c.Leader >= c.N {
		return fmt.Errorf("sim: leader %d out of range", c.Leader)
	}
	return nil
}

// DerivedResult carries the per-node combined estimates of a derived
// aggregate at the end of the epoch.
type DerivedResult struct {
	// Name of the aggregate ("sum" or "variance").
	Name string
	// Estimates summarizes the per-node outputs.
	Estimates stats.Moments
}

// RunSum composes SUM exactly as §5 prescribes: one averaging instance
// over the values and one COUNT instance run concurrently; every node
// multiplies its two estimates. A node that holds no COUNT mass yet has
// no finite size estimate and is left out of Estimates, as SizeMoments
// leaves it out.
func RunSum(cfg DerivedConfig) (*DerivedResult, error) {
	return runPair(cfg, "sum", func(node, dim int) float64 {
		if dim == 0 {
			return cfg.Values(node)
		}
		if node == cfg.Leader {
			return 1
		}
		return 0
	}, func(vec []float64) (float64, bool) {
		size := core.SizeFromAverage(vec[1])
		return core.SumFromAverage(vec[0], size), !math.IsInf(size, 1)
	})
}

// RunVariance composes VARIANCE (§5): two concurrent averaging instances,
// over the values and over their squares; the estimate is a2 − a².
func RunVariance(cfg DerivedConfig) (*DerivedResult, error) {
	return runPair(cfg, "variance", func(node, dim int) float64 {
		v := cfg.Values(node)
		if dim == 0 {
			return v
		}
		return v * v
	}, func(vec []float64) (float64, bool) {
		return core.VarianceFromMoments(vec[0], vec[1]), true
	})
}

// runPair runs two concurrent averaging instances (Dim = 2) from init
// and folds every participant's combine result into the named result,
// skipping the nodes combine rejects.
func runPair(cfg DerivedConfig, name string, init func(node, dim int) float64, combine func(vec []float64) (float64, bool)) (*DerivedResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e, err := Run(Config{
		N:       cfg.N,
		Cycles:  cfg.Cycles,
		Seed:    cfg.Seed,
		Dim:     2,
		VecInit: init,
		Overlay: cfg.Overlay,
	})
	if err != nil {
		return nil, err
	}
	res := &DerivedResult{Name: name}
	e.ForEachParticipantVec(func(_ int, vec []float64) {
		if v, ok := combine(vec); ok {
			res.Estimates.Add(v)
		}
	})
	return res, nil
}
