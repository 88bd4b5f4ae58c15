package sim

import (
	"errors"
	"fmt"

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
	// Leader is the node that holds the COUNT peak (SUM and PRODUCT need
	// a size estimate).
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
	// Name of the aggregate ("sum", "variance", "product").
	Name string
	// Estimates summarizes the per-node outputs.
	Estimates stats.Moments
}

// RunSum composes SUM exactly as §5 prescribes: one averaging instance
// over the values and one COUNT instance run concurrently; every node
// multiplies its two estimates.
func RunSum(cfg DerivedConfig) (*DerivedResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e, err := Run(Config{
		N:      cfg.N,
		Cycles: cfg.Cycles,
		Seed:   cfg.Seed,
		Dim:    2,
		VecInit: func(node, dim int) float64 {
			if dim == 0 {
				return cfg.Values(node)
			}
			if node == cfg.Leader {
				return 1
			}
			return 0
		},
		Overlay: cfg.Overlay,
	})
	if err != nil {
		return nil, err
	}
	res := &DerivedResult{Name: "sum"}
	e.ForEachParticipantVec(func(_ int, vec []float64) {
		size := core.SizeFromAverage(vec[1])
		res.Estimates.Add(core.SumFromAverage(vec[0], size))
	})
	return res, nil
}

// RunVariance composes VARIANCE (§5): two concurrent averaging instances,
// over the values and over their squares; the estimate is a2 − a².
func RunVariance(cfg DerivedConfig) (*DerivedResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e, err := Run(Config{
		N:      cfg.N,
		Cycles: cfg.Cycles,
		Seed:   cfg.Seed,
		Dim:    2,
		VecInit: func(node, dim int) float64 {
			v := cfg.Values(node)
			if dim == 0 {
				return v
			}
			return v * v
		},
		Overlay: cfg.Overlay,
	})
	if err != nil {
		return nil, err
	}
	res := &DerivedResult{Name: "variance"}
	e.ForEachParticipantVec(func(_ int, vec []float64) {
		res.Estimates.Add(core.VarianceFromMoments(vec[0], vec[1]))
	})
	return res, nil
}

// RunProduct composes PRODUCT (§5): a GEOMETRIC-MEAN instance and a COUNT
// instance; the estimate is gm^N. Values must be positive. The geometric
// mean instance uses the scalar engine (its update is not element-wise
// averaging), sharing the seed-derived overlay with the COUNT run.
func RunProduct(cfg DerivedConfig) (*DerivedResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.N; i++ {
		if cfg.Values(i) <= 0 {
			return nil, fmt.Errorf("sim: product needs positive values, node %d has %g", i, cfg.Values(i))
		}
	}
	gm, err := Run(Config{
		N:       cfg.N,
		Cycles:  cfg.Cycles,
		Seed:    cfg.Seed,
		Fn:      core.GeometricMean,
		Init:    cfg.Values,
		Overlay: cfg.Overlay,
	})
	if err != nil {
		return nil, err
	}
	count, err := Run(Config{
		N:       cfg.N,
		Cycles:  cfg.Cycles,
		Seed:    cfg.Seed + 1,
		Dim:     1,
		Leaders: []int{cfg.Leader},
		Overlay: cfg.Overlay,
	})
	if err != nil {
		return nil, err
	}
	// Pair the two runs' estimates per node id.
	sizes := make([]float64, cfg.N)
	count.ForEachParticipantVec(func(node int, vec []float64) {
		sizes[node] = core.SizeFromAverage(vec[0])
	})
	res := &DerivedResult{Name: "product"}
	gm.ForEachParticipant(func(node int, g float64) {
		if sizes[node] > 0 {
			res.Estimates.Add(core.ProductFromGeometricMean(g, sizes[node]))
		}
	})
	return res, nil
}
