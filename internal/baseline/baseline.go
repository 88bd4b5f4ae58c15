// Package baseline implements the competing gossip-aggregation designs
// the DSN'04 paper positions itself against (§8):
//
//   - Push-sum (Kempe, Dobra & Gehrke, FOCS'03): push-only gossip over
//     (sum, weight) pairs. Mass conservation holds only while messages
//     are delivered — a lost message removes mass from the system.
//   - Naive push-only averaging: the initiator pushes its estimate and
//     only the receiver updates. The global sum is not conserved per
//     exchange (only in expectation), which is exactly why the paper's
//     push-pull scheme and Kempe's weighted variant exist.
//
// The ablation benchmark AblationPushPull contrasts all three under
// identical overlays and failure levels.
package baseline

import (
	"errors"
	"fmt"

	"antientropy/internal/stats"
	"antientropy/internal/topology"
)

// Config describes a baseline run. The graph builder is shared with the
// main simulator (sim.Static) so comparisons use identical topologies.
type Config struct {
	// N is the node count.
	N int
	// Rounds to execute.
	Rounds int
	// Seed drives all randomness.
	Seed uint64
	// SInit yields node i's initial sum component (its value, for
	// averaging).
	SInit func(node int) float64
	// WInit yields node i's initial weight (1 everywhere for AVERAGE; 1
	// at a single node and 0 elsewhere for COUNT).
	WInit func(node int) float64
	// Overlay builds the static neighbor-sampling graph.
	Overlay func(n int, rng *stats.RNG) (topology.Graph, error)
	// MessageLoss drops each pushed message with this probability. Lost
	// push-sum messages remove mass permanently.
	MessageLoss float64
	// Observe, when set, runs after initialization (round 0) and after
	// every round.
	Observe func(round int, ps *PushSum)
}

func (c Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("baseline: invalid node count %d", c.N)
	}
	if c.Rounds < 0 {
		return errors.New("baseline: negative round count")
	}
	if c.SInit == nil || c.WInit == nil {
		return errors.New("baseline: SInit and WInit are required")
	}
	if c.Overlay == nil {
		return errors.New("baseline: overlay builder is required")
	}
	if c.MessageLoss < 0 || c.MessageLoss > 1 {
		return fmt.Errorf("baseline: message loss %g not in [0,1]", c.MessageLoss)
	}
	return nil
}

// PushSum is the Kempe et al. protocol state: every node holds a (s, w)
// pair; each round it keeps half and pushes half to a uniformly random
// neighbor; the estimate is s/w.
type PushSum struct {
	cfg     Config
	rng     *stats.RNG
	overlay topology.Graph
	s, w    []float64
	// nextS/nextW accumulate the halves delivered during the current
	// round (synchronous-round semantics, as in the FOCS'03 paper).
	nextS, nextW []float64
	round        int
}

// NewPushSum validates cfg and initializes the protocol.
func NewPushSum(cfg Config) (*PushSum, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	overlay, err := cfg.Overlay(cfg.N, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("baseline: building overlay: %w", err)
	}
	ps := &PushSum{
		cfg:     cfg,
		rng:     rng,
		overlay: overlay,
		s:       make([]float64, cfg.N),
		w:       make([]float64, cfg.N),
		nextS:   make([]float64, cfg.N),
		nextW:   make([]float64, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		ps.s[i] = cfg.SInit(i)
		ps.w[i] = cfg.WInit(i)
	}
	return ps, nil
}

// RunPushSum executes all configured rounds.
func RunPushSum(cfg Config) (*PushSum, error) {
	ps, err := NewPushSum(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Observe != nil {
		cfg.Observe(0, ps)
	}
	for r := 0; r < cfg.Rounds; r++ {
		ps.Step()
		if cfg.Observe != nil {
			cfg.Observe(ps.round, ps)
		}
	}
	return ps, nil
}

// Step runs one synchronous push-sum round.
func (ps *PushSum) Step() {
	ps.round++
	n := ps.cfg.N
	for i := 0; i < n; i++ {
		ps.nextS[i] = 0
		ps.nextW[i] = 0
	}
	for i := 0; i < n; i++ {
		halfS, halfW := ps.s[i]/2, ps.w[i]/2
		// Keep one half.
		ps.nextS[i] += halfS
		ps.nextW[i] += halfW
		// Push the other half to a random neighbor; a lost message
		// destroys that mass (the protocol has no acknowledgment).
		j := ps.overlay.Neighbor(i, ps.rng)
		if j < 0 {
			ps.nextS[i] += halfS
			ps.nextW[i] += halfW
			continue
		}
		if ps.rng.Bool(ps.cfg.MessageLoss) {
			continue
		}
		ps.nextS[j] += halfS
		ps.nextW[j] += halfW
	}
	ps.s, ps.nextS = ps.nextS, ps.s
	ps.w, ps.nextW = ps.nextW, ps.w
}

// Round returns the number of completed rounds.
func (ps *PushSum) Round() int { return ps.round }

// Estimate returns node's current estimate s/w, or (0, false) when the
// node holds no weight yet.
func (ps *PushSum) Estimate(node int) (float64, bool) {
	if ps.w[node] <= 0 {
		return 0, false
	}
	return ps.s[node] / ps.w[node], true
}

// Moments summarizes the estimates of all nodes currently holding weight.
func (ps *PushSum) Moments() stats.Moments {
	var m stats.Moments
	for i := 0; i < ps.cfg.N; i++ {
		if est, ok := ps.Estimate(i); ok {
			m.Add(est)
		}
	}
	return m
}

// TotalMass returns the global sums Σs and Σw; with no loss both are
// invariants of the protocol.
func (ps *PushSum) TotalMass() (sumS, sumW float64) {
	for i := 0; i < ps.cfg.N; i++ {
		sumS += ps.s[i]
		sumW += ps.w[i]
	}
	return sumS, sumW
}

// PushOnly is the naive push-only averaging baseline: each round every
// node pushes its estimate to one random neighbor and the receiver moves
// to the midpoint. Updates are applied sequentially (same semantics as
// the paper's asynchronous exchanges), and the initiator never learns the
// receiver's value, so an individual exchange does not conserve the
// global sum.
type PushOnly struct {
	cfg     Config
	rng     *stats.RNG
	overlay topology.Graph
	x       []float64
	perm    []int
	round   int
}

// NewPushOnly validates cfg (WInit is ignored) and initializes states.
func NewPushOnly(cfg Config) (*PushOnly, error) {
	if cfg.WInit == nil {
		cfg.WInit = func(int) float64 { return 1 }
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	overlay, err := cfg.Overlay(cfg.N, rng.Split())
	if err != nil {
		return nil, fmt.Errorf("baseline: building overlay: %w", err)
	}
	po := &PushOnly{
		cfg:     cfg,
		rng:     rng,
		overlay: overlay,
		x:       make([]float64, cfg.N),
		perm:    make([]int, cfg.N),
	}
	for i := range po.x {
		po.x[i] = cfg.SInit(i)
	}
	return po, nil
}

// RunPushOnly executes all configured rounds.
func RunPushOnly(cfg Config) (*PushOnly, error) {
	po, err := NewPushOnly(cfg)
	if err != nil {
		return nil, err
	}
	for r := 0; r < cfg.Rounds; r++ {
		po.Step()
	}
	return po, nil
}

// Step runs one push-only round.
func (po *PushOnly) Step() {
	po.round++
	po.rng.Perm(po.perm)
	for _, i := range po.perm {
		j := po.overlay.Neighbor(i, po.rng)
		if j < 0 || po.rng.Bool(po.cfg.MessageLoss) {
			continue
		}
		po.x[j] = (po.x[i] + po.x[j]) / 2
	}
}

// Value returns node's current estimate.
func (po *PushOnly) Value(node int) float64 { return po.x[node] }

// Moments summarizes all node estimates.
func (po *PushOnly) Moments() stats.Moments {
	var m stats.Moments
	for _, v := range po.x {
		m.Add(v)
	}
	return m
}
