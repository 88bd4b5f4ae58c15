package experiments

import (
	"fmt"

	"antientropy/internal/core"
	"antientropy/internal/scenario"
	"antientropy/internal/sim"
)

// Engine names accepted by EngineSel.Engine (and Options.Engine) — the
// scenario executor's spellings, shared so the two layers cannot drift.
// The one deliberate difference: the empty string means EngineAuto
// here (Options zero value auto-selects), but EngineSerial in
// scenario.SimOptions (whose zero value predates auto-selection).
const (
	// EngineAuto selects by network size: sharded at
	// N >= scenario.AutoEngineThreshold, serial below.
	EngineAuto = scenario.EngineAuto
	// EngineSerial runs the engine at K = 1.
	EngineSerial = scenario.EngineSerial
	// EngineSharded runs the engine at K = EngineSel.Shards.
	EngineSharded = scenario.EngineSharded
)

// EngineSel selects the shard count of a sweep's simulation runs. Every
// figure, ablation and extension config embeds it, so Options.Engine and
// Options.Shards apply uniformly across the whole registry.
type EngineSel struct {
	// Engine is "" or EngineAuto (pick by the sweep's largest network
	// size), EngineSerial, or EngineSharded. An explicit choice always
	// wins over auto-selection.
	Engine string
	// Shards is K for EngineSharded (0 = GOMAXPROCS). Results are
	// deterministic per (seed, shard count).
	Shards int
}

// resolve fixes the engine for a sweep whose largest single run has maxN
// node slots and which executes reps repetitions (concurrently via
// sim.ParallelReps). Auto-selection is resolved per sweep — one figure
// never mixes shard counts across its points.
func (s EngineSel) resolve(maxN, reps int) (sweepEngine, error) {
	engine := s.Engine
	if engine == "" {
		engine = EngineAuto
	}
	name, shards, err := scenario.ResolveEngine(engine, s.Shards, maxN)
	if err != nil {
		return sweepEngine{}, fmt.Errorf("experiments: %w", err)
	}
	// sim.ParallelReps already spreads the repetitions across the cores,
	// so multi-rep sweeps pin the engine to one worker: sharding still
	// changes the execution (and stays deterministic per shard count),
	// but engine-level goroutines on top of rep-level parallelism would
	// only oversubscribe the CPU. Single-rep runs get the machine.
	workers := 1
	if reps <= 1 {
		workers = 0
	}
	return sweepEngine{name: name, shards: shards, workers: workers}, nil
}

// sweepEngine is a resolved engine choice: the (shards, workers) every
// repetition of a sweep configures its engine with, and the name echoed
// in Result.Engine.
type sweepEngine struct {
	name    string
	shards  int
	workers int
}

// coreConfig describes one simulation run of a figure sweep: the subset
// of sim.Config the sweeps need, with the overlay expressed as a
// TopologySpec and the observer typed against sim.Core.
type coreConfig struct {
	N      int
	Cycles int
	Seed   uint64

	// Fn/Init select scalar mode; Dim with Leaders or VecInit selects
	// vector mode — exactly as in sim.Config.
	Fn      core.Function
	Init    func(node int) float64
	Dim     int
	Leaders []int
	VecInit func(node, dim int) float64

	Topology TopologySpec
	Failures []sim.FailureModel

	LinkFailure float64
	MessageLoss float64
	Rule        sim.Rule

	Observe func(cycle int, e sim.Core)
}

func (se sweepEngine) simConfig(cc coreConfig) sim.Config {
	cfg := sim.Config{
		N: cc.N, Cycles: cc.Cycles, Seed: cc.Seed,
		Shards: se.shards, Workers: se.workers,
		Fn: cc.Fn, Init: cc.Init,
		Dim: cc.Dim, Leaders: cc.Leaders, VecInit: cc.VecInit,
		Overlay:     cc.Topology.Overlay,
		Failures:    cc.Failures,
		LinkFailure: cc.LinkFailure, MessageLoss: cc.MessageLoss,
		Rule: cc.Rule,
	}
	if cc.Observe != nil {
		h := cc.Observe
		cfg.Observe = func(cycle int, e *sim.Engine) { h(cycle, e) }
	}
	return cfg
}

// run executes all configured cycles, invoking cc.Observe after
// initialization and after every cycle, and returns the finished engine.
func (se sweepEngine) run(cc coreConfig) (sim.Core, error) {
	return sim.Run(se.simConfig(cc))
}

// start builds the engine without running it, for sweeps that drive
// cycles manually (early-exit loops like the MIN/MAX extension).
func (se sweepEngine) start(cc coreConfig) (sim.Core, error) {
	return sim.New(se.simConfig(cc))
}
