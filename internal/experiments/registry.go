package experiments

import (
	"fmt"
	"sort"
)

// Options override the paper-scale defaults of an experiment; zero values
// keep the default. They exist so one CLI can drive every figure.
type Options struct {
	// N overrides the network size.
	N int
	// Reps overrides the repetition count.
	Reps int
	// Seed overrides the master seed (0 keeps the default — the paper
	// figures are seeded deterministically).
	Seed uint64
	// Engine selects the simulation engine's shard count for every
	// experiment — the figure sweeps, ablations, extensions and
	// scenario-based entries alike: EngineSerial (K = 1), EngineSharded
	// (K = Shards), or ""/EngineAuto to pick by the sweep's largest
	// network size (sharded at scenario.AutoEngineThreshold and above).
	// The resolved name is echoed in Result.Engine.
	Engine string
	// Shards is K for EngineSharded (0 = GOMAXPROCS). Results are
	// deterministic per (seed, shard count).
	Shards int
}

// sel bundles the engine choice for embedding into experiment configs.
func (o Options) sel() EngineSel { return EngineSel{Engine: o.Engine, Shards: o.Shards} }

func (o Options) n(def int) int {
	if o.N > 0 {
		return o.N
	}
	return def
}

func (o Options) reps(def int) int {
	if o.Reps > 0 {
		return o.Reps
	}
	return def
}

func (o Options) seed(def uint64) uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return def
}

// Runner is a registered experiment.
type Runner struct {
	// ID is the figure identifier ("fig2" … "fig8b", "ablation-…").
	ID string
	// Description summarizes what the experiment reproduces.
	Description string
	// Run executes the experiment.
	Run func(Options) (*Result, error)
}

// Registry returns every registered experiment, sorted by ID.
func Registry() []Runner {
	runners := []Runner{
		{
			ID:          "fig2",
			Description: "AVERAGE min/max trajectory, peak distribution, 30 cycles",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultFig2()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunFig2(cfg)
			},
		},
		{
			ID:          "fig3a",
			Description: "convergence factor vs network size, 8 topologies",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultFig3a()
				if o.N > 0 {
					cfg.MaxN = o.N
				}
				cfg.Reps, cfg.Seed, cfg.EngineSel = o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunFig3a(cfg)
			},
		},
		{
			ID:          "fig3b",
			Description: "normalized variance reduction per cycle, 8 topologies",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultFig3b()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunFig3b(cfg)
			},
		},
		{
			ID:          "fig4a",
			Description: "convergence factor vs Watts-Strogatz beta",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultFig4a()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunFig4a(cfg)
			},
		},
		{
			ID:          "fig4b",
			Description: "convergence factor vs NEWSCAST cache size",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultFig4b()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunFig4b(cfg)
			},
		},
		{
			ID:          "fig5",
			Description: "Var(mu_20)/E(sigma^2_0) vs crash rate Pf + Theorem 1",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultFig5()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunFig5(cfg)
			},
		},
		{
			ID:          "fig6a",
			Description: "COUNT vs sudden-death cycle (50% crash)",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultFig6a()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunFig6a(cfg)
			},
		},
		{
			ID:          "fig6b",
			Description: "COUNT under churn (constant size)",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultFig6b()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				if o.N > 0 {
					// Keep the paper's churn-to-size proportion (2.5% of N
					// per cycle at the top of the sweep).
					cfg.MaxSubstitution = o.N / 40
				}
				return RunFig6b(cfg)
			},
		},
		{
			ID:          "fig7a",
			Description: "COUNT convergence factor vs link failure Pd + bound",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultFig7a()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunFig7a(cfg)
			},
		},
		{
			ID:          "fig7b",
			Description: "COUNT size estimates vs message loss",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultFig7b()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunFig7b(cfg)
			},
		},
		{
			ID:          "fig8a",
			Description: "multi-instance COUNT vs t under churn",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultFig8a()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				if o.N > 0 {
					cfg.ChurnPerCycle = o.N / 100 // paper: 1% of N per cycle
				}
				return RunFig8a(cfg)
			},
		},
		{
			ID:          "fig8b",
			Description: "multi-instance COUNT vs t under 20% message loss",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultFig8b()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunFig8b(cfg)
			},
		},
		{
			ID:          "extension-adaptivity",
			Description: "§4.1 restart tracks a drifting average across epochs",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultExtension()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunExtensionAdaptivity(cfg)
			},
		},
		{
			ID:          "extension-countchain",
			Description: "§5 COUNT lifecycle: P_lead=C/N-hat feedback across epochs",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultExtension()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunExtensionCountChain(cfg)
			},
		},
		{
			ID:          "extension-minmax",
			Description: "§5 MIN/MAX epidemic broadcast: O(log N) propagation",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultExtension()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunExtensionMinMax(cfg)
			},
		},
		{
			ID:          "scenario-steady-churn",
			Description: "fig 6b/8a churn regime re-expressed as a declarative scenario",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultScenarioFig("steady-churn")
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.N, o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunScenarioFig(cfg)
			},
		},
		{
			ID:          "scenario-partition-heal",
			Description: "partition-and-heal scenario: mass conserved, estimate re-converges",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultScenarioFig("partition-heal")
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.N, o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunScenarioFig(cfg)
			},
		},
		{
			ID:          "advbias-inject-extreme",
			Description: "Byzantine value injection: |bias| vs honest twin, defense off/on",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultAdvBias("inject-extreme")
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.N, o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunAdvBias(cfg)
			},
		},
		{
			ID:          "advbias-sybil-flood",
			Description: "sybil join flood: |bias| vs honest twin, defense off/on",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultAdvBias("sybil-flood")
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.N, o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunAdvBias(cfg)
			},
		},
		{
			ID:          "ablation-pushpull",
			Description: "A1: push-pull vs push-sum vs push-only under loss",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultAblation()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunAblationPushPull(cfg)
			},
		},
		{
			ID:          "ablation-combiner",
			Description: "A2: trimmed-mean vs plain-mean combiner",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultAblation()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunAblationCombiner(cfg)
			},
		},
		{
			ID:          "ablation-peer-selection",
			Description: "A3: fresh vs frozen NEWSCAST vs uniform selection",
			Run: func(o Options) (*Result, error) {
				cfg := DefaultAblation()
				cfg.N, cfg.Reps, cfg.Seed, cfg.EngineSel = o.n(cfg.N), o.reps(cfg.Reps), o.seed(cfg.Seed), o.sel()
				return RunAblationPeerSelection(cfg)
			},
		},
	}
	sort.Slice(runners, func(i, j int) bool { return runners[i].ID < runners[j].ID })
	return runners
}

// Lookup finds a registered experiment by ID.
func Lookup(id string) (Runner, error) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
