package experiments

import (
	"cmp"
	"fmt"
	"sort"

	"antientropy/internal/scenario"
	"antientropy/internal/sim"
)

// Engine names accepted by Options.Engine — the scenario executor's
// spellings, shared so the two layers cannot drift. The one deliberate
// difference: the empty string means EngineAuto here (the Options zero
// value auto-selects), but EngineSerial in scenario.SimOptions (whose
// zero value predates auto-selection).
const (
	// EngineAuto selects by network size: sharded at
	// N >= scenario.AutoEngineThreshold, serial below.
	EngineAuto = scenario.EngineAuto
	// EngineSerial runs the engine at K = 1.
	EngineSerial = scenario.EngineSerial
	// EngineSharded runs the engine at K = Options.Shards.
	EngineSharded = scenario.EngineSharded
)

// Options override the paper-scale defaults of an experiment; zero values
// keep the default. They exist so one CLI can drive every figure.
type Options struct {
	// N overrides the network size (for fig3a, the top of the size
	// grid; for the scenario-based entries, the scenario's size).
	N int
	// Reps overrides the repetition count.
	Reps int
	// Seed overrides the master seed (0 keeps the default — the paper
	// figures are seeded deterministically).
	Seed uint64
	// Engine selects the simulation engine's shard count for every
	// experiment: EngineSerial (K = 1), EngineSharded (K = Shards), or
	// ""/EngineAuto to pick by the experiment's largest network size
	// (sharded at scenario.AutoEngineThreshold and above). The resolved
	// name is echoed in Result.Engine.
	Engine string
	// Shards is K for EngineSharded (0 = GOMAXPROCS). Results are
	// deterministic per (seed, shard count).
	Shards int
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
	table := rows()
	runners := make([]Runner, len(table))
	for i, r := range table {
		runners[i] = Runner{ID: r.id, Description: r.desc, Run: r.run}
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

// row is one registered figure: what it plots, its paper-scale constants
// and one repetition's measurement. Everything else is row.run's.
type row struct {
	id, desc              string
	title, xLabel, yLabel string

	// n, reps and seed are the paper-scale defaults Options override.
	n, reps int
	seed    uint64
	// cycles is the length of one run: an epoch, or the cycles a
	// convergence factor is averaged over.
	cycles int
	// steps and max shape a linear axis over [0, max] (see linear).
	steps int
	max   float64
	// minN and minReps are the smallest network size and repetition
	// count the row accepts (0 means 10 and 1).
	minN, minReps int

	// series labels the measured curves, in output order.
	series []string
	// perSeries runs every series separately, and measure returns that
	// series' values (cell.series says which); otherwise each run
	// returns a value for every series.
	perSeries bool
	// axis returns the x values a series sweeps, one run per value. Nil
	// makes a trajectory: one run returns a value per cycle, x = 0, 1, …,
	// cycle-major across the series it covers.
	axis func(r *row, series int) []float64
	// reps at one x, when the row lowers them there (fig3a's largest
	// sizes).
	repsAt func(x float64, reps int) int
	// A point's seed is seed ^ (i+1)<<seedShift (if seedShift > 0) ^
	// hashLabel(series label) (if seedLabel), i the point's index.
	seedShift uint
	seedLabel bool
	// measure runs one repetition.
	measure func(c cell) ([]float64, error)
	// reduce, if set, rewrites a point from its repetitions' values
	// (fig5's variance of the means).
	reduce func(n int, p Point, vals []float64) (Point, error)
	// theory, if set, appends a series of that label whose points are
	// theoryAt(x) on the first series' axis.
	theory   string
	theoryAt func(c cell) (float64, error)
}

// cell is what one repetition of a row sees.
type cell struct {
	eng       sweepEngine
	n, cycles int
	// series is the index of the series measured, for perSeries rows.
	series int
	// x is the point's axis value (0 on a trajectory).
	x    float64
	seed uint64
}

// run is the one sweep driver: it applies o to the row's defaults,
// validates them, resolves the engine, runs every (series, point) with
// its repetitions in parallel and summarizes each point.
func (r row) run(o Options) (*Result, error) {
	if o.N > 0 {
		r.n = o.N
	}
	if o.Reps > 0 {
		r.reps = o.Reps
	}
	if o.Seed != 0 {
		r.seed = o.Seed
	}
	if r.n < cmp.Or(r.minN, 10) || r.reps < cmp.Or(r.minReps, 1) {
		return nil, fmt.Errorf("experiments: %s: invalid n=%d reps=%d", r.id, r.n, r.reps)
	}
	eng, err := o.resolve(r.n, r.reps)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: r.id, Title: r.title, XLabel: r.xLabel, YLabel: r.yLabel, Engine: eng.name}
	for _, label := range r.series {
		res.Series = append(res.Series, Series{Label: label})
	}
	span := len(r.series) // series one run covers
	if r.perSeries {
		span = 1
	}
	for g := 0; g < len(r.series); g += span {
		out := res.Series[g : g+span]
		xs := []float64{0}
		if r.axis != nil {
			xs = r.axis(&r, g)
		}
		for i, x := range xs {
			reps := r.reps
			if r.repsAt != nil {
				reps = r.repsAt(x, reps)
			}
			seed := r.seed
			if r.seedShift > 0 {
				seed ^= uint64(i+1) << r.seedShift
			}
			if r.seedLabel {
				seed ^= hashLabel(out[0].Label)
			}
			vals := make([][]float64, reps)
			err := sim.ParallelReps(reps, seed, func(rep int, s uint64) error {
				v, err := r.measure(cell{eng: eng, n: r.n, cycles: r.cycles, series: g, x: x, seed: s})
				vals[rep] = v
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s %s x=%g: %w", r.id, out[0].Label, x, err)
			}
			perRep := make([]float64, reps)
			for p := 0; p < len(vals[0])/span; p++ {
				px := x
				if r.axis == nil {
					px = float64(p)
				}
				for k := range out {
					for rep := range vals {
						perRep[rep] = vals[rep][p*span+k]
					}
					pt := summarize(px, perRep)
					if r.reduce != nil {
						if pt, err = r.reduce(r.n, pt, perRep); err != nil {
							return nil, err
						}
					}
					out[k].Points = append(out[k].Points, pt)
				}
			}
		}
	}
	if r.theoryAt != nil {
		s := Series{Label: r.theory}
		for _, x := range r.axis(&r, 0) {
			v, err := r.theoryAt(cell{n: r.n, cycles: r.cycles, x: x})
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: x, Mean: v, Min: v, Max: v})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// linear is the axis of steps points evenly spaced over [0, max].
func linear(r *row, _ int) []float64 {
	xs := make([]float64, r.steps)
	for i := range xs {
		xs[i] = r.max * float64(i) / float64(r.steps-1)
	}
	return xs
}

// list is a fixed axis.
func list(xs ...float64) func(*row, int) []float64 {
	return func(*row, int) []float64 { return xs }
}

// sizes is the log-spaced network-size axis from 100 up to the row's N.
func sizes(r *row, _ int) []float64 {
	var xs []float64
	for _, n := range logGrid(100, r.n) {
		xs = append(xs, float64(n))
	}
	return xs
}

// resolve fixes the engine for an experiment whose largest single run has
// maxN node slots and which executes reps repetitions (concurrently via
// sim.ParallelReps). Auto-selection is resolved per experiment — one
// figure never mixes shard counts across its points.
func (o Options) resolve(maxN, reps int) (sweepEngine, error) {
	name, shards, err := scenario.ResolveEngine(cmp.Or(o.Engine, EngineAuto), o.Shards, maxN)
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
// repetition configures its engine with, and the name echoed in
// Result.Engine.
type sweepEngine struct {
	name    string
	shards  int
	workers int
}

// with sets the resolved shard and worker counts on cfg.
func (se sweepEngine) with(cfg sim.Config) sim.Config {
	cfg.Shards, cfg.Workers = se.shards, se.workers
	return cfg
}

// simOptions is the scenario executor's spelling of the same choice.
func (se sweepEngine) simOptions() scenario.SimOptions {
	return scenario.SimOptions{Engine: se.name, Shards: se.shards, Workers: se.workers}
}
