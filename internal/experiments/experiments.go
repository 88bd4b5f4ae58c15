// Package experiments regenerates every table and figure of the DSN'04
// paper's evaluation (§3, §4, §6, §7). Each figure has a Config with
// paper-scale defaults, a Run function that executes the sweep across all
// CPU cores, and a Result that prints the same series the paper plots.
//
// Paper-scale runs (10⁵ nodes, 50 repetitions) are reproduced by
// cmd/aggsim; the test suite and benchmarks run the same code at reduced
// scale, which is valid because the paper itself demonstrates (Figure 3a)
// that the convergence behaviour is independent of network size.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"antientropy/internal/plot"
	"antientropy/internal/sim"
	"antientropy/internal/stats"
	"antientropy/internal/topology"
)

// Point is one x position of a series with the distribution of the
// observed values across repetitions.
type Point struct {
	X    float64
	Mean float64
	Min  float64
	Max  float64
	// Reps is the number of repetitions aggregated into this point.
	Reps int
}

// Series is one labelled curve.
type Series struct {
	Label  string
	Points []Point
}

// Result is a regenerated figure: metadata plus one or more series.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// Engine names the simulation engine the sweep ran on ("serial" or
	// "sharded") — echoed by cmd/aggsim so auto-selection is visible.
	Engine string
	Series []Series
}

// WriteCSV emits the result as CSV: id, series, x, mean, min, max, reps.
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "figure,series,x,mean,min,max,reps"); err != nil {
		return err
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%g,%g,%g,%g,%d\n",
				r.ID, s.Label, p.X, p.Mean, p.Min, p.Max, p.Reps); err != nil {
				return err
			}
		}
	}
	return nil
}

// String renders a human-readable table of all series.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "x = %s, y = %s\n", r.XLabel, r.YLabel)
	if r.Engine != "" {
		fmt.Fprintf(&b, "engine = %s\n", r.Engine)
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "\n[%s]\n", s.Label)
		fmt.Fprintf(&b, "%14s %14s %14s %14s\n", "x", "mean", "min", "max")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%14.6g %14.6g %14.6g %14.6g\n", p.X, p.Mean, p.Min, p.Max)
		}
	}
	return b.String()
}

// SeriesByLabel returns the series with the given label.
func (r *Result) SeriesByLabel(label string) (Series, error) {
	for _, s := range r.Series {
		if s.Label == label {
			return s, nil
		}
	}
	return Series{}, fmt.Errorf("experiments: no series %q in %s", label, r.ID)
}

// Plot renders the result as an ASCII figure. The y axis is drawn
// logarithmically when the values span more than two decades (as most of
// the paper's figures do).
func (r *Result) Plot() (string, error) {
	series := make([]plot.Series, 0, len(r.Series))
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range r.Series {
		ps := plot.Series{Label: s.Label}
		for _, p := range s.Points {
			if math.IsNaN(p.Mean) || math.IsInf(p.Mean, 0) {
				continue
			}
			ps.X = append(ps.X, p.X)
			ps.Y = append(ps.Y, p.Mean)
			if p.Mean > 0 {
				minY = math.Min(minY, p.Mean)
				maxY = math.Max(maxY, p.Mean)
			}
		}
		series = append(series, ps)
	}
	logY := minY > 0 && maxY/minY > 100
	return plot.Render(plot.Config{
		Title: fmt.Sprintf("%s — %s (y: %s%s, x: %s)", r.ID, r.Title, r.YLabel, logSuffix(logY), r.XLabel),
		LogY:  logY,
	}, series...)
}

func logSuffix(log bool) string {
	if log {
		return ", log scale"
	}
	return ""
}

// summarize converts per-rep values into a Point, ignoring NaNs and
// infinities (a COUNT run in which every mass holder crashed reports
// +Inf; the paper excludes those from its figures too).
func summarize(x float64, values []float64) Point {
	p := Point{X: x, Min: math.Inf(1), Max: math.Inf(-1)}
	var m stats.Moments
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		m.Add(v)
	}
	p.Mean = m.Mean()
	p.Min = m.Min()
	p.Max = m.Max()
	p.Reps = m.N()
	return p
}

// TopologySpec names an overlay construction used across the figure
// sweeps.
type TopologySpec struct {
	Name    string
	Overlay sim.OverlaySpec
}

// graphBuilder generates a static graph over n nodes.
type graphBuilder = func(n int, rng *stats.RNG) (topology.Graph, error)

// graphTopology wraps a static graph generator.
func graphTopology(name string, build graphBuilder) TopologySpec {
	return TopologySpec{Name: name, Overlay: sim.Static(build)}
}

// NewscastTopology is the NEWSCAST overlay with cache size c.
func NewscastTopology(c int) TopologySpec {
	return TopologySpec{Name: "Newscast", Overlay: sim.Newscast(c)}
}

// CompleteLiveTopology is the fully connected overlay over the live
// membership.
func CompleteLiveTopology() TopologySpec {
	return TopologySpec{Name: "CompleteLive", Overlay: sim.CompleteLive()}
}

// newscastFrozenTopology is NEWSCAST with gossip disabled after
// bootstrap (ablation A3).
func newscastFrozenTopology(c int) TopologySpec {
	return TopologySpec{Name: "NewscastFrozen", Overlay: sim.NewscastFrozen(c)}
}

// wattsStrogatzTopology is the small-world family of Figures 3–4.
func wattsStrogatzTopology(name string, degree int, beta float64) TopologySpec {
	return graphTopology(name, func(n int, rng *stats.RNG) (topology.Graph, error) {
		return topology.NewWattsStrogatz(n, fitEvenDegree(degree, n), beta, rng)
	})
}

// randomGraph generates the paper's default test overlay: every node
// knows `degree` random peers.
func randomGraph(degree int) graphBuilder {
	return func(n int, rng *stats.RNG) (topology.Graph, error) {
		return topology.NewRandomKOut(n, min(degree, n-1), rng)
	}
}

// RandomTopology is the paper's default test overlay: a random graph
// where every node knows `degree` random peers.
func RandomTopology(degree int) TopologySpec {
	return graphTopology("Random", randomGraph(degree))
}

// CompleteTopology is the static fully connected topology.
func CompleteTopology() TopologySpec {
	return graphTopology("Complete", func(n int, _ *stats.RNG) (topology.Graph, error) {
		return topology.NewComplete(n)
	})
}

// StandardTopologies returns the eight overlay families of Figure 3, all
// with the paper's parameters: regular degree `degree` (20 in the paper)
// for the static graphs, cache size `newscastC` (30) for NEWSCAST, and
// attachment m = degree/2 for the scale-free graphs so the average degree
// matches.
func StandardTopologies(degree, newscastC int) []TopologySpec {
	ws := func(beta float64) TopologySpec {
		return wattsStrogatzTopology(fmt.Sprintf("W-S (beta=%.2f)", beta), degree, beta)
	}
	return []TopologySpec{
		ws(0.00), ws(0.25), ws(0.50), ws(0.75),
		NewscastTopology(newscastC),
		graphTopology("Scale-Free", func(n int, rng *stats.RNG) (topology.Graph, error) {
			m := degree / 2
			if m >= n {
				m = n - 1
			}
			return topology.NewBarabasiAlbert(n, m, rng)
		}),
		RandomTopology(degree),
		CompleteTopology(),
	}
}

// fitEvenDegree clamps a lattice degree to something valid for n nodes.
func fitEvenDegree(degree, n int) int {
	k := degree
	if k >= n {
		k = n - 1
	}
	if k%2 != 0 {
		k--
	}
	if k < 2 {
		k = 2
	}
	return k
}

// measureConvergenceFactor runs the AVERAGE protocol once and returns
// the average convergence factor over the first `cycles` cycles (the
// quantity of Figures 3a, 4a, 4b and 7a).
func measureConvergenceFactor(eng sweepEngine, n, cycles int, seed uint64, topo TopologySpec, pd float64) (float64, error) {
	var tracker stats.ConvergenceTracker
	_, err := eng.run(coreConfig{
		N:           n,
		Cycles:      cycles,
		Seed:        seed,
		Fn:          averageFn,
		Init:        sim.UniformInit(0, 1, seed^0xabcdef),
		Topology:    topo,
		LinkFailure: pd,
		Observe: func(_ int, e sim.Core) {
			m := e.ParticipantMoments()
			tracker.Record(m.Variance())
		},
	})
	if err != nil {
		return 0, err
	}
	return tracker.AverageFactor(cycles)
}

// repMeans runs fn for every repetition in parallel and returns the
// per-rep results in deterministic (rep-indexed) order.
func repValues(reps int, seed uint64, fn func(rep int, seed uint64) (float64, error)) ([]float64, error) {
	out := make([]float64, reps)
	err := sim.ParallelReps(reps, seed, func(rep int, s uint64) error {
		v, err := fn(rep, s)
		if err != nil {
			return err
		}
		out[rep] = v
		return nil
	})
	return out, err
}

// logGrid returns approximately-log-spaced integer network sizes from lo
// to hi inclusive (powers of 10 with the paper's half-decade points).
func logGrid(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v *= 10 {
		out = append(out, v)
		if half := v * 3; half <= hi && half > v {
			out = append(out, half)
		}
	}
	sort.Ints(out)
	return out
}

var averageFn = mustFunction("average")

// leaderRNG builds the dedicated generator used to draw instance leaders.
func leaderRNG(seed uint64) *stats.RNG {
	return stats.NewRNG(seed ^ 0x1eade5)
}
