// Package experiments regenerates every table and figure of the DSN'04
// paper's evaluation (§3, §4, §6, §7), plus the ablations, extensions and
// scenario-based figures that rest on it.
//
// A figure is a row. Every §7 figure sweeps one axis (N, topology, β, c,
// Pf, Pd, loss or t), keeps the protocol fixed, repeats each point and
// summarises one observed value, so each is one entry of the table in
// figures.go: its ID, labels and paper-scale constants (N, reps, seed,
// axis), its per-point seed rule, and one per-repetition measurement that
// returns a value per plotted series. A trajectory row (fig2, fig3b, the
// epoch chains, the scenario runs) has no axis: one run returns a value
// per cycle. One driver (row.run, in sweep.go) owns everything else:
// applying Options, validation, engine selection, the loops over series
// and points, the parallel repetitions, the summary of each point and the
// Result.
//
// To add a figure, append a row to rows() with its constants and its
// measure function; Registry picks it up, and cmd/aggsim runs it.
//
// Paper-scale runs (10⁵ nodes, 50 repetitions) are reproduced by
// cmd/aggsim; the test suite and benchmarks run the same rows at reduced
// scale, which is valid because the paper itself demonstrates (Figure 3a)
// that the convergence behaviour is independent of network size.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"antientropy/internal/core"
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

// csvHeader is the column row of the figure CSV stream.
const csvHeader = "figure,series,x,mean,min,max,reps"

// WriteCSV emits the result as a CSV file: the header, then one row per
// point (id, series, x, mean, min, max, reps).
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, csvHeader); err != nil {
		return err
	}
	return r.WriteCSVRows(w)
}

// WriteCSVRows emits the data rows only, for appending several results
// to one CSV stream after the first result's WriteCSV.
func (r *Result) WriteCSVRows(w io.Writer) error {
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
	suffix := ""
	if logY {
		suffix = ", log scale"
	}
	return plot.Render(plot.Config{
		Title: fmt.Sprintf("%s — %s (y: %s%s, x: %s)", r.ID, r.Title, r.YLabel, suffix, r.XLabel),
		LogY:  logY,
	}, series...)
}

// summarize converts per-rep values into a Point, ignoring NaNs and
// infinities (a COUNT run in which every mass holder crashed reports
// +Inf; the paper excludes those from its figures too). A point with no
// finite repetition has Reps 0 and reads NaN, not the empty moments' 0.
func summarize(x float64, values []float64) Point {
	var m stats.Moments
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		m.Add(v)
	}
	if m.N() == 0 {
		return Point{X: x, Mean: math.NaN(), Min: math.NaN(), Max: math.NaN()}
	}
	return Point{X: x, Mean: m.Mean(), Min: m.Min(), Max: m.Max(), Reps: m.N()}
}

// TopologySpec names an overlay construction used across the figure
// sweeps.
type TopologySpec struct {
	Name    string
	Overlay sim.OverlaySpec
}

// graphTopology wraps a static graph generator.
func graphTopology(name string, build func(n int, rng *stats.RNG) (topology.Graph, error)) TopologySpec {
	return TopologySpec{Name: name, Overlay: sim.Static(build)}
}

// RandomTopology is the paper's default test overlay: a random graph
// where every node knows `degree` random peers.
func RandomTopology(degree int) TopologySpec {
	return graphTopology("Random", func(n int, rng *stats.RNG) (topology.Graph, error) {
		return topology.NewRandomKOut(n, min(degree, n-1), rng)
	})
}

// CompleteTopology is the static fully connected topology.
func CompleteTopology() TopologySpec {
	return graphTopology("Complete", func(n int, _ *stats.RNG) (topology.Graph, error) {
		return topology.NewComplete(n)
	})
}

// wattsStrogatz is the small-world family of Figures 3–4 over a lattice
// of the given degree (clamped to something valid for n nodes).
func wattsStrogatz(degree int, beta float64) sim.OverlaySpec {
	return sim.Static(func(n int, rng *stats.RNG) (topology.Graph, error) {
		k := max(min(degree, n-1)&^1, 2)
		return topology.NewWattsStrogatz(n, k, beta, rng)
	})
}

// standardTopologies returns the eight overlay families of Figure 3, all
// with the paper's parameters: regular degree `degree` (20 in the paper)
// for the static graphs, cache size `newscastC` (30) for NEWSCAST, and
// attachment m = degree/2 for the scale-free graphs so the average degree
// matches.
func standardTopologies(degree, newscastC int) []TopologySpec {
	ws := func(beta float64) TopologySpec {
		return TopologySpec{fmt.Sprintf("W-S (beta=%.2f)", beta), wattsStrogatz(degree, beta)}
	}
	return []TopologySpec{
		ws(0.00), ws(0.25), ws(0.50), ws(0.75),
		{"Newscast", sim.Newscast(newscastC)},
		graphTopology("Scale-Free", func(n int, rng *stats.RNG) (topology.Graph, error) {
			return topology.NewBarabasiAlbert(n, min(degree/2, n-1), rng)
		}),
		RandomTopology(degree),
		CompleteTopology(),
	}
}

// convergence runs the AVERAGE protocol once over n nodes and returns
// the average convergence factor over the first c.cycles cycles (the
// quantity of Figures 3a, 4a, 4b and ablation A3).
func convergence(c cell, n int, overlay sim.OverlaySpec) ([]float64, error) {
	var tracker stats.ConvergenceTracker
	_, err := sim.Run(c.eng.with(sim.Config{
		N:       n,
		Cycles:  c.cycles,
		Seed:    c.seed,
		Fn:      core.Average,
		Init:    sim.UniformInit(0, 1, c.seed^0xabcdef),
		Overlay: overlay,
		Observe: func(_ int, e *sim.Engine) {
			tracker.Record(e.ParticipantMoments().Variance())
		},
	}))
	if err != nil {
		return nil, err
	}
	return one(tracker.AverageFactor(c.cycles))
}

// countEpoch runs one COUNT epoch (single leader, peak initialization)
// under the given failure models and message loss and returns the
// average network-size estimate over the nodes still participating at
// the end of the epoch — exactly the quantity Figure 6 plots.
func countEpoch(c cell, failures []sim.FailureModel, loss float64) ([]float64, error) {
	e, err := sim.Run(c.eng.with(sim.Config{
		N: c.n, Cycles: c.cycles, Seed: c.seed,
		Dim: 1, Leaders: []int{0},
		Overlay:     sim.Newscast(30),
		Failures:    failures,
		MessageLoss: loss,
	}))
	if err != nil {
		return nil, err
	}
	m := e.SizeMoments()
	if m.N() == 0 {
		// Every node holding mass crashed: the estimate diverged (§7.1
		// notes it "can even become infinite").
		return []float64{math.Inf(1)}, nil
	}
	return []float64{m.Mean()}, nil
}

// one wraps a single measured value as a row measurement.
func one(v float64, err error) ([]float64, error) {
	if err != nil {
		return nil, err
	}
	return []float64{v}, nil
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

// hashLabel derives a seed perturbation from a series label so that each
// topology family uses an independent random stream.
func hashLabel(label string) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h
}

// leadersFor picks t distinct leader nodes deterministically from seed.
func leadersFor(n, t int, seed uint64) []int {
	rng := stats.NewRNG(seed ^ 0x1eade5)
	leaders := make([]int, t)
	rng.Sample(leaders, n, nil)
	return leaders
}
