// Command envcheck guards regenerated paper figures against regressions:
// it compares a figure CSV (the "figure,series,x,mean,min,max,reps"
// stream cmd/aggsim emits) to a golden envelope of per-point bounds on
// the mean, and exits non-zero when any point escapes its envelope. The
// nightly CI workflow regenerates fig2 and fig6b at 8 shards and
// reduced paper scale and gates them with the envelopes checked in
// under testdata/envelopes/.
//
// The nightly sweeps pin the seed and the shard count, which makes the
// simulation bit-deterministic, so the envelope margins only need to
// absorb cross-platform float noise — any larger move means the
// protocol's behaviour actually changed and someone should look.
//
// Usage:
//
//	envcheck envelope.csv figure.csv           # verify, exit 1 on breach
//	envcheck -gen -rel 0.05 -abs 0.05 figure.csv > envelope.csv
//
// Regenerate an envelope (with -gen, after an intentional behaviour
// change) from a figure CSV produced by the exact command the nightly
// workflow runs, and commit the result. Each committed envelope has its
// own margins, and -gen must be given them: fig2 and fig6b use
// -rel 0.05 -abs 0.05 (the defaults), advbias-inject-extreme and
// advbias-sybil-flood use -rel 0.1 -abs 0.01.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "envcheck:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		gen = flag.Bool("gen", false, "generate an envelope from a figure CSV on stdout instead of checking")
		rel = flag.Float64("rel", 0.05, "with -gen: relative margin around each mean")
		abs = flag.Float64("abs", 0.05, "with -gen: absolute margin around each mean")
	)
	flag.Parse()
	if *gen {
		if flag.NArg() != 1 {
			return fmt.Errorf("usage: envcheck -gen [-rel R] [-abs A] figure.csv")
		}
		return generate(os.Stdout, flag.Arg(0), *rel, *abs)
	}
	if flag.NArg() != 2 {
		return fmt.Errorf("usage: envcheck envelope.csv figure.csv")
	}
	return check(os.Stdout, flag.Arg(0), flag.Arg(1))
}

// point identifies one figure data point.
type point struct {
	figure, series, x string
}

// readCSV loads a CSV with the expected header, returning the rows.
func readCSV(path string, wantHeader []string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("%s: reading header: %w", path, err)
	}
	if len(header) < len(wantHeader) {
		return nil, fmt.Errorf("%s: header %v, want at least %v", path, header, wantHeader)
	}
	for i, col := range wantHeader {
		if header[i] != col {
			return nil, fmt.Errorf("%s: header column %d is %q, want %q", path, i, header[i], col)
		}
	}
	var rows [][]string
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rows = append(rows, rec)
	}
}

var figureHeader = []string{"figure", "series", "x", "mean", "min", "max", "reps"}

// readFigure loads the mean of every figure point.
func readFigure(path string) (map[point]float64, error) {
	rows, err := readCSV(path, figureHeader)
	if err != nil {
		return nil, err
	}
	means := make(map[point]float64, len(rows))
	for _, rec := range rows {
		mean, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad mean %q: %w", path, rec[3], err)
		}
		means[point{rec[0], rec[1], rec[2]}] = mean
	}
	return means, nil
}

// generate writes an envelope CSV for the figure to w.
func generate(w io.Writer, figurePath string, rel, abs float64) error {
	rows, err := readCSV(figurePath, figureHeader)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "figure,series,x,lo,hi"); err != nil {
		return err
	}
	for _, rec := range rows {
		mean, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return fmt.Errorf("%s: bad mean %q: %w", figurePath, rec[3], err)
		}
		if math.IsNaN(mean) || math.IsInf(mean, 0) {
			// aggsim writes NaN for a point none of whose repetitions
			// converged; it has no mean to bound.
			return fmt.Errorf("%s: point %s/%s x=%s has mean %g, no envelope", figurePath, rec[0], rec[1], rec[2], mean)
		}
		margin := rel*math.Abs(mean) + abs
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%g,%g\n", rec[0], rec[1], rec[2], mean-margin, mean+margin); err != nil {
			return err
		}
	}
	return nil
}

// check verifies every envelope point against the figure CSV, writing
// each breach and the verdict to w.
func check(w io.Writer, envelopePath, figurePath string) error {
	envRows, err := readCSV(envelopePath, []string{"figure", "series", "x", "lo", "hi"})
	if err != nil {
		return err
	}
	means, err := readFigure(figurePath)
	if err != nil {
		return err
	}
	breaches := 0
	for _, rec := range envRows {
		p := point{rec[0], rec[1], rec[2]}
		lo, err1 := strconv.ParseFloat(rec[3], 64)
		hi, err2 := strconv.ParseFloat(rec[4], 64)
		if err1 != nil || err2 != nil || math.IsNaN(lo) || math.IsNaN(hi) {
			return fmt.Errorf("%s: bad bounds for %v", envelopePath, p)
		}
		mean, ok := means[p]
		if !ok {
			fmt.Fprintf(w, "MISSING %s/%s x=%s: figure CSV has no such point\n", p.figure, p.series, p.x)
			breaches++
			continue
		}
		// A NaN mean (no repetition converged) compares false with
		// both bounds, so it is named a breach explicitly.
		if math.IsNaN(mean) || mean < lo || mean > hi {
			fmt.Fprintf(w, "BREACH  %s/%s x=%s: mean %g outside [%g, %g]\n", p.figure, p.series, p.x, mean, lo, hi)
			breaches++
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d of %d envelope points breached", breaches, len(envRows))
	}
	fmt.Fprintf(w, "OK: %d envelope points within bounds\n", len(envRows))
	return nil
}
