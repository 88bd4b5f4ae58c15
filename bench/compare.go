package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// side is one recording's view of one workload × metric.
type side struct {
	median, q1, q3 float64
	lo, hi         float64 // range of the runs (of the windows, for a single run)
	runs           int
}

// sideOf reduces the runs of a recording. With several runs the
// quartiles are run-to-run (the driver's statistic); with one run they
// are the quartiles of that run's windows.
func sideOf(rec *recording, workload, name string) (side, bool) {
	xs := valuesOf(rec.Runs, workload, name, 0)
	switch len(xs) {
	case 0:
		return side{}, false
	case 1:
		for _, r := range rec.Runs {
			if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == 0 {
				return side{median: m.Value, q1: m.Q1, q3: m.Q3, lo: m.Q1, hi: m.Q3, runs: 1}, true
			}
		}
	}
	q1, q2, q3 := quartilesExclusive(xs)
	s := side{median: q2, q1: q1, q3: q3, lo: xs[0], hi: xs[0], runs: len(xs)}
	for _, x := range xs {
		s.lo, s.hi = math.Min(s.lo, x), math.Max(s.hi, x)
	}
	return s, true
}

func (s side) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return math.Abs(s.q3-s.q1) / math.Abs(s.median)
}

// verdict judges B against A for one metric: "worse" when B's median is
// worse than A's by more than the bound, "better" when it is better by
// more than the bound, "unresolved" when either side's spread exceeds
// the bound and the two ranges overlap (the bound cannot be told from
// noise), otherwise "same".
func verdict(d decl, a, b side) string {
	if a.median == 0 {
		return "unresolved"
	}
	worse := (b.median - a.median) / math.Abs(a.median)
	if d.Better == "higher" {
		worse = -worse
	}
	overlap := a.lo <= b.hi && b.lo <= a.hi
	if math.Max(a.spread(), b.spread()) > d.Bound && overlap {
		return "unresolved"
	}
	switch {
	case worse > d.Bound:
		return "worse"
	case worse < -d.Bound:
		return "better"
	default:
		return "same"
	}
}

// failedShare is failed ÷ attempted over a recording's runs of workload.
func failedShare(rec *recording, workload string) float64 {
	var failed, attempted int64
	for _, r := range rec.Runs {
		if r.Workload == workload && r.Trace == 0 {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles prints one row per workload × end-to-end metric and
// returns 1 if any is worse, if B fails a larger share of its operations
// or if a run of B was incorrect.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecording(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRecording(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return compareRecordings(a, b, stdout)
}

func compareRecordings(a, b *recording, stdout io.Writer) int {
	fmt.Fprintf(stdout, "A: %s, %s, nproc %d\nB: %s, %s, nproc %d\n",
		a.Env.Go, a.Env.CPU, a.Env.NumCPU, b.Env.Go, b.Env.CPU, b.Env.NumCPU)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1..q3] (runs)\tB median [q1..q3] (runs)\tchange\tbound\tverdict")
	bad := false
	for _, w := range workloads {
		name := w.Name
		for _, d := range endToEnd {
			sa, okA := sideOf(a, name, d.Name)
			sb, okB := sideOf(b, name, d.Name)
			if !okA || !okB {
				continue
			}
			v := verdict(d, sa, sb)
			if v == "worse" {
				bad = true
			}
			change := 0.0
			if sa.median != 0 {
				change = (sb.median - sa.median) / math.Abs(sa.median)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g..%.6g] (%d)\t%.6g [%.6g..%.6g] (%d)\t%+.1f%%\t%.0f%%\t%s\n",
				name, d.Name, d.Unit, sa.median, sa.q1, sa.q3, sa.runs, sb.median, sb.q1, sb.q3, sb.runs,
				change*100, d.Bound*100, v)
		}
		fa, fb := failedShare(a, name), failedShare(b, name)
		v := "same"
		if fb > fa {
			v, bad = "worse", true
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tshare\t%.3g\t%.3g\t\t\t%s\n", name, fa, fb, v)
	}
	tw.Flush()
	for _, r := range b.Runs {
		if !r.Correct {
			fmt.Fprintf(stdout, "B: %s seed %d failed a correctness check\n", r.Workload, r.Seed)
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}
