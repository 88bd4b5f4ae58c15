package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 20

// envInfo is where a recording was taken: numbers from different boxes
// are not comparable.
type envInfo struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func readEnv() envInfo {
	env := envInfo{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// recording is the -out file: the ledger format of baseline/.
type recording struct {
	Env  envInfo      `json:"env"`
	Runs []*runRecord `json:"runs"`
}

// writeRecording writes one run per line, so a ledger diff shows which
// runs changed.
func writeRecording(path string, runs []*runRecord) error {
	var buf bytes.Buffer
	env, err := json.Marshal(readEnv())
	if err != nil {
		return err
	}
	fmt.Fprintf(&buf, "{\"env\": %s,\n \"runs\": [\n", env)
	for i, r := range runs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		sep := ","
		if i == len(runs)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "  %s%s\n", line, sep)
	}
	buf.WriteString(" ]}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readRecording(path string) (*recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec recording
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// printRun is the noise self-report of one run: every metric by name
// with its unit, the median of its windows, their quartiles, count and
// spread, and for end-to-end metrics the bound.
func printRun(w io.Writer, rec *runRecord) {
	kind := "untraced"
	if rec.Trace == 1 {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  seconds=%g  %s  attempted=%d failed=%d correct=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, kind, rec.Attempted, rec.Failed, rec.Correct)
	for _, c := range rec.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %-24s %s\n", mark, c.Name, c.Detail)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tunit\tmedian\tq1\tq3\tn\tspread/median\tbound")
	row := func(d decl, bounded bool) {
		m, ok := rec.Metrics[d.Name]
		if !ok {
			return
		}
		spread := 0.0
		if m.Value != 0 {
			spread = (m.Q3 - m.Q1) / m.Value
		}
		bound := ""
		if bounded {
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%.1f%%\t%s\n",
			d.Name, d.Unit, m.Value, m.Q1, m.Q3, m.N, spread*100, bound)
	}
	for _, d := range endToEnd {
		row(d, true)
	}
	for _, d := range perLayer {
		row(d, false)
	}
	tw.Flush()
}

// setOptions configures runSets.
type setOptions struct {
	Seed    uint64
	Seconds float64
	Trace   int
	Repeat  int
	Quick   bool
	Out     string
	Spans   string
}

// runSets runs Repeat sets of every workload. Each run is a process of
// its own — the same isolation the driver gives a run — started from
// this binary and waited for. Set r uses seed Seed+r, as the driver
// gives every run another seed.
func runSets(opt setOptions, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".", ".bench_runs-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var runs []*runRecord
	failed := false
	for r := 0; r < opt.Repeat; r++ {
		for _, w := range workloads {
			file := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.Name, r))
			args := []string{
				"-workload", w.Name,
				"-seed", strconv.FormatUint(opt.Seed+uint64(r), 10),
				"-seconds", strconv.FormatFloat(opt.Seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(opt.Trace),
				"-out", file,
			}
			if opt.Quick {
				args = append(args, "-quick")
			}
			if opt.Spans != "" && r == 0 {
				args = append(args, "-spans", strings.TrimSuffix(opt.Spans, ".json")+"."+w.Name+".json")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			rec, err := readRecording(file)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s (set %d): %v (run: %v)\n", w.Name, r, err, runErr)
				failed = true
				continue
			}
			if runErr != nil {
				failed = true
			}
			runs = append(runs, rec.Runs...)
			for _, run := range rec.Runs {
				printRun(stdout, run)
			}
		}
	}
	if opt.Repeat > 1 {
		printSpread(stdout, runs, opt.Trace)
	}
	if opt.Out != "" {
		if err := writeRecording(opt.Out, runs); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// valuesOf collects one metric's value across the runs of a workload.
func valuesOf(runs []*runRecord, workload, name string, trace int) []float64 {
	var xs []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// printSpread reports, per workload and end-to-end metric, the
// run-to-run spread (interquartile distance over the median, the
// driver's statistic) next to the bound, flagging a spread above half
// the bound: such a metric cannot resolve a regression of its bound.
func printSpread(w io.Writer, runs []*runRecord, trace int) {
	fmt.Fprintln(w, "== run-to-run spread")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  workload\tmetric\tunit\truns\tmedian\tq1\tq3\tspread/median\tbound\t")
	for _, wl := range workloads {
		for _, d := range declsFor(trace) {
			xs := valuesOf(runs, wl.Name, d.Name, trace)
			if len(xs) < 2 {
				continue
			}
			q1, q2, q3 := quartilesExclusive(xs)
			spread := spreadShare(xs)
			flag := ""
			if trace == 0 && d.Name != "setup_s" && spread > d.Bound/2 {
				flag = "SPREAD > BOUND/2"
			}
			bound := ""
			if trace == 0 {
				bound = fmt.Sprintf("%.0f%%", d.Bound*100)
			}
			fmt.Fprintf(tw, "  %s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.2f%%\t%s\t%s\n",
				wl.Name, d.Name, d.Unit, len(xs), q2, q1, q3, spread*100, bound, flag)
		}
	}
	tw.Flush()
}
