// Command bench is the repository benchmark: four workloads that stress
// different layers, each checked for correct output, reporting the
// end-to-end metrics of BENCHMARK.json (untraced run) or the per-layer
// metrics (traced run: ladder of isolated calls into each package,
// counts read from public accessors, spans recorded by decorators this
// package owns). README.md in this directory explains every choice.
//
// The driver form runs one workload and prints the result object as the
// last line of standard output:
//
//	bench -workload live-mem -seed 7 -seconds 20 -trace 0
//
// Without -workload it runs every workload, each in a process of its
// own so that process-wide meters (CPU, allocations, memory) are not
// shared, and prints the noise self-report; -repeat R runs R such sets
// and reports the run-to-run spread next to each bound; -out records the
// runs; -compare A.json B.json judges two recordings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
	Run  func(runConfig) (*runRecord, error)
}

// workloads, in the order of BENCHMARK.json and of every report. Each
// Why is the one-line reason BENCHMARK.json repeats.
var workloads = []workload{
	{
		Name: "sim-churn",
		Why:  "canned steady-churn script, N=20000, serial and sharded (K=4) engine: overlay.Table.Exchange and the two engine loops do the work, wire/transport/agent/serve none; deterministic per seed",
		Run:  runSimChurn,
	},
	{
		Name: "live-mem",
		Why:  "500 agent nodes, scalar AVERAGE over the in-memory network, open loop at one exchange per node per 150 ms: agent, wire, overlay.Membership and the per-node goroutines and timers, zero syscalls",
		Run:  func(cfg runConfig) (*runRecord, error) { return runLive(liveFor("live-mem", false, cfg.Quick), cfg) },
	},
	{
		Name: "live-udp-count",
		Why:  "same fleet and schedule, COUNT over one UDP mux on loopback: the same agent/wire/core code used differently (leader-map payloads, core.Merge) plus the real datagram path (recvmmsg/sendmmsg)",
		Run: func(cfg runConfig) (*runRecord, error) {
			return runLive(liveFor("live-udp-count", true, cfg.Quick), cfg)
		},
	},
	{
		Name: "serve-mix",
		Why:  "the cmd/aggd wiring behind loopback HTTP, three 32-node instances: closed loop of 2 callers mixing estimate reads with 32-value feeds, then feed-to-converged latency; serve and HTTP/JSON dominate",
		Run:  runServeMix,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (default: every workload, one process each)")
		seed    = fs.Uint64("seed", 1, "seed of every generated input")
		seconds = fs.Float64("seconds", defaultSeconds, "how long one run measures")
		trace   = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		out     = fs.String("out", "", "write the run records (JSON) to this file")
		spans   = fs.String("spans", "", "traced run: write the recorded spans (JSON) to this file")
		repeat  = fs.Int("repeat", 1, "run this many whole sets back to back and report the run-to-run spread")
		quick   = fs.Bool("quick", false, "test scale: small fleets, 2 000 simulated nodes")
		compare = fs.Bool("compare", false, "compare two -out recordings: bench -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two recordings: A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -repeat must be positive")
		return 2
	}
	if *name == "" {
		return runSets(setOptions{
			Seed: *seed, Seconds: *seconds, Trace: *trace, Repeat: *repeat,
			Quick: *quick, Out: *out, Spans: *spans,
		}, stdout, stderr)
	}

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %v)\n", *name, workloadNames())
		return 2
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Quick: *quick, Trace: *trace == 1}
	if cfg.Trace {
		cfg.Spans = newSpanLog()
		// The ladder runs after the workload and takes about a quarter of
		// a default-length run.
		cfg.Seconds *= ladderShare
	}
	rec, err := w.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	if cfg.Trace {
		runLadder(cfg, rec.Metrics)
		if *spans != "" {
			if err := cfg.Spans.writeFile(*spans); err != nil {
				fmt.Fprintf(stderr, "bench: writing spans: %v\n", err)
				return 1
			}
		}
	}
	rec.Seconds = *seconds
	finish(rec)
	printRun(stdout, rec)
	if *out != "" {
		if err := writeRecording(*out, []*runRecord{rec}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := printResultLine(stdout, rec); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// ladderShare is the share of a traced run's -seconds the workload
// gets; the ladder gets the rest.
const ladderShare = 0.75

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// declsFor returns the metrics a run of the given kind reports.
func declsFor(trace int) []decl {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// finish fills in what every record needs before it is reported: unit
// of each metric from its declaration, a value for every declared metric
// of the run's kind (a layer the workload never enters reads 0), and the
// failure of the run if a value is not a finite number.
func finish(rec *runRecord) {
	units := map[string]string{}
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	for _, d := range declsFor(rec.Trace) {
		if _, ok := rec.Metrics[d.Name]; !ok {
			if rec.Trace == 0 {
				rec.check("metric-"+d.Name, false, "end-to-end metric not measured")
			}
			rec.Metrics.set(d.Name, 0)
		}
	}
	for name, m := range rec.Metrics {
		m.Unit = units[name]
		rec.Metrics[name] = m
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rec.check("metric-"+name, false, "value %v is not finite", m.Value)
			m.Value = 0
			rec.Metrics[name] = m
		}
	}
	if rec.Attempted < 1 {
		rec.Attempted = 1
	}
}

// printResultLine prints the driver's result object: exactly the keys
// correct, attempted, failed and metrics, with every end-to-end metric
// (untraced run) or every per-layer metric (traced run).
func printResultLine(w io.Writer, rec *runRecord) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range declsFor(rec.Trace) {
		m := rec.Metrics[d.Name]
		metrics[d.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
