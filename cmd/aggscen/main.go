// Command aggscen lists, runs and compares declarative scenarios:
// scripted churn waves, correlated crashes, flash crowds, network
// partitions, loss/delay bursts and value dynamics, executed against
// the deterministic cycle-driven simulator, a fleet of live agent nodes
// over the in-memory transport, or a fleet on real UDP loopback sockets.
//
// The simulator executor has one engine; -engine chooses its shard count
// K: "serial" is K = 1 (one global exchange order, bit-deterministic from
// the seed alone), "sharded" is K = -shards run across the cores
// (deterministic per seed + shard count, built for 10⁵–10⁶-node runs).
// The default -engine auto shards scenarios of 20k node slots and up; an
// explicit -engine serial or -engine sharded always wins, and the choice
// is echoed in the per-run summary ("sim" vs "sim-sharded").
//
// The UDP executor runs the fleet on one UDP mux in this process, which
// spreads the nodes' endpoints over its own sockets; partitions and loss
// are injected through the mux's drop rules, so the same scripts apply to
// all three executors.
//
// Usage:
//
//	aggscen -list
//	aggscen -run partition-heal -n 1000            # sim + live, CSV
//	aggscen -run loss-burst -executor sim -format json
//	aggscen -run partition-heal -executor udp -n 48 -cycle-len 25ms
//	aggscen -run partition-heal -n 100000 -executor sim -engine sharded -shards 8
//	aggscen -file my-scenario.json -out metrics.csv
//	aggscen -compare steady-churn,loss-burst,partition-heal
//	aggscen -compare partition-heal -executor both  # sim vs live divergence
//	aggscen -compare partition-heal -executor udp   # sim vs udp divergence
//	aggscen -show partition-heal                   # print the JSON script
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"antientropy"
	"antientropy/internal/cliutil"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// The simulator does not watch ctx: a first signal cancels the fleet
	// executors and restores the default handling, so a second one ends
	// a long simulation.
	context.AfterFunc(ctx, stop)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "aggscen:", err)
		os.Exit(1)
	}
}

// run is the whole command: tables, CSV and JSON go to stdout, progress,
// summaries and logs to stderr.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aggscen", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list the canned scenarios and exit")
		name     = fs.String("run", "", "run a canned scenario by name")
		file     = fs.String("file", "", "run a scenario from a JSON file")
		show     = fs.String("show", "", "print a canned scenario as JSON and exit")
		compare  = fs.String("compare", "", "comma-separated scenario names to run and summarize (add -executor both/udp/all for sim-vs-fleet divergence)")
		n        = fs.Int("n", 0, "override the network size")
		cycles   = fs.Int("cycles", 0, "override the run length")
		seed     = fs.Uint64("seed", 0, "override the scenario seed")
		executor = fs.String("executor", "", "executors to use: sim, live, udp, both (= sim,live), all, or a comma list (default: both for -run, sim for -compare)")
		engine   = fs.String("engine", "auto", "sim executor shard count: serial (one shard), sharded (-shards shards across the cores), or auto (sharded at 20k slots and up)")
		shards   = fs.Int("shards", 0, "shard count K for -engine sharded (0 = GOMAXPROCS); results are deterministic per seed + shard count")
		viewCap  = fs.Int("view-cap", 0, "cap the piggybacked membership view per exchange datagram, in bytes (live/udp executors; 0 = unlimited)")
		format   = fs.String("format", "csv", "metric output format: csv or json")
		outPath  = fs.String("out", "", "write metrics to this file instead of stdout")
		cycleLen = fs.Duration("cycle-len", 0, "live/udp executors: wall-clock cycle length (0 = scale with fleet size and cores)")
	)
	// One registry, trace ring and timeline (and one /metrics endpoint)
	// serve every executor of the invocation; a trace ring is dumped to
	// stderr at the end of the run.
	tf := cliutil.RegisterTelemetry(fs, 512)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tel, err := tf.Build(false)
	if err != nil {
		return err
	}
	logger, reg, ring, timeline := tel.Logger, tel.Registry, tel.Trace, tel.Timeline
	if ring != nil {
		defer func() {
			logger.Info("dumping exchange trace", "retained", len(ring.Entries()), "total", ring.Total())
			_ = ring.WriteJSON(os.Stderr)
		}()
	}
	srv, err := tel.Serve()
	if err != nil {
		return err
	}
	if srv != nil {
		defer srv.Close()
		logger.Info("telemetry serving", "url", fmt.Sprintf("http://%s/metrics", srv.Addr()))
	}

	simOpts := antientropy.ScenarioSimOptions{Engine: *engine, Shards: *shards, Obs: reg,
		Timeline: timeline, Logger: logger}
	fleetOpts := antientropy.ScenarioFleetOptions{CycleLen: *cycleLen, Obs: reg,
		Trace: ring, Timeline: timeline, Logger: logger}
	switch {
	case *list:
		return listScenarios(stdout)
	case *show != "":
		return showScenario(stdout, *show)
	case *compare != "":
		extras, err := parseExecutors(*executor, "sim")
		if err != nil {
			return err
		}
		return compareScenarios(ctx, stdout, strings.Split(*compare, ","), *n, *cycles, *viewCap, *seed, extras, simOpts, fleetOpts)
	case *name != "" || *file != "":
		sc, err := loadScenario(*name, *file)
		if err != nil {
			return err
		}
		if *n > 0 {
			sc.N = *n
		}
		if *cycles > 0 {
			sc.Cycles = *cycles
		}
		if *seed != 0 {
			sc.Seed = *seed
		}
		if *viewCap > 0 {
			sc.ViewCapBytes = *viewCap
		}
		execs, err := parseExecutors(*executor, "both")
		if err != nil {
			return err
		}
		return runScenario(ctx, stdout, sc, execs, *format, *outPath, logger, simOpts, fleetOpts)
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do (use -list, -run, -file, -show or -compare)")
	}
}

// parseExecutors expands an -executor value into an ordered, deduplicated
// executor list. "both" is sim+live, "all" is sim+live+udp.
func parseExecutors(value, def string) ([]string, error) {
	if value == "" {
		value = def
	}
	switch value {
	case "both":
		value = "sim,live"
	case "all":
		value = "sim,live,udp"
	}
	var execs []string
	seen := make(map[string]bool)
	for _, raw := range strings.Split(value, ",") {
		e := strings.TrimSpace(raw)
		if e == "" || seen[e] {
			continue
		}
		switch e {
		case "sim", "live", "udp":
		default:
			return nil, fmt.Errorf("unknown executor %q (want sim, live, udp, both or all)", e)
		}
		seen[e] = true
		execs = append(execs, e)
	}
	if len(execs) == 0 {
		return nil, fmt.Errorf("no executor selected")
	}
	return execs, nil
}

func listScenarios(stdout io.Writer) error {
	fmt.Fprintln(stdout, "canned scenarios:")
	for _, sc := range antientropy.CannedScenarios() {
		fmt.Fprintf(stdout, "  %-18s n=%-5d cycles=%-4d %s\n", sc.Name, sc.N, sc.Cycles, sc.Description)
	}
	return nil
}

func showScenario(stdout io.Writer, name string) error {
	sc, err := antientropy.ScenarioByName(name)
	if err != nil {
		return err
	}
	data, err := sc.JSON()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "aggscen: scenario %s, schema version %d (current: %d)\n",
		sc.Name, sc.Version, antientropy.ScenarioSchemaVersion)
	fmt.Fprintln(stdout, string(data))
	return nil
}

func loadScenario(name, file string) (antientropy.Scenario, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return antientropy.Scenario{}, err
		}
		defer f.Close()
		return antientropy.LoadScenario(f)
	}
	return antientropy.ScenarioByName(name)
}

// runExecutor dispatches one scenario run to the named executor.
func runExecutor(ctx context.Context, sc antientropy.Scenario, executor string, simOpts antientropy.ScenarioSimOptions, fleetOpts antientropy.ScenarioFleetOptions) (*antientropy.ScenarioRun, error) {
	switch executor {
	case "sim":
		return antientropy.RunScenarioSimWith(sc, simOpts)
	case "live":
		return antientropy.RunScenarioLive(ctx, sc, fleetOpts)
	case "udp":
		return antientropy.RunScenarioUDP(ctx, sc, fleetOpts)
	default:
		return nil, fmt.Errorf("unknown executor %q", executor)
	}
}

func runScenario(ctx context.Context, stdout io.Writer, sc antientropy.Scenario, executors []string, format, outPath string, logger *slog.Logger, simOpts antientropy.ScenarioSimOptions, fleetOpts antientropy.ScenarioFleetOptions) error {
	out := stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "aggscen: closing output:", err)
			}
		}()
		out = f
	}

	var runs []*antientropy.ScenarioRun
	for _, executor := range executors {
		start := time.Now()
		var res *antientropy.ScenarioRun
		// Attacked scenarios run against their honest twin on the
		// simulator, so the induced estimate bias is reported alongside
		// the usual summary (the twin shares the seed and defense).
		if executor == "sim" && sc.HasAdversary() {
			twin, err := antientropy.RunScenarioSimWithTwin(sc, simOpts)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "aggscen: %s\n", twin.Bias)
			res = twin.Attacked
		} else {
			var err error
			res, err = runExecutor(ctx, sc, executor, simOpts, fleetOpts)
			if err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "aggscen: %s (%v)\n", res.String(), time.Since(start).Round(time.Millisecond))
		runs = append(runs, res)
	}
	// With several executors, report how far each fleet drifts from the
	// first-listed one (normally the simulator's prediction).
	for i := 1; i < len(runs); i++ {
		logger.Info("executor divergence", "divergence", antientropy.DivergeScenarioRuns(runs[0], runs[i]).String())
	}

	switch format {
	case "csv":
		if _, err := fmt.Fprintln(out, antientropy.ScenarioCSVHeader); err != nil {
			return err
		}
		for _, r := range runs {
			if err := r.WriteCSVRows(out); err != nil {
				return err
			}
		}
	case "json":
		for _, r := range runs {
			if err := r.WriteJSON(out); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown format %q (want csv or json)", format)
	}
	return nil
}

// compareScenarios summarizes each scenario on the simulator executor;
// additional executors (live, udp) run side by side, and the per-cycle
// divergence of each fleet's metric stream from the simulator's is
// reported (they share the CSV schema and the scripted value signal, so
// the difference isolates executor effects).
func compareScenarios(ctx context.Context, stdout io.Writer, names []string, n, cycles, viewCap int, seed uint64, executors []string, simOpts antientropy.ScenarioSimOptions, fleetOpts antientropy.ScenarioFleetOptions) error {
	// The simulator is the comparison baseline and always runs first.
	fleets := make([]string, 0, len(executors))
	for _, e := range executors {
		if e != "sim" {
			fleets = append(fleets, e)
		}
	}
	fmt.Fprintf(stdout, "%-18s %-12s %6s %7s %9s %9s %12s %10s\n",
		"scenario", "executor", "n", "cycles", "min-alive", "end-alive", "final-relerr", "messages")
	for _, raw := range names {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		sc, err := antientropy.ScenarioByName(name)
		if err != nil {
			return err
		}
		if n > 0 {
			sc.N = n
		}
		if cycles > 0 {
			sc.Cycles = cycles
		}
		if seed != 0 {
			sc.Seed = seed
		}
		if viewCap > 0 {
			sc.ViewCapBytes = viewCap
		}
		simRes, err := antientropy.RunScenarioSimWith(sc, simOpts)
		if err != nil {
			return err
		}
		printCompareRow(stdout, sc, simRes)
		for _, executor := range fleets {
			res, err := runExecutor(ctx, sc, executor, simOpts, fleetOpts)
			if err != nil {
				return err
			}
			printCompareRow(stdout, sc, res)
			fmt.Fprintf(stdout, "  divergence: %s\n", antientropy.DivergeScenarioRuns(simRes, res))
		}
	}
	return nil
}

func printCompareRow(stdout io.Writer, sc antientropy.Scenario, res *antientropy.ScenarioRun) {
	f := res.Final()
	fmt.Fprintf(stdout, "%-18s %-12s %6d %7d %9d %9d %12.2e %10d\n",
		sc.Name, res.Executor, sc.N, sc.Cycles, res.MinAlive(), f.Alive, f.RelError, res.TotalMessages())
}
