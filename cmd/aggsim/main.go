// Command aggsim regenerates the evaluation figures of the DSN'04 paper
// "Robust Aggregation Protocols for Large-Scale Overlay Networks" with
// the cycle-driven simulator.
//
// Usage:
//
//	aggsim -list
//	aggsim -exp fig2                  # paper-scale (10^5 nodes, 50 reps)
//	aggsim -exp fig7b -n 10000 -reps 10
//	aggsim -exp all -n 10000 -reps 5 -csv out.csv
//	aggsim -exp all -engine sharded -shards 8   # whole evaluation, sharded
//
// Without -n/-reps each experiment runs at the paper's full scale, which
// can take a long time for the 10^5–10^6-node sweeps; pass -n to scale
// down (the paper itself shows the behaviour is size-independent).
//
// Every experiment honors -engine, which chooses the one simulation
// engine's shard count: "serial" is one shard, "sharded" is -shards
// shards across the cores, the default "auto" shards sweeps of 20k nodes
// and up; an explicit choice always wins, and the choice each figure ran
// with is echoed with its result.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"antientropy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aggsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		expID    = flag.String("exp", "", "experiment id (see -list), or \"all\"")
		n        = flag.Int("n", 0, "override network size (0 = paper scale)")
		reps     = flag.Int("reps", 0, "override repetition count (0 = paper scale)")
		seed     = flag.Uint64("seed", 0, "override master seed (0 = default)")
		engine   = flag.String("engine", "auto", "shard count for every experiment's simulation runs: serial (one shard), sharded (-shards shards across the cores), or auto (sharded at 20k nodes and up)")
		shards   = flag.Int("shards", 0, "shard count K for -engine sharded (0 = GOMAXPROCS); results are deterministic per seed + shard count")
		csvPath  = flag.String("csv", "", "also write results as CSV to this file")
		showPlot = flag.Bool("plot", false, "render an ASCII plot of each figure")
	)
	flag.Parse()

	if *list || *expID == "" {
		fmt.Println("available experiments:")
		for _, e := range antientropy.Experiments() {
			fmt.Printf("  %-24s %s\n", e.ID, e.Description)
		}
		if *expID == "" && !*list {
			return fmt.Errorf("no experiment selected (use -exp)")
		}
		return nil
	}

	var ids []string
	if *expID == "all" {
		for _, e := range antientropy.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = []string{*expID}
	}

	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *csvPath, err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "aggsim: closing csv:", err)
			}
		}()
		csvFile = f
	}

	opts := antientropy.ExperimentOptions{N: *n, Reps: *reps, Seed: *seed, Engine: *engine, Shards: *shards}
	for i, id := range ids {
		start := time.Now()
		res, err := antientropy.RunExperiment(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(res.String())
		if *showPlot {
			rendered, err := res.Plot()
			if err != nil {
				fmt.Fprintf(os.Stderr, "aggsim: plotting %s: %v\n", id, err)
			} else {
				fmt.Println(rendered)
			}
		}
		fmt.Printf("(%s completed in %v on the %s engine)\n\n", id, time.Since(start).Round(time.Millisecond), res.Engine)
		if csvFile != nil {
			// One header per file: the first result writes it, the rest
			// append their rows.
			write := res.WriteCSVRows
			if i == 0 {
				write = res.WriteCSV
			}
			if err := write(csvFile); err != nil {
				return fmt.Errorf("writing csv: %w", err)
			}
		}
	}
	return nil
}
