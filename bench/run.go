package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// runConfig is what one workload run receives. The seed generates every
// input (values, bootstrap contacts, scenario seed); the program under
// test only ever sees the generated inputs.
type runConfig struct {
	Seed    uint64
	Seconds float64
	Quick   bool     // test scale: small fleets, short phases
	Trace   bool     // traced run: decorators on, spans recorded, ladder timed
	Spans   *spanLog // nil unless Trace
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// check is one correctness assertion of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runRecord is the full result of one workload run (the -out format).
type runRecord struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Trace     int       `json:"trace"`
	Seconds   float64   `json:"seconds"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Checks    []check   `json:"checks"`
	Metrics   metricSet `json:"metrics"`
}

func newRecord(name string, cfg runConfig) *runRecord {
	r := &runRecord{Workload: name, Seed: cfg.Seed, Seconds: cfg.Seconds, Correct: true, Metrics: metricSet{}}
	if cfg.Trace {
		r.Trace = 1
	}
	return r
}

// check records an assertion; a failed one makes the run incorrect.
func (r *runRecord) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Correct = false
	}
}

// usage is one reading of the process-wide meters the per-op metrics are
// deltas of: CPU time from getrusage (user+sys), heap counters from the
// runtime.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// sysMiB is the memory the Go runtime obtained from the OS.
func sysMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// setupReps is how often a workload sets up and tears down before the
// run it measures: setup_s is the median, so one slow start does not
// decide it.
const setupReps = 9

// timeSetup runs setup setupReps times, tearing down all but the last,
// and returns the per-repetition seconds.
func timeSetup[T any](setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var last T
	secs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < setupReps-1 {
			teardown(v)
		} else {
			last = v
		}
	}
	return last, secs, nil
}
