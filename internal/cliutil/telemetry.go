// Package cliutil holds the daemon wiring the CLI binaries share: the
// -metrics-addr/-trace/-timeline/-log flag set and the telemetry state
// (logger, registry, trace ring, flight recorder) built from it, so
// aggnode, aggd and aggscen expose identical observability surfaces
// without duplicating the plumbing.
package cliutil

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"

	"antientropy/internal/obs"
)

// TelemetryFlags is the shared daemon flag set, registered with
// RegisterTelemetry and resolved with Build after flag.Parse.
type TelemetryFlags struct {
	MetricsAddr *string
	TraceCap    *int
	TimelineCap *int
	LogLevel    *string
}

// RegisterTelemetry registers the shared -metrics-addr, -trace,
// -timeline and -log flags on fs with the given timeline default.
func RegisterTelemetry(fs *flag.FlagSet, timelineDefault int) *TelemetryFlags {
	return &TelemetryFlags{
		MetricsAddr: fs.String("metrics-addr", "",
			"serve Prometheus /metrics, /debug/trace, /debug/timeline and /debug/pprof on this address (empty: off)"),
		TraceCap: fs.Int("trace", 0,
			"retain the newest N exchange trace events (served on /debug/trace; 0: off)"),
		TimelineCap: fs.Int("timeline", timelineDefault,
			"retain the newest N flight-recorder snapshots, one per status tick or scenario cycle (served on /debug/timeline; 0: off)"),
		LogLevel: fs.String("log", "info",
			"stderr log level: debug, info, warn or error"),
	}
}

// Telemetry is the built state: the structured logger plus the metric
// registry and rings selected by the flags.
type Telemetry struct {
	MetricsAddr string
	Logger      *slog.Logger
	// Registry is non-nil when -metrics-addr is set, or when Build was
	// asked to force it (daemons that always export metrics).
	Registry *obs.Registry
	Trace    *obs.TraceRing
	Timeline *obs.Timeline
}

// Build resolves the parsed flags. forceRegistry creates the metric
// registry even without -metrics-addr — for daemons like aggd whose
// primary listener serves /metrics regardless.
func (f *TelemetryFlags) Build(forceRegistry bool) (*Telemetry, error) {
	logger, err := ParseLogLevel(*f.LogLevel)
	if err != nil {
		return nil, err
	}
	t := &Telemetry{MetricsAddr: *f.MetricsAddr, Logger: logger}
	if *f.TraceCap > 0 {
		t.Trace = obs.NewTraceRing(*f.TraceCap)
	}
	if *f.TimelineCap > 0 {
		t.Timeline = obs.NewTimeline(*f.TimelineCap)
	}
	if t.MetricsAddr != "" || forceRegistry {
		t.Registry = obs.NewRegistry()
	}
	return t, nil
}

// Serve starts the telemetry server on -metrics-addr, returning (nil,
// nil) when the flag is unset. Close the server to drain and stop.
func (t *Telemetry) Serve() (*obs.Server, error) {
	if t.MetricsAddr == "" {
		return nil, nil
	}
	return obs.Serve(t.MetricsAddr, t.Registry, t.Trace, t.Timeline)
}

// ServeWith starts the telemetry server on addr with extra routes
// mounted on the same mux — the combined API + telemetry listener.
func (t *Telemetry) ServeWith(addr string, mount func(*http.ServeMux)) (*obs.Server, error) {
	return obs.ServeWith(addr, t.Registry, t.Trace, t.Timeline, mount)
}

// ParseLogLevel builds the stderr structured logger the daemons share,
// replacing ad-hoc stderr prints.
func ParseLogLevel(level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}
