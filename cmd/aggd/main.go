// Command aggd is the aggregation-as-a-service daemon: a long-lived,
// multi-tenant server hosting named aggregation instances — each an
// embedded fleet of live protocol nodes (§4) — behind a versioned HTTP
// JSON API with per-tenant token-bucket admission control.
//
// Start it and create an AVERAGE instance:
//
//	aggd -listen 127.0.0.1:8080
//	curl -X POST localhost:8080/v1/instances \
//	     -d '{"name":"temps","function":"average","fleet_size":16,"epoch_ms":1000}'
//
// Feed values and poll the converged estimate:
//
//	curl -X POST localhost:8080/v1/instances/temps/values -d '{"values":[20.5,21.0,19.5]}'
//	curl localhost:8080/v1/instances/temps/estimate
//
// The API listener also serves /metrics (including the agg_serve_*
// series), /debug/trace, /debug/timeline and /debug/pprof. Tenants are
// declared with repeated -tenant flags; without any, every request is
// admitted as the tenant "default" limited by -rate/-burst.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"antientropy"
	"antientropy/internal/cliutil"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "aggd:", err)
		os.Exit(1)
	}
}

// tenantFlags collects repeated -tenant values of the form
// "name:key:rate:burst" (rate in requests/second; rate 0 = unlimited;
// an empty key makes the tenant the open one keyless clients get).
type tenantFlags []antientropy.ServeTenant

func (t *tenantFlags) String() string { return fmt.Sprintf("%d tenants", len(*t)) }

func (t *tenantFlags) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 4 {
		return fmt.Errorf("want name:key or name:key:rate:burst, got %q", s)
	}
	ten := antientropy.ServeTenant{Name: parts[0], Key: parts[1]}
	if len(parts) == 4 {
		rate, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return fmt.Errorf("tenant %q: bad rate %q", parts[0], parts[2])
		}
		burst, err := strconv.ParseFloat(parts[3], 64)
		if err != nil {
			return fmt.Errorf("tenant %q: bad burst %q", parts[0], parts[3])
		}
		ten.Limit = antientropy.ServeLimit{Rate: rate, Burst: burst}
	}
	*t = append(*t, ten)
	return nil
}

// run is the whole daemon: it parses args, serves until ctx is cancelled,
// then drains. It announces the API's address on stdout; logs go to
// stderr.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aggd", flag.ContinueOnError)
	var tenants tenantFlags
	var (
		listen       = fs.String("listen", "127.0.0.1:8080", "HTTP listen address for the /v1 API and the telemetry surfaces")
		rate         = fs.Float64("rate", 0, "default tenant request rate in req/s when no -tenant is configured (0: unlimited)")
		burst        = fs.Float64("burst", 0, "default tenant burst when no -tenant is configured")
		maxInstances = fs.Int("max-instances", 64, "cap on live instances")
		maxFleet     = fs.Int("max-fleet", 256, "cap on nodes per instance fleet")
	)
	fs.Var(&tenants, "tenant", "tenant spec name:key:rate:burst (repeatable; empty key = open tenant)")
	tf := cliutil.RegisterTelemetry(fs, 256)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tel, err := tf.Build(true)
	if err != nil {
		return err
	}
	logger := tel.Logger

	if len(tenants) == 0 {
		tenants = tenantFlags{{Name: "default", Limit: antientropy.ServeLimit{Rate: *rate, Burst: *burst}}}
	}
	resolved, err := antientropy.NewServeTenants(tenants)
	if err != nil {
		return err
	}
	limiter := antientropy.NewServeLimiter()
	for _, ten := range resolved.All() {
		limiter.SetLimit(ten.Name, ten.Limit)
	}

	registry := antientropy.NewServeRegistry(antientropy.ServeRegistryConfig{
		Limits: antientropy.ServeLimits{MaxInstances: *maxInstances, MaxFleet: *maxFleet},
		Logger: logger,
	})
	api := antientropy.NewServeAPI(antientropy.ServeAPIConfig{
		Registry: registry,
		Tenants:  resolved,
		Limiter:  limiter,
		Metrics:  antientropy.NewServeMetrics(tel.Registry),
		Logger:   logger,
	})

	// One listener, one mux: the /v1 API next to /metrics, /debug/trace,
	// /debug/timeline and /debug/pprof.
	srv, err := tel.ServeWith(*listen, func(mux *http.ServeMux) {
		mux.Handle("/v1/", api)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "aggd serving http://%s/v1/instances, metrics on http://%s/metrics\n", srv.Addr(), srv.Addr())

	// -metrics-addr additionally serves the telemetry surfaces on a
	// second listener, exactly as it does on aggnode — for deployments
	// that keep scrape traffic off the API port.
	extra, err := tel.Serve()
	if err != nil {
		srv.Close()
		return err
	}
	if extra != nil {
		logger.Info("telemetry serving", "url", fmt.Sprintf("http://%s/metrics", extra.Addr()))
	}

	<-ctx.Done()

	// Context-based drain: stop accepting API traffic (in-flight
	// requests get their responses), then tear the fleets down, then
	// release the telemetry listener — never mid-request, never leaking
	// an epoch timer.
	logger.Info("draining")
	if err := srv.Close(); err != nil {
		logger.Error("api server close", "err", err)
	}
	if extra != nil {
		if err := extra.Close(); err != nil {
			logger.Error("telemetry server close", "err", err)
		}
	}
	registry.Close()
	logger.Info("drained", "instances", 0)
	return nil
}
