package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler serves the registry in the Prometheus text format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// The response is already partially written; nothing to do
			// but drop the connection.
			return
		}
	})
}

// getOnly rejects non-GET/HEAD methods with 405: the telemetry
// surfaces are read-only and a stray POST should say so rather than
// render a scrape.
func getOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h.ServeHTTP(w, req)
	})
}

// Server is one live telemetry endpoint: /metrics (Prometheus text),
// /debug/trace (stitched exchange spans + raw trace-ring JSON),
// /debug/timeline (per-cycle flight recorder JSON) and /debug/pprof/*
// for the runtime profiles. Create with Serve, stop with Close.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// closeDrain bounds how long Close waits for in-flight scrapes.
const closeDrain = 2 * time.Second

// Serve starts the telemetry HTTP server on addr ("host:port"; ":0"
// picks a free port — read the resolved address back with Addr).
// trace and timeline may be nil; the corresponding endpoint then
// reports itself disabled with a 404.
func Serve(addr string, reg *Registry, trace *TraceRing, timeline *Timeline) (*Server, error) {
	return ServeWith(addr, reg, trace, timeline, nil)
}

// ServeWith is Serve with extra routes: mount (may be nil) registers
// additional handlers on the server's mux before it starts listening —
// how the serving daemon exposes its /v1 API alongside /metrics,
// /debug/trace and /debug/timeline on one listener. Mounted handlers
// do their own method gating; only the telemetry surfaces are
// restricted to GET/HEAD.
func ServeWith(addr string, reg *Registry, trace *TraceRing, timeline *Timeline, mount func(*http.ServeMux)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %q: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", getOnly(Handler(reg)))
	mux.Handle("/debug/trace", getOnly(trace))
	mux.Handle("/debug/timeline", getOnly(timeline))
	// net/http/pprof self-registers on http.DefaultServeMux at import;
	// wire its handlers onto this private mux explicitly so the
	// telemetry port is the only place they are exposed.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if mount != nil {
		mount(mux)
	}
	s := &Server{
		ln: ln,
		srv: &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server, draining in-flight scrapes for up to a
// short deadline before cutting remaining connections: a Prometheus
// scrape racing a scenario teardown gets its response instead of a
// reset.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), closeDrain)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
