package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Tenant is one API client population: a name (metric label), the API
// key that resolves to it, and its admission limit.
type Tenant struct {
	// Name labels the tenant in metrics and logs.
	Name string
	// Key is the API key presented as `Authorization: Bearer <key>` or
	// `X-API-Key: <key>`. An empty key marks the open tenant: requests
	// carrying no key resolve to it.
	Key string
	// Limit is the tenant's token bucket (zero Rate = unlimited).
	Limit Limit
}

// Tenants resolves API keys to tenants.
type Tenants struct {
	byKey map[string]*Tenant
	open  *Tenant
}

// NewTenants builds a resolver. At most one tenant may have an empty
// key (the open tenant); duplicate keys are an error, and so is a NaN or
// infinite Rate or Burst (a NaN bucket never refills, and a NaN rate
// reads as unlimited). An empty list yields a resolver admitting every
// request as the unlimited tenant "default" — single-user mode.
func NewTenants(list []Tenant) (*Tenants, error) {
	t := &Tenants{byKey: make(map[string]*Tenant)}
	for i := range list {
		ten := list[i]
		if ten.Name == "" {
			return nil, fmt.Errorf("serve: tenant %d has no name", i)
		}
		if l := ten.Limit; math.IsNaN(l.Rate) || math.IsInf(l.Rate, 0) || math.IsNaN(l.Burst) || math.IsInf(l.Burst, 0) {
			return nil, fmt.Errorf("serve: tenant %q: rate %v and burst %v must be finite", ten.Name, l.Rate, l.Burst)
		}
		if ten.Key == "" {
			if t.open != nil {
				return nil, fmt.Errorf("serve: tenants %q and %q both have no key", t.open.Name, ten.Name)
			}
			t.open = &ten
			continue
		}
		if _, dup := t.byKey[ten.Key]; dup {
			return nil, fmt.Errorf("serve: duplicate API key for tenant %q", ten.Name)
		}
		t.byKey[ten.Key] = &ten
	}
	if t.open == nil && len(t.byKey) == 0 {
		t.open = &Tenant{Name: "default"}
	}
	return t, nil
}

// All returns every configured tenant (for limiter seeding).
func (t *Tenants) All() []Tenant {
	out := make([]Tenant, 0, len(t.byKey)+1)
	if t.open != nil {
		out = append(out, *t.open)
	}
	for _, ten := range t.byKey {
		out = append(out, *ten)
	}
	return out
}

// Resolve maps a request to its tenant: the Bearer token or X-API-Key
// header when present, the open tenant when absent. ok is false for an
// unknown key, or for a keyless request when no open tenant exists.
func (t *Tenants) Resolve(r *http.Request) (*Tenant, bool) {
	key := ""
	if auth := r.Header.Get("Authorization"); auth != "" {
		key, _ = strings.CutPrefix(auth, "Bearer ")
	}
	if key == "" {
		// The canonical spelling of X-API-Key: Get would allocate to
		// canonicalize any other on every keyless request.
		key = r.Header.Get("X-Api-Key")
	}
	if key == "" {
		if t.open != nil {
			return t.open, true
		}
		return nil, false
	}
	ten, ok := t.byKey[key]
	return ten, ok
}

// APIConfig wires an API handler.
type APIConfig struct {
	// Registry hosts the instances (required).
	Registry *Registry
	// Tenants resolves API keys (required; NewTenants(nil) for open mode).
	Tenants *Tenants
	// Limiter admits requests per tenant (nil = no rate limiting).
	Limiter *Limiter
	// Metrics records agg_serve_* series (nil = none).
	Metrics *Metrics
	// Logger receives request errors (default slog.Default).
	Logger *slog.Logger
}

// API is the versioned HTTP JSON handler: POST /v1/instances,
// GET /v1/instances, GET|DELETE /v1/instances/{name},
// POST /v1/instances/{name}/values, GET /v1/instances/{name}/estimate.
// Every request is tenant-resolved and rate-limited before routing.
type API struct {
	cfg APIConfig
	mux *http.ServeMux
}

// NewAPI builds the handler.
func NewAPI(cfg APIConfig) *API {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	a := &API{cfg: cfg, mux: http.NewServeMux()}
	a.mux.HandleFunc("POST /v1/instances", a.create)
	a.mux.HandleFunc("GET /v1/instances", a.list)
	a.mux.HandleFunc("GET /v1/instances/{name}", a.get)
	a.mux.HandleFunc("DELETE /v1/instances/{name}", a.delete)
	a.mux.HandleFunc("POST /v1/instances/{name}/values", a.feed)
	a.mux.HandleFunc("GET /v1/instances/{name}/estimate", a.estimate)
	return a
}

// ServeHTTP authenticates, admits and routes one request.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tenant, ok := a.cfg.Tenants.Resolve(r)
	if !ok {
		writeError(w, http.StatusUnauthorized, "unknown or missing API key")
		return
	}
	a.cfg.Metrics.Request(tenant.Name)
	if a.cfg.Limiter != nil {
		if admitted, retry := a.cfg.Limiter.Allow(tenant.Name); !admitted {
			a.cfg.Metrics.Reject(tenant.Name)
			secs := int(math.Ceil(retry.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("tenant %q over its request rate; retry after %ds", tenant.Name, secs))
			return
		}
	}
	r.Header.Set(tenantHeader, tenant.Name)
	a.mux.ServeHTTP(w, r)
	a.cfg.Metrics.ObserveLatency(time.Since(start))
}

// tenantHeader carries the resolved tenant name from the admission
// wrapper to the route handlers (never read from the client: ServeHTTP
// overwrites it unconditionally).
const tenantHeader = "X-Resolved-Tenant"

// instanceInfo is the JSON shape of one instance in create/list/get
// responses.
type instanceInfo struct {
	InstanceConfig
	Tenant     string    `json:"tenant"`
	CreatedAt  time.Time `json:"created_at"`
	Generation uint64    `json:"generation"`
	Slots      int       `json:"slots"`
}

func info(in *Instance) instanceInfo {
	return instanceInfo{
		InstanceConfig: in.Config(),
		Tenant:         in.Tenant(),
		CreatedAt:      in.CreatedAt(),
		Generation:     in.generationAt(time.Now()),
		Slots:          in.Slots(),
	}
}

func (a *API) create(w http.ResponseWriter, r *http.Request) {
	var cfg InstanceConfig
	if err := decodeJSON(r, &cfg); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	inst, err := a.cfg.Registry.Create(cfg, r.Header.Get(tenantHeader))
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	a.cfg.Metrics.SetInstances(a.cfg.Registry.Len())
	writeJSON(w, http.StatusCreated, info(inst))
}

func (a *API) list(w http.ResponseWriter, r *http.Request) {
	insts := a.cfg.Registry.List()
	out := make([]instanceInfo, 0, len(insts))
	for _, in := range insts {
		out = append(out, info(in))
	}
	writeJSON(w, http.StatusOK, map[string]any{"instances": out})
}

// lookup resolves the {name} path segment, counting the admitted
// instance-addressed request (routing has bound PathValue by now —
// the admission wrapper runs before the route match and cannot).
func (a *API) lookup(r *http.Request) (*Instance, error) {
	name := r.PathValue("name")
	a.cfg.Metrics.InstanceRequest(name)
	return a.cfg.Registry.Get(name)
}

func (a *API) get(w http.ResponseWriter, r *http.Request) {
	inst, err := a.lookup(r)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, info(inst))
}

func (a *API) delete(w http.ResponseWriter, r *http.Request) {
	a.cfg.Metrics.InstanceRequest(r.PathValue("name"))
	if err := a.cfg.Registry.Delete(r.PathValue("name")); err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	a.cfg.Metrics.SetInstances(a.cfg.Registry.Len())
	w.WriteHeader(http.StatusNoContent)
}

// feedRequest is the POST /v1/instances/{name}/values body: positional
// values, named slots, or both; reset clears the store first.
type feedRequest struct {
	Values []float64          `json:"values"`
	Slots  map[string]float64 `json:"slots"`
	Reset  bool               `json:"reset"`
}

func (a *API) feed(w http.ResponseWriter, r *http.Request) {
	inst, err := a.lookup(r)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	var req feedRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Values) == 0 && len(req.Slots) == 0 && !req.Reset {
		writeError(w, http.StatusBadRequest, "feed carries no values")
		return
	}
	for _, v := range req.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			writeError(w, http.StatusBadRequest, "values must be finite")
			return
		}
	}
	for k, v := range req.Slots {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("slot %q must be finite", k))
			return
		}
	}
	slots, gen := inst.Feed(req.Values, req.Slots, req.Reset)
	// The fed values are sampled at the next epoch restart: generation
	// gen+1 is the first whose estimate reflects this feed.
	writeJSON(w, http.StatusOK, map[string]any{
		"slots":              slots,
		"generation":         gen,
		"visible_generation": gen + 1,
	})
}

func (a *API) estimate(w http.ResponseWriter, r *http.Request) {
	inst, err := a.lookup(r)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	est := inst.Estimate()
	a.cfg.Metrics.ObserveEstimate(est)
	writeJSON(w, http.StatusOK, est)
}

// statusFor maps registry errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists):
		return http.StatusConflict
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrLimit):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

// maxBodyBytes bounds request bodies: the largest legitimate feed is a
// few thousand floats.
const maxBodyBytes = 1 << 20

// decodeJSON reads a body that is exactly one JSON value: unknown fields
// and anything but whitespace after the value are errors, so a second
// object concatenated to the first is rejected rather than ignored.
func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("invalid request body: data after the JSON value")
	}
	return nil
}

// writeJSON encodes v before it sends the status, so a value JSON cannot
// hold (a NaN or an infinity) answers 500 instead of code and no body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		// A map of strings always encodes.
		body, _ = json.Marshal(map[string]string{"error": "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(body, '\n'))
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
