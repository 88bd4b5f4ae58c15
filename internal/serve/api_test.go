package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"antientropy/internal/obs"
	"antientropy/internal/race"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestAPI builds an API over a fresh registry. tenants may be nil
// (open mode).
func newTestAPI(t *testing.T, tenants []Tenant, limiter *Limiter) (*API, *Registry, *obs.Registry) {
	t.Helper()
	reg := NewRegistry(RegistryConfig{Logger: quietLogger()})
	t.Cleanup(reg.Close)
	resolved, err := NewTenants(tenants)
	if err != nil {
		t.Fatalf("NewTenants: %v", err)
	}
	metricsReg := obs.NewRegistry()
	api := NewAPI(APIConfig{
		Registry: reg,
		Tenants:  resolved,
		Limiter:  limiter,
		Metrics:  NewMetrics(metricsReg),
		Logger:   quietLogger(),
	})
	return api, reg, metricsReg
}

func doJSON(t *testing.T, api *API, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	api.ServeHTTP(w, req)
	return w
}

func TestAPITable(t *testing.T) {
	api, _, _ := newTestAPI(t, nil, nil)

	// Fast schedule so the feed/query steps below don't wait on defaults.
	create := `{"name":"temps","function":"average","fleet_size":4,"epoch_ms":100}`

	steps := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
	}{
		{"create", "POST", "/v1/instances", create, http.StatusCreated},
		{"duplicate name", "POST", "/v1/instances", create, http.StatusConflict},
		{"bad function", "POST", "/v1/instances", `{"name":"x","function":"median"}`, http.StatusBadRequest},
		{"bad name", "POST", "/v1/instances", `{"name":"No Spaces!"}`, http.StatusBadRequest},
		{"bad json", "POST", "/v1/instances", `{"name":`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/instances", `{"name":"y","bogus":1}`, http.StatusBadRequest},
		{"oversized fleet", "POST", "/v1/instances", `{"name":"big","fleet_size":100000}`, http.StatusTooManyRequests},
		{"list", "GET", "/v1/instances", "", http.StatusOK},
		{"get", "GET", "/v1/instances/temps", "", http.StatusOK},
		{"get unknown", "GET", "/v1/instances/nope", "", http.StatusNotFound},
		{"feed", "POST", "/v1/instances/temps/values", `{"values":[1,2,3]}`, http.StatusOK},
		{"feed unknown", "POST", "/v1/instances/nope/values", `{"values":[1]}`, http.StatusNotFound},
		{"feed empty", "POST", "/v1/instances/temps/values", `{}`, http.StatusBadRequest},
		{"feed non-finite", "POST", "/v1/instances/temps/values", `{"values":[1e999]}`, http.StatusBadRequest},
		{"estimate", "GET", "/v1/instances/temps/estimate", "", http.StatusOK},
		{"estimate unknown", "GET", "/v1/instances/nope/estimate", "", http.StatusNotFound},
		{"delete", "DELETE", "/v1/instances/temps", "", http.StatusNoContent},
		{"delete again", "DELETE", "/v1/instances/temps", "", http.StatusNotFound},
		{"estimate after delete", "GET", "/v1/instances/temps/estimate", "", http.StatusNotFound},
	}
	for _, step := range steps {
		w := doJSON(t, api, step.method, step.path, step.body, nil)
		if w.Code != step.wantStatus {
			t.Fatalf("%s: %s %s = %d, want %d (body %s)",
				step.name, step.method, step.path, w.Code, step.wantStatus, w.Body.String())
		}
	}
}

// TestAPIRejectsTrailingData: a body is one JSON value. A second object
// after it, or any other trailing data, answers 400 and changes nothing;
// trailing whitespace is fine.
func TestAPIRejectsTrailingData(t *testing.T) {
	api, _, _ := newTestAPI(t, nil, nil)
	steps := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"create two objects", "POST", "/v1/instances", `{"name":"a","fleet_size":2}{"name":"b"}`, http.StatusBadRequest},
		{"nothing created", "GET", "/v1/instances/a", "", http.StatusNotFound},
		{"create trailing garbage", "POST", "/v1/instances", `{"name":"a","fleet_size":2} x`, http.StatusBadRequest},
		{"create trailing whitespace", "POST", "/v1/instances", "{\"name\":\"a\",\"fleet_size\":2} \n", http.StatusCreated},
		{"feed two objects", "POST", "/v1/instances/a/values", `{"values":[1,2]}{"reset":true,"bogus":1} trailing garbage`, http.StatusBadRequest},
		{"feed trailing array", "POST", "/v1/instances/a/values", `{"values":[1,2]}[]`, http.StatusBadRequest},
		{"feed trailing whitespace", "POST", "/v1/instances/a/values", "{\"values\":[1]}\n\t ", http.StatusOK},
	}
	for _, step := range steps {
		w := doJSON(t, api, step.method, step.path, step.body, nil)
		if w.Code != step.wantStatus {
			t.Fatalf("%s: %s %s = %d, want %d (body %s)",
				step.name, step.method, step.path, w.Code, step.wantStatus, w.Body.String())
		}
	}
	// Only the whitespace-trailed feed reached the instance: one slot.
	var resp struct {
		Slots int `json:"slots"`
	}
	w := doJSON(t, api, "GET", "/v1/instances/a", "", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("get: %v (%s)", err, w.Body.String())
	}
	if resp.Slots != 1 {
		t.Fatalf("the instance holds %d slots, want 1: a rejected feed was applied", resp.Slots)
	}
}

func TestAPIFeedReportsGenerations(t *testing.T) {
	api, _, _ := newTestAPI(t, nil, nil)
	w := doJSON(t, api, "POST", "/v1/instances",
		`{"name":"g","fleet_size":2,"epoch_ms":200}`, nil)
	if w.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", w.Code, w.Body.String())
	}
	w = doJSON(t, api, "POST", "/v1/instances/g/values", `{"values":[5,7]}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("feed = %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Slots             int    `json:"slots"`
		Generation        uint64 `json:"generation"`
		VisibleGeneration uint64 `json:"visible_generation"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("feed response: %v", err)
	}
	if resp.Slots != 2 {
		t.Fatalf("slots = %d, want 2", resp.Slots)
	}
	if resp.VisibleGeneration != resp.Generation+1 {
		t.Fatalf("visible_generation = %d, want generation %d + 1",
			resp.VisibleGeneration, resp.Generation)
	}
}

func TestAPITenantAuth(t *testing.T) {
	tenants := []Tenant{
		{Name: "alpha", Key: "key-a"},
		{Name: "beta", Key: "key-b"},
	}
	api, _, _ := newTestAPI(t, tenants, nil)

	// No open tenant configured: keyless and wrong-key requests get 401.
	if w := doJSON(t, api, "GET", "/v1/instances", "", nil); w.Code != http.StatusUnauthorized {
		t.Fatalf("keyless request = %d, want 401", w.Code)
	}
	wrong := map[string]string{"X-API-Key": "nope"}
	if w := doJSON(t, api, "GET", "/v1/instances", "", wrong); w.Code != http.StatusUnauthorized {
		t.Fatalf("wrong key = %d, want 401", w.Code)
	}
	bearer := map[string]string{"Authorization": "Bearer key-a"}
	if w := doJSON(t, api, "GET", "/v1/instances", "", bearer); w.Code != http.StatusOK {
		t.Fatalf("bearer key = %d, want 200", w.Code)
	}
	header := map[string]string{"X-API-Key": "key-b"}
	if w := doJSON(t, api, "GET", "/v1/instances", "", header); w.Code != http.StatusOK {
		t.Fatalf("X-API-Key = %d, want 200", w.Code)
	}
	// A client must not be able to spoof the resolved-tenant header.
	spoof := map[string]string{"X-Resolved-Tenant": "alpha"}
	if w := doJSON(t, api, "GET", "/v1/instances", "", spoof); w.Code != http.StatusUnauthorized {
		t.Fatalf("spoofed tenant header = %d, want 401", w.Code)
	}
}

// TestNewTenantsRejectsNonFiniteLimit: a NaN or infinite rate or burst is
// refused with the tenant's name. Accepted, a NaN burst leaves a bucket
// that never refills (every request refused, with a Retry-After of
// -2 562 047 h), and a NaN rate reads as unlimited. A negative rate keeps
// its meaning, unlimited.
func TestNewTenantsRejectsNonFiniteLimit(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		limit Limit
		ok    bool
	}{
		{Limit{Rate: 1, Burst: nan}, false},
		{Limit{Rate: nan, Burst: 2}, false},
		{Limit{Rate: inf, Burst: 2}, false},
		{Limit{Rate: -inf, Burst: 2}, false},
		{Limit{Rate: 1, Burst: inf}, false},
		{Limit{Rate: 1, Burst: -inf}, false},
		{Limit{Rate: -1, Burst: 2}, true},
		{Limit{}, true},
		{Limit{Rate: 0.02, Burst: 2}, true},
	} {
		_, err := NewTenants([]Tenant{{Name: "alpha", Key: "key-a"}, {Name: "beta", Key: "key-b", Limit: tc.limit}})
		if tc.ok && err != nil {
			t.Errorf("%+v: %v", tc.limit, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), `"beta"`)) {
			t.Errorf("%+v: got %v, want an error naming tenant beta", tc.limit, err)
		}
	}
}

// TestResolveKeylessAllocs: a request without a key resolves to the open
// tenant without allocating. Asking Header.Get for a non-canonical name
// such as X-API-Key allocates on every such request.
func TestResolveKeylessAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	tenants, err := NewTenants(nil)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v1/instances", nil)
	if got := testing.AllocsPerRun(100, func() {
		if _, ok := tenants.Resolve(req); !ok {
			t.Fatal("keyless request not resolved to the open tenant")
		}
	}); got != 0 {
		t.Errorf("Resolve allocates %.1f times per keyless request", got)
	}
}

// TestEstimateWithoutReportersEncodes: a fleet where no node reports — a
// COUNT epoch that elected no leader — still answers a decodable body
// with ok false, and a value JSON cannot hold answers 500 with an error
// instead of 200 and nothing.
func TestEstimateWithoutReportersEncodes(t *testing.T) {
	_, spread, reporting, _, _ := fleetMoments(&fleet{})
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, Estimate{RelSpread: spread, OK: reporting > 0})
	var est Estimate
	if err := json.Unmarshal(w.Body.Bytes(), &est); w.Code != http.StatusOK || err != nil || est.OK {
		t.Fatalf("no reporters: code %d, body %q (%v)", w.Code, w.Body.String(), err)
	}
	w = httptest.NewRecorder()
	writeJSON(w, http.StatusOK, Estimate{RelSpread: math.Inf(1)})
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); w.Code != http.StatusInternalServerError || err != nil || body["error"] == "" {
		t.Fatalf("+Inf spread: code %d, body %q (%v)", w.Code, w.Body.String(), err)
	}
}

func TestAPIAdmissionControl(t *testing.T) {
	tenants := []Tenant{
		{Name: "paid", Key: "key-paid", Limit: Limit{}},
		{Name: "free", Key: "key-free", Limit: Limit{Rate: 0.001, Burst: 2}},
	}
	limiter := NewLimiter()
	clk := &fakeClock{t: time.Unix(2000, 0)}
	limiter.now = clk.now
	for _, ten := range tenants {
		limiter.SetLimit(ten.Name, ten.Limit)
	}
	api, _, metricsReg := newTestAPI(t, tenants, limiter)

	paid := map[string]string{"X-API-Key": "key-paid"}
	free := map[string]string{"X-API-Key": "key-free"}

	// The free tenant burns its burst, then gets 429 with Retry-After.
	for i := 0; i < 2; i++ {
		if w := doJSON(t, api, "GET", "/v1/instances", "", free); w.Code != http.StatusOK {
			t.Fatalf("free burst request %d = %d", i, w.Code)
		}
	}
	w := doJSON(t, api, "GET", "/v1/instances", "", free)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("free over-rate = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After header")
	}

	// The paid tenant is unaffected by the free tenant's rejection.
	for i := 0; i < 20; i++ {
		if w := doJSON(t, api, "GET", "/v1/instances", "", paid); w.Code != http.StatusOK {
			t.Fatalf("paid request %d = %d after free tenant throttled", i, w.Code)
		}
	}

	// Both the received and the rejected request land in the metrics.
	var export strings.Builder
	metricsReg.WritePrometheus(&export)
	text := export.String()
	for _, want := range []string{
		`agg_serve_requests_total{tenant="free"} 3`,
		`agg_serve_rejected_total{tenant="free"} 1`,
		`agg_serve_requests_total{tenant="paid"} 20`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics export missing %q", want)
		}
	}
}

func TestAPIInstanceCapReturns429(t *testing.T) {
	reg := NewRegistry(RegistryConfig{
		Limits: Limits{MaxInstances: 1},
		Logger: quietLogger(),
	})
	t.Cleanup(reg.Close)
	resolved, err := NewTenants(nil)
	if err != nil {
		t.Fatal(err)
	}
	api := NewAPI(APIConfig{Registry: reg, Tenants: resolved, Logger: quietLogger()})
	body := func(name string) string {
		return fmt.Sprintf(`{"name":%q,"fleet_size":2,"epoch_ms":100}`, name)
	}
	if w := doJSON(t, api, "POST", "/v1/instances", body("one"), nil); w.Code != http.StatusCreated {
		t.Fatalf("first create = %d", w.Code)
	}
	if w := doJSON(t, api, "POST", "/v1/instances", body("two"), nil); w.Code != http.StatusTooManyRequests {
		t.Fatalf("create beyond cap = %d, want 429", w.Code)
	}
}

// TestAPICombinerConfig covers the defense half of the instance config:
// a combiner (with clamp bounds where required) is accepted, echoed back
// in GET and list responses, and invalid combinations answer 400.
func TestAPICombinerConfig(t *testing.T) {
	api, _, _ := newTestAPI(t, nil, nil)

	steps := []struct {
		name       string
		body       string
		wantStatus int
	}{
		{"median-of-k", `{"name":"med","fleet_size":4,"epoch_ms":100,"combiner":"median-of-k"}`, http.StatusCreated},
		{"clamped-mean", `{"name":"clamp","fleet_size":4,"epoch_ms":100,"combiner":"clamped-mean","clamp_min":-10,"clamp_max":10}`, http.StatusCreated},
		{"trimmed-mean", `{"name":"trim","fleet_size":4,"epoch_ms":100,"combiner":"trimmed-mean"}`, http.StatusCreated},
		{"unknown combiner", `{"name":"x1","combiner":"vibes"}`, http.StatusBadRequest},
		{"clamp without clamped-mean", `{"name":"x2","combiner":"median-of-k","clamp_min":0,"clamp_max":1}`, http.StatusBadRequest},
		{"clamped-mean missing bounds", `{"name":"x3","combiner":"clamped-mean"}`, http.StatusBadRequest},
		{"clamped-mean inverted range", `{"name":"x4","combiner":"clamped-mean","clamp_min":5,"clamp_max":-5}`, http.StatusBadRequest},
		{"clamp on default combiner", `{"name":"x5","clamp_min":0,"clamp_max":1}`, http.StatusBadRequest},
	}
	for _, step := range steps {
		w := doJSON(t, api, "POST", "/v1/instances", step.body, nil)
		if w.Code != step.wantStatus {
			t.Fatalf("%s: %d, want %d (body %s)", step.name, w.Code, step.wantStatus, w.Body.String())
		}
	}

	// The accepted config is echoed back verbatim on GET.
	w := doJSON(t, api, "GET", "/v1/instances/clamp", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET clamp: %d (body %s)", w.Code, w.Body.String())
	}
	var got struct {
		Combiner string   `json:"combiner"`
		ClampMin *float64 `json:"clamp_min"`
		ClampMax *float64 `json:"clamp_max"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Combiner != "clamped-mean" || got.ClampMin == nil || got.ClampMax == nil ||
		*got.ClampMin != -10 || *got.ClampMax != 10 {
		t.Fatalf("GET did not echo the combiner config: %s", w.Body.String())
	}
	// An instance created without a combiner omits the fields.
	doJSON(t, api, "POST", "/v1/instances", `{"name":"plain","fleet_size":4,"epoch_ms":100}`, nil)
	w = doJSON(t, api, "GET", "/v1/instances/plain", "", nil)
	if strings.Contains(w.Body.String(), "combiner") {
		t.Fatalf("plain instance leaked combiner fields: %s", w.Body.String())
	}
}

// TestAPICombinerInstanceConverges: a defended instance still serves the
// correct aggregate — the combiner changes the merge policy, not the
// fixed point.
func TestAPICombinerInstanceConverges(t *testing.T) {
	api, _, _ := newTestAPI(t, nil, nil)
	create := `{"name":"defended","function":"average","fleet_size":6,"epoch_ms":80,"combiner":"median-of-k"}`
	if w := doJSON(t, api, "POST", "/v1/instances", create, nil); w.Code != http.StatusCreated {
		t.Fatalf("create: %d (body %s)", w.Code, w.Body.String())
	}
	if w := doJSON(t, api, "POST", "/v1/instances/defended/values", `{"values":[2,4,6,8,10,12]}`, nil); w.Code != http.StatusOK {
		t.Fatalf("feed: %d (body %s)", w.Code, w.Body.String())
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		w := doJSON(t, api, "GET", "/v1/instances/defended/estimate", "", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("estimate: %d (body %s)", w.Code, w.Body.String())
		}
		var est struct {
			Estimate  float64 `json:"estimate"`
			Converged bool    `json:"converged"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &est); err != nil {
			t.Fatal(err)
		}
		if est.Converged && est.Estimate > 6.9 && est.Estimate < 7.1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("defended instance never converged near 7: %s", w.Body.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
