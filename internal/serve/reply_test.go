package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"antientropy/internal/race"
)

// nullWriter is a minimal reusable ResponseWriter: it keeps the status
// and the header map and drops the body.
type nullWriter struct {
	h    http.Header
	code int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }

// marshalLine is how every reply body was produced before replies were
// pooled: json.Marshal(v) and a newline.
func marshalLine(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestAPIResponseBodiesUnchanged: every reply body is byte for byte what
// json.Marshal made of the value the route used to encode, followed by
// a newline, and is served as application/json. Each body is decoded
// into that value and marshaled again.
func TestAPIResponseBodiesUnchanged(t *testing.T) {
	api, _, _ := newTestAPI(t, nil, nil)
	check := func(name string, w *httptest.ResponseRecorder, wantCode int, decoded func([]byte) any) {
		t.Helper()
		if w.Code != wantCode {
			t.Fatalf("%s: status %d, want %d (body %s)", name, w.Code, wantCode, w.Body.String())
		}
		if ct := w.Header().Values("Content-Type"); len(ct) != 1 || ct[0] != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", name, ct)
		}
		if got, want := w.Body.String(), marshalLine(t, decoded(w.Body.Bytes())); got != want {
			t.Errorf("%s: body\n%q\nwant\n%q", name, got, want)
		}
	}
	asInfo := func(b []byte) any {
		var v instanceInfo
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	asError := func(b []byte) any {
		var v map[string]string
		if err := json.Unmarshal(b, &v); err != nil || v["error"] == "" {
			t.Fatalf("error body %q: %v", b, err)
		}
		return v
	}

	w := doJSON(t, api, "POST", "/v1/instances",
		`{"name":"bodies","function":"variance","fleet_size":4,"epoch_ms":100,"combiner":"clamped-mean","clamp_min":-5,"clamp_max":50}`, nil)
	check("create", w, http.StatusCreated, asInfo)
	w = doJSON(t, api, "POST", "/v1/instances/bodies/values", `{"values":[1.5,2,3e-7],"slots":{"a<b>&":4}}`, nil)
	check("feed", w, http.StatusOK, func(b []byte) any {
		var v struct {
			Slots             int    `json:"slots"`
			Generation        uint64 `json:"generation"`
			VisibleGeneration uint64 `json:"visible_generation"`
		}
		if err := json.Unmarshal(b, &v); err != nil || v.Slots != 4 {
			t.Fatalf("feed body %q: %v", b, err)
		}
		return map[string]any{"slots": v.Slots, "generation": v.Generation, "visible_generation": v.VisibleGeneration}
	})
	w = doJSON(t, api, "GET", "/v1/instances/bodies", "", nil)
	check("get", w, http.StatusOK, asInfo)
	w = doJSON(t, api, "GET", "/v1/instances", "", nil)
	check("list", w, http.StatusOK, func(b []byte) any {
		var v struct {
			Instances []instanceInfo `json:"instances"`
		}
		if err := json.Unmarshal(b, &v); err != nil || len(v.Instances) != 1 {
			t.Fatalf("list body %q: %v", b, err)
		}
		return map[string]any{"instances": v.Instances}
	})
	// Wait for a reporting estimate, so the fields that are zero until
	// then are checked too.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w = doJSON(t, api, "GET", "/v1/instances/bodies/estimate", "", nil)
		var est Estimate
		check("estimate", w, http.StatusOK, func(b []byte) any {
			if err := json.Unmarshal(b, &est); err != nil {
				t.Fatal(err)
			}
			return est
		})
		if est.OK && est.Estimate != 0 && est.FeedLagSeconds != 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	check("error", doJSON(t, api, "GET", "/v1/instances/nope/estimate", "", nil), http.StatusNotFound, asError)
	check("bad body", doJSON(t, api, "POST", "/v1/instances/bodies/values", `{"values":[1],"<b>&":1}`, nil), http.StatusBadRequest, asError)
}

// TestAPIEstimateAllocs pins the allocations of one estimate read through
// the whole handler: admission, routing, the fleet summary and the
// pooled reply.
func TestAPIEstimateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	api, _, _ := newTestAPI(t, nil, nil)
	if w := doJSON(t, api, "POST", "/v1/instances", `{"name":"a","fleet_size":8,"epoch_ms":1000}`, nil); w.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", w.Code, w.Body.String())
	}
	req := httptest.NewRequest("GET", "/v1/instances/a/estimate", nil)
	w := &nullWriter{h: http.Header{}}
	got := testing.AllocsPerRun(200, func() {
		w.code = 0
		api.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK {
		t.Fatalf("estimate = %d", w.code)
	}
	// 1 is the router's path match; the parent read allocated 5.
	if got > 1 {
		t.Errorf("an estimate read allocates %.0f times, want at most 1", got)
	}
}

// TestAPIFeedAllocs pins the allocations of one 32-value feed through the
// whole handler: the strict decoder's own storage remains, the request,
// its values and the reply are pooled.
func TestAPIFeedAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	api, _, _ := newTestAPI(t, nil, nil)
	if w := doJSON(t, api, "POST", "/v1/instances", `{"name":"a","fleet_size":8,"epoch_ms":1000}`, nil); w.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", w.Code, w.Body.String())
	}
	vals := make([]float64, 32)
	for i := range vals {
		vals[i] = 100 * math.Sin(float64(i+1))
	}
	body, _ := json.Marshal(map[string]any{"values": vals})
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/instances/a/values", nil)
	req.Body = io.NopCloser(rd)
	w := &nullWriter{h: http.Header{}}
	got := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		w.code = 0
		api.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK {
		t.Fatalf("feed = %d", w.code)
	}
	// The router's path match, the body bound and the decoder with its
	// read buffer and parse stack make 11; the parent feed allocated 30.
	if got > 11 {
		t.Errorf("a 32-value feed allocates %.0f times, want at most 11", got)
	}
}

// oracleFeed is the feed route's acceptance rule on fresh storage: the
// strict decode of one JSON value of at most 1 MiB into a new
// feedRequest, then something to feed and every value finite.
func oracleFeed(body []byte) (feedRequest, bool) {
	var req feedRequest
	if !oracleDecode(body, &req) {
		return req, false
	}
	if len(req.Values) == 0 && len(req.Slots) == 0 && !req.Reset {
		return req, false
	}
	for _, v := range req.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return req, false
		}
	}
	for _, v := range req.Slots {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return req, false
		}
	}
	return req, true
}

func oracleDecode(body []byte, dst any) bool {
	if len(body) > maxBodyBytes {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return false
	}
	_, err := dec.Token()
	return errors.Is(err, io.EOF)
}

// stored copies an instance's value store.
func stored(in *Instance) ([]float64, map[string]int) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	keys := make(map[string]int, len(in.keys))
	for k, i := range in.keys {
		keys[k] = i
	}
	return append([]float64(nil), in.vals...), keys
}

// sameStore reports whether two instances hold the same store, slot for
// slot.
func sameStore(a, b *Instance) bool {
	av, ak := stored(a)
	bv, bk := stored(b)
	return slices.Equal(av, bv) && maps.Equal(ak, bk)
}

// twinOf is a fleetless instance with in's schedule and an empty store:
// Feed on it is the oracle for what a feed stores.
func twinOf(in *Instance) *Instance {
	return &Instance{cfg: in.cfg, schedule: in.schedule, keys: map[string]int{}}
}

// TestAPIFeedStorageIsolated: the pooled request a feed decodes into
// carries nothing into the next feed. Each body stores exactly what it
// says: omitted values, slots and reset, and null elements, read as a
// fresh request reads them.
func TestAPIFeedStorageIsolated(t *testing.T) {
	api, reg, _ := newTestAPI(t, nil, nil)
	if w := doJSON(t, api, "POST", "/v1/instances", `{"name":"iso","fleet_size":2,"epoch_ms":1000}`, nil); w.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", w.Code, w.Body.String())
	}
	inst, err := reg.Get("iso")
	if err != nil {
		t.Fatal(err)
	}
	twin := twinOf(inst)
	for _, body := range []string{
		`{"values":[1,2,3],"slots":{"a":4,"b":5}}`,
		`{"reset":true}`,
		`{"slots":{"k":1}}`,
		`{"slots":{"m":2}}`,
		`{"values":[7,8,9,10],"reset":true}`,
		`{"values":[null,null,6]}`,
	} {
		w := doJSON(t, api, "POST", "/v1/instances/iso/values", body, nil)
		req, ok := oracleFeed([]byte(body))
		if w.Code != http.StatusOK || !ok {
			t.Fatalf("feed %s = %d (oracle accepts: %v): %s", body, w.Code, ok, w.Body.String())
		}
		twin.Feed(req.Values, req.Slots, req.Reset)
		if !sameStore(inst, twin) {
			iv, ik := stored(inst)
			tv, tk := stored(twin)
			t.Fatalf("after %s the instance holds %v %v, want %v %v", body, iv, ik, tv, tk)
		}
	}
}

// TestAPIConcurrentFeedsIsolated feeds two instances from two goroutines
// at once, each body resetting its store: every instance ends holding
// its own last body and nothing of the other's (run under -race).
func TestAPIConcurrentFeedsIsolated(t *testing.T) {
	api, reg, _ := newTestAPI(t, nil, nil)
	bodies := map[string][]string{
		"left":  {`{"values":[1,2,3],"slots":{"l":4},"reset":true}`, `{"values":[5,6,7,8,9],"reset":true}`},
		"right": {`{"slots":{"r1":10,"r2":20},"reset":true}`, `{"values":[30],"slots":{"r3":40},"reset":true}`},
	}
	for name := range bodies {
		if w := doJSON(t, api, "POST", "/v1/instances", fmt.Sprintf(`{"name":%q,"fleet_size":2,"epoch_ms":1000}`, name), nil); w.Code != http.StatusCreated {
			t.Fatalf("create %s = %d: %s", name, w.Code, w.Body.String())
		}
	}
	const rounds = 200
	var wg sync.WaitGroup
	for name, list := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				req := httptest.NewRequest("POST", "/v1/instances/"+name+"/values", strings.NewReader(list[i%len(list)]))
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s round %d = %d: %s", name, i, rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	for name, list := range bodies {
		inst, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		twin := twinOf(inst)
		req, _ := oracleFeed([]byte(list[(rounds-1)%len(list)]))
		twin.Feed(req.Values, req.Slots, req.Reset)
		if !sameStore(inst, twin) {
			iv, ik := stored(inst)
			tv, tk := stored(twin)
			t.Errorf("%s holds %v %v, want %v %v", name, iv, ik, tv, tk)
		}
	}
}

// FuzzAPIRequestBody sends arbitrary bytes to the create and feed routes.
// The oracle is the strict decode into a fresh value followed by the
// route's own checks: the route answers 201 (create) or 200 (feed) iff
// the oracle accepts, and what it stores is what the oracle decoded.
func FuzzAPIRequestBody(f *testing.F) {
	for _, seed := range []string{
		`{"values":[1,2,3]}`,
		`{"values":[1,null,3],"slots":{"a":1,"b":null},"reset":true}`,
		`{"slots":{"k":1}}`,
		`{"reset":true}`,
		`{"values":[1e999]}`,
		`{"values":[1]}{"values":[2]}`,
		`{"values":[1],"values":[null,2]}`,
		`{"values":[1],"bogus":1}`,
		`{"name":"fz","fleet_size":2,"epoch_ms":50}`,
		`{"name":"fz","function":"variance","fleet_size":3,"combiner":"clamped-mean","clamp_min":0,"clamp_max":1}`,
		`{"name":"Bad Name"}`,
		`{"name":"fz","fleet_size":100}`,
		`[]`,
		``,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	feedAPI, feedReg, _ := newTestAPI(f, nil, nil)
	if w := doJSON(f, feedAPI, "POST", "/v1/instances", `{"name":"f","fleet_size":2,"epoch_ms":10000}`, nil); w.Code != http.StatusCreated {
		f.Fatalf("create = %d: %s", w.Code, w.Body.String())
	}
	feedInst, err := feedReg.Get("f")
	if err != nil {
		f.Fatal(err)
	}
	// Creations go to a registry of their own, with fleets of at most 4
	// nodes; each accepted one is deleted again.
	createReg := NewRegistry(RegistryConfig{Limits: Limits{MaxFleet: 4}, Logger: quietLogger()})
	f.Cleanup(createReg.Close)
	tenants, _ := NewTenants(nil)
	createAPI := NewAPI(APIConfig{Registry: createReg, Tenants: tenants, Logger: quietLogger()})

	post := func(api *API, path string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, req)
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		feedInst.Feed(nil, nil, true)
		want, ok := oracleFeed(body)
		rec := post(feedAPI, "/v1/instances/f/values", body)
		if (rec.Code == http.StatusOK) != ok {
			t.Fatalf("feed %q = %d, oracle accepts: %v (%s)", body, rec.Code, ok, rec.Body.String())
		}
		twin := twinOf(feedInst)
		if ok {
			twin.Feed(want.Values, want.Slots, want.Reset)
		}
		if !sameStore(feedInst, twin) {
			iv, ik := stored(feedInst)
			tv, tk := stored(twin)
			t.Fatalf("feed %q stored %v %v, want %v %v", body, iv, ik, tv, tk)
		}

		var cfg InstanceConfig
		decoded := oracleDecode(body, &cfg)
		rec = post(createAPI, "/v1/instances", body)
		var reply errorReply
		_ = json.Unmarshal(rec.Body.Bytes(), &reply)
		if refused := rec.Code == http.StatusBadRequest && strings.HasPrefix(reply.Error, "invalid request body"); refused == decoded {
			t.Fatalf("create %q = %d (%s), oracle decodes it: %v", body, rec.Code, rec.Body.String(), decoded)
		}
		if !decoded {
			return
		}
		if err := createReg.normalize(&cfg); err != nil {
			if rec.Code != statusFor(err) {
				t.Fatalf("create %q = %d (%s), want %d: %v", body, rec.Code, rec.Body.String(), statusFor(err), err)
			}
			return
		}
		if rec.Code != http.StatusCreated {
			// An epoch beyond 2⁶³ ns overflows the schedule, and the
			// fleet refuses it; anything shorter must be created.
			if int64(cfg.EpochMS) <= math.MaxInt64/int64(time.Millisecond) {
				t.Fatalf("create %q = %d (%s), want 201", body, rec.Code, rec.Body.String())
			}
			return
		}
		inst, err := createReg.Get(cfg.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got := inst.Config(); !reflect.DeepEqual(got, cfg) {
			t.Errorf("create %q stored %+v, want %+v", body, got, cfg)
		}
		if err := createReg.Delete(cfg.Name); err != nil {
			t.Fatal(err)
		}
	})
}
