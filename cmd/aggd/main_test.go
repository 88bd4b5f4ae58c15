package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTwoTenantWalkthrough runs the daemon in this process with two
// tenants, beta on a tiny token bucket (0.02 req/s, burst 2), and walks
// the client API over loopback HTTP: an AVERAGE instance converges to
// the fed mean within 5 %, a COUNT instance tracks its fleet size of 8
// within 30 %, beta is refused with 429 and Retry-After while alpha keeps
// getting 200, /metrics carries agg_serve_requests_total and reads
// agg_serve_instances 2, an estimate after DELETE is 404, and cancelling
// the context (SIGTERM, in main) drains the daemon without error.
func TestTwoTenantWalkthrough(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleets skipped in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-log", "warn",
			"-tenant", "alpha:key-a", "-tenant", "beta:key-b:0.02:2"}, &out)
	}()
	serving := regexp.MustCompile(`aggd serving (http://\S+)/v1/instances`)
	var base string
	for deadline := time.Now().Add(5 * time.Second); base == ""; time.Sleep(10 * time.Millisecond) {
		if m := serving.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("aggd never announced its address:\n%s", out.String())
		}
	}

	do := func(key, method, path, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}
	alpha := func(method, path, body string) []byte {
		t.Helper()
		resp, data := do("key-a", method, path, body)
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s %s = %d: %s", method, path, resp.StatusCode, data)
		}
		return data
	}
	// waitEstimate polls an instance's estimate until cond accepts it.
	waitEstimate := func(name string, cond func(ok, converged bool, est float64) bool) {
		t.Helper()
		var last []byte
		for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			last = alpha("GET", "/v1/instances/"+name+"/estimate", "")
			var e struct {
				OK        bool    `json:"ok"`
				Converged bool    `json:"converged"`
				Estimate  float64 `json:"estimate"`
			}
			if err := json.Unmarshal(last, &e); err != nil {
				t.Fatalf("%s estimate: %v: %s", name, err, last)
			}
			if cond(e.OK, e.Converged, e.Estimate) {
				return
			}
		}
		t.Fatalf("%s never reached its target; last estimate %s", name, last)
	}

	if data := alpha("POST", "/v1/instances", `{"name":"temps","function":"average","fleet_size":8,"epoch_ms":200}`); !strings.Contains(string(data), `"name":"temps"`) {
		t.Fatalf("create temps: %s", data)
	}
	if data := alpha("POST", "/v1/instances/temps/values", `{"values":[20.5,21.0,19.5]}`); !strings.Contains(string(data), `"visible_generation"`) {
		t.Fatalf("feed temps: %s", data)
	}
	const mean = (20.5 + 21.0 + 19.5) / 3
	waitEstimate("temps", func(ok, converged bool, est float64) bool {
		return ok && converged && math.Abs(est-mean)/mean <= 0.05
	})
	alpha("POST", "/v1/instances", `{"name":"size","function":"count","fleet_size":8,"epoch_ms":200}`)
	waitEstimate("size", func(ok, _ bool, est float64) bool { return ok && math.Abs(est-8)/8 <= 0.3 })

	throttled := false
	for range 10 {
		resp, _ := do("key-b", "GET", "/v1/instances", "")
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			throttled = true
			break
		}
	}
	if !throttled {
		t.Fatal("tenant beta never throttled")
	}
	if resp, data := do("key-a", "GET", "/v1/instances", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant alpha throttled alongside beta: %d %s", resp.StatusCode, data)
	}

	resp, metrics := do("", "GET", "/metrics", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(metrics), "\nagg_serve_requests_total") ||
		!strings.Contains(string(metrics), "\nagg_serve_instances 2\n") {
		t.Errorf("/metrics (%d) lacks agg_serve_requests_total or agg_serve_instances 2:\n%s", resp.StatusCode, metrics)
	}

	alpha("DELETE", "/v1/instances/temps", "")
	if resp, data := do("key-a", "GET", "/v1/instances/temps/estimate", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("estimate after delete = %d (%s), want 404", resp.StatusCode, data)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aggd did not drain")
	}
}

// syncBuffer is an io.Writer a running command writes to while the test
// reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}
