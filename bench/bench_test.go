package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the tables in
// this package from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in code", len(b.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: declared %+v, code %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in code", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: declared %+v, code %+v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// resultLine is the driver's result object.
type resultLine struct {
	Correct   *bool `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runQuick runs one workload at test scale through the command's own
// entry point and returns the result object it printed last.
func runQuick(t *testing.T, workload string, seconds string, trace string) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", workload, "--seed", "5", "--seconds", seconds, "--trace", trace, "-quick"}, &stdout, &stderr)
	// Exit code 1 means a correctness check failed. At test scale, next to
	// other packages' tests, timing-dependent checks can; what this test
	// pins is the shape of the output.
	if code != 0 && code != 1 {
		t.Fatalf("exit code %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var res resultLine
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if res.Correct == nil || res.Attempted < 1 || res.Failed < 0 {
		t.Errorf("result object incomplete: %s", lines[len(lines)-1])
	}
	return res
}

func checkMetrics(t *testing.T, res resultLine, decls []decl) {
	t.Helper()
	if len(res.Metrics) != len(decls) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(decls))
	}
	for _, d := range decls {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.Name)
		case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("metric %s has no finite value", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at -quick scale,
// untraced, and one traced run, and checks that exactly the declared
// metrics come out, each with a finite value.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	seconds := map[string]string{"sim-churn": "1", "live-mem": "1.1", "live-udp-count": "1.1", "serve-mix": "1.5"}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			checkMetrics(t, runQuick(t, w.Name, seconds[w.Name], "0"), endToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		// 3.3 s × the workload's share of a traced run leaves a warm-up
		// and a measured epoch for each of the two fleets.
		checkMetrics(t, runQuick(t, "live-udp-count", "3.3", "1"), perLayer)
	})
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q2, q3 := quartilesExclusive(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	if got := spreadShare(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread share %v, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := decl{Name: "x", Better: "lower", Bound: 0.10}
	higher := decl{Name: "y", Better: "higher", Bound: 0.10}
	tight := func(v float64) side {
		return side{median: v, q1: v * 0.99, q3: v * 1.01, lo: v * 0.98, hi: v * 1.02, runs: 10}
	}
	wide := func(v float64) side {
		return side{median: v, q1: v * 0.9, q3: v * 1.1, lo: v * 0.8, hi: v * 1.2, runs: 10}
	}
	for _, c := range []struct {
		d    decl
		a, b side
		want string
	}{
		{lower, tight(100), tight(105), "same"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(85), "better"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(115), "better"},
		{lower, wide(100), wide(115), "unresolved"},
		{lower, wide(100), wide(200), "worse"}, // spread above the bound, but no run overlaps
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: A %.0f, B %.0f: %s, want %s", c.d.Better, c.a.median, c.b.median, got, c.want)
		}
	}
}
