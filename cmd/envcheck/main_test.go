package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"antientropy"
	"antientropy/internal/race"
)

// writeFile writes content to a file in a fresh temp directory.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const figureCSV = "figure,series,x,mean,min,max,reps\nfig,s,0,1,0.5,1.5,2\nfig,s,1,2,1.5,2.5,2\n"

// runCheck checks figureCSV against envelope and returns the verdict and
// everything check printed.
func runCheck(t *testing.T, envelope string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := check(&out, writeFile(t, "env.csv", envelope), writeFile(t, "fig.csv", figureCSV))
	return out.String(), err
}

func TestCheckInsideEnvelopePasses(t *testing.T) {
	out, err := runCheck(t, "figure,series,x,lo,hi\nfig,s,0,0.9,1.1\nfig,s,1,2,2\n")
	if err != nil || !strings.Contains(out, "OK: 2 envelope points") {
		t.Fatalf("err %v, output %q", err, out)
	}
}

func TestCheckBreachFails(t *testing.T) {
	out, err := runCheck(t, "figure,series,x,lo,hi\nfig,s,0,1.1,1.5\nfig,s,1,1,1.5\n")
	if err == nil || !strings.Contains(out, "BREACH  fig/s x=0: mean 1 outside [1.1, 1.5]") ||
		!strings.Contains(out, "BREACH  fig/s x=1: mean 2 outside [1, 1.5]") {
		t.Fatalf("err %v, output %q", err, out)
	}
}

func TestCheckMissingPointFails(t *testing.T) {
	out, err := runCheck(t, "figure,series,x,lo,hi\nfig,s,0,0,2\nfig,t,0,0,2\n")
	if err == nil || !strings.Contains(out, "MISSING fig/t x=0") {
		t.Fatalf("err %v, output %q", err, out)
	}
}

// TestNaNMeanFails: aggsim writes NaN for a point none of whose
// repetitions converged. Such a point breaches every envelope, yields
// no envelope of its own, and NaN bounds are rejected.
func TestNaNMeanFails(t *testing.T) {
	nanFig := writeFile(t, "fig.csv", figureCSV+"fig,s,2,NaN,NaN,NaN,0\n")
	var out strings.Builder
	err := check(&out, writeFile(t, "env.csv", "figure,series,x,lo,hi\nfig,s,2,-1e9,1e9\n"), nanFig)
	if err == nil || !strings.Contains(out.String(), "BREACH  fig/s x=2: mean NaN") {
		t.Errorf("NaN mean: err %v, output %q", err, out.String())
	}
	if err := generate(&strings.Builder{}, nanFig, 0.05, 0.05); err == nil {
		t.Error("envelope generated around a NaN mean")
	}
	if _, err := runCheck(t, "figure,series,x,lo,hi\nfig,s,0,NaN,NaN\n"); err == nil {
		t.Error("NaN bounds accepted")
	}
}

func TestWrongHeaderRejected(t *testing.T) {
	fig := writeFile(t, "fig.csv", figureCSV)
	if err := check(&strings.Builder{}, writeFile(t, "env.csv", "figure,series,x,low,high\n"), fig); err == nil {
		t.Error("envelope with a wrong header accepted")
	}
	bad := writeFile(t, "bad.csv", strings.Replace(figureCSV, "mean", "avg", 1))
	if err := generate(&strings.Builder{}, bad, 0.05, 0.05); err == nil {
		t.Error("figure with a wrong header accepted")
	}
}

// TestGenerateReproducesCommittedEnvelopes regenerates every committed
// envelope from its rows' means with that envelope's margins, which
// pins the margins the nightly workflow documents.
func TestGenerateReproducesCommittedEnvelopes(t *testing.T) {
	margins := map[string][2]float64{
		"fig2": {0.05, 0.05}, "fig6b": {0.05, 0.05},
		"advbias-inject-extreme": {0.1, 0.01}, "advbias-sybil-flood": {0.1, 0.01},
	}
	for name, m := range margins {
		envPath := filepath.Join("..", "..", "testdata", "envelopes", name+".csv")
		env, err := readCSV(envPath, []string{"figure", "series", "x", "lo", "hi"})
		if err != nil {
			t.Fatal(err)
		}
		fig := []string{strings.Join(figureHeader, ",")}
		for _, rec := range env {
			lo, _ := strconv.ParseFloat(rec[3], 64)
			hi, _ := strconv.ParseFloat(rec[4], 64)
			fig = append(fig, fmt.Sprintf("%s,%s,%s,%v,0,0,1", rec[0], rec[1], rec[2], (lo+hi)/2))
		}
		var out strings.Builder
		if err := generate(&out, writeFile(t, "fig.csv", strings.Join(fig, "\n")+"\n"), m[0], m[1]); err != nil {
			t.Fatal(err)
		}
		got, err := readCSV(writeFile(t, "gen.csv", out.String()), []string{"figure", "series", "x", "lo", "hi"})
		if err != nil || len(got) != len(env) {
			t.Fatalf("%s: %d rows regenerated of %d (%v)", name, len(got), len(env), err)
		}
		for i, rec := range env {
			for col := 3; col <= 4; col++ {
				want, _ := strconv.ParseFloat(rec[col], 64)
				have, _ := strconv.ParseFloat(got[i][col], 64)
				if math.Abs(have-want) > 1e-9*(1+math.Abs(want)) {
					t.Errorf("%s row %d: %s regenerates as %g, committed %g", name, i, rec[:3], have, want)
				}
			}
		}
	}
}

// TestAdvbiasFiguresWithinEnvelopes regenerates both adversary-bias
// figures as `aggsim -exp advbias-… -reps 3 -engine sharded -shards 8`
// does and checks each against its committed envelope. The sharded engine
// is deterministic per (seed, K), so a breach means the attack, the
// defense or the scenario executor behind them moved.
func TestAdvbiasFiguresWithinEnvelopes(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector slows the two sweeps several-fold")
	}
	for _, id := range []string{"advbias-inject-extreme", "advbias-sybil-flood"} {
		res, err := antientropy.RunExperiment(id, antientropy.ExperimentOptions{Reps: 3, Engine: "sharded", Shards: 8})
		if err != nil {
			t.Fatal(err)
		}
		var fig, out strings.Builder
		if err := res.WriteCSV(&fig); err != nil {
			t.Fatal(err)
		}
		envelope := filepath.Join("..", "..", "testdata", "envelopes", id+".csv")
		if err := check(&out, envelope, writeFile(t, id+".csv", fig.String())); err != nil {
			t.Errorf("%s: %v\n%s", id, err, out.String())
		}
	}
}
