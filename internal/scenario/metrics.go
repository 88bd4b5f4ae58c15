package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"antientropy/internal/obs"
	"antientropy/internal/stats"
)

// CycleMetrics is one cycle's observation of a scenario run. Every
// executor emits the same shape, so their CSV/JSON streams line up
// column-for-column.
type CycleMetrics struct {
	// Cycle index: 0 is the initialized state, 1..Cycles follow each
	// completed cycle.
	Cycle int `json:"cycle"`
	// Epoch the cycle belongs to.
	Epoch int `json:"epoch"`
	// Alive is the number of live nodes; Participating counts those
	// taking part in the current epoch.
	Alive         int `json:"alive"`
	Participating int `json:"participating"`
	// TrueMean is the instantaneous mean of the live nodes' local values —
	// the signal the protocol is chasing.
	TrueMean float64 `json:"trueMean"`
	// MeanEstimate and EstimateStdDev summarize the participants'
	// estimates.
	MeanEstimate   float64 `json:"meanEstimate"`
	EstimateStdDev float64 `json:"estimateStdDev"`
	// RelError is |MeanEstimate − TrueMean| normalized by the true mean's
	// magnitude.
	RelError float64 `json:"relError"`
	// Messages counts exchange attempts during this cycle.
	Messages int64 `json:"messages"`
}

// relError computes the normalized estimate error.
func relError(estimate, truth float64) float64 {
	scale := math.Abs(truth)
	if scale < 1e-12 {
		scale = 1
	}
	return math.Abs(estimate-truth) / scale
}

// RunResult is one executed scenario: metadata plus one CycleMetrics per
// observed cycle (Cycles+1 rows including cycle 0).
type RunResult struct {
	// Scenario name and the executor that ran it ("sim", "sim-sharded",
	// "live" or "udp").
	Scenario string `json:"scenario"`
	Executor string `json:"executor"`
	// N is the initial network size; Slots the total capacity incl. joins.
	N     int `json:"n"`
	Slots int `json:"slots"`
	// Seed the run used.
	Seed uint64 `json:"seed"`
	// PerCycle are the per-cycle observations.
	PerCycle []CycleMetrics `json:"perCycle"`
}

// runLog builds a run's per-cycle rows — the one place a CycleMetrics is
// assembled, whichever executor sampled the fleet — publishes each on the
// run's telemetry and collects them into the result.
type runLog struct {
	sc     Scenario
	prog   *ValueProgram
	adv    *advSchedule
	sobs   *scenarioObs
	result *RunResult

	prevInitiated int64
}

func newRunLog(sc Scenario, executor string, prog *ValueProgram, adv *advSchedule, sobs *scenarioObs) *runLog {
	return &runLog{sc: sc, prog: prog, adv: adv, sobs: sobs, result: &RunResult{
		Scenario: sc.Name, Executor: executor,
		N: sc.N, Slots: sc.MaxSlots(), Seed: sc.Seed,
		PerCycle: make([]CycleMetrics, 0, sc.Cycles+1),
	}}
}

// record logs one sampled cycle: est are the participants' estimate
// moments, isAlive tells which slots the true mean ranges over, proto
// holds the fleet-cumulative protocol counters (the start of the cycle's
// record for the health rules and the flight recorder). Under an
// adversary estimate and truth cover the honest population only — the
// attack's impact is what leaks into honest estimates, and the value
// signal attacker-controlled slots would contribute is fake — while
// alive and participating still count everyone: hostile nodes are real
// nodes.
func (l *runLog) record(cycle, alive, participating int, est stats.Moments, isAlive func(slot int) bool, proto obs.TimelineEntry) {
	var truth stats.Moments
	for slot := 0; slot < l.result.Slots; slot++ {
		if isAlive(slot) && (l.adv == nil || !l.adv.hostile(slot)) {
			truth.Add(l.prog.Value(slot, cycle))
		}
	}
	epoch := 0
	if cycle > 0 {
		epoch = (cycle - 1) / l.sc.EpochLen
	}
	row := CycleMetrics{
		Cycle:          cycle,
		Epoch:          epoch,
		Alive:          alive,
		Participating:  participating,
		TrueMean:       truth.Mean(),
		MeanEstimate:   est.Mean(),
		EstimateStdDev: est.StdDev(),
		RelError:       relError(est.Mean(), truth.Mean()),
		Messages:       proto.Initiated - l.prevInitiated,
	}
	l.prevInitiated = proto.Initiated
	l.sobs.observe(row, proto)
	l.result.PerCycle = append(l.result.PerCycle, row)
}

// Final returns the last observation.
func (r *RunResult) Final() CycleMetrics {
	if len(r.PerCycle) == 0 {
		return CycleMetrics{}
	}
	return r.PerCycle[len(r.PerCycle)-1]
}

// TotalMessages sums the exchange attempts over the whole run.
func (r *RunResult) TotalMessages() int64 {
	var total int64
	for _, c := range r.PerCycle {
		total += c.Messages
	}
	return total
}

// MinAlive returns the smallest live-node count observed.
func (r *RunResult) MinAlive() int {
	min := math.MaxInt
	for _, c := range r.PerCycle {
		if c.Alive < min {
			min = c.Alive
		}
	}
	if min == math.MaxInt {
		return 0
	}
	return min
}

// CSVHeader is the column row of WriteCSV.
const CSVHeader = "scenario,executor,cycle,epoch,alive,participating,true_mean,mean_estimate,estimate_stddev,rel_error,messages"

// WriteCSV emits the per-cycle metrics as CSV, header included.
func (r *RunResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
		return err
	}
	return r.WriteCSVRows(w)
}

// WriteCSVRows emits the data rows only, for concatenating several runs
// under one header.
func (r *RunResult) WriteCSVRows(w io.Writer) error {
	for _, c := range r.PerCycle {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%g,%g,%g,%g,%d\n",
			r.Scenario, r.Executor, c.Cycle, c.Epoch, c.Alive, c.Participating,
			c.TrueMean, c.MeanEstimate, c.EstimateStdDev, c.RelError, c.Messages); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the whole result as indented JSON.
func (r *RunResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Divergence summarizes how two executions of the same scenario differ,
// cycle by cycle: the executor-comparison harness runs a scenario on the
// simulator and on the live fleet (or on the two sim engines) and
// reports how far the estimate streams drift apart. Both runs share the
// scripted value signal, so the divergence isolates executor effects —
// wall-clock jitter, transport loss realization, exchange ordering.
type Divergence struct {
	// ScenarioName and the two executors compared.
	ScenarioName string `json:"scenario"`
	ExecutorA    string `json:"executorA"`
	ExecutorB    string `json:"executorB"`
	// Cycles is the number of per-cycle rows compared (the shorter run
	// bounds it).
	Cycles int `json:"cycles"`
	// MeanAbsEstimate and MaxAbsEstimate aggregate |meanEstimateA −
	// meanEstimateB| over the compared cycles.
	MeanAbsEstimate float64 `json:"meanAbsEstimate"`
	MaxAbsEstimate  float64 `json:"maxAbsEstimate"`
	// MaxAbsEstimateCycle is the cycle at which the estimate gap peaked.
	MaxAbsEstimateCycle int `json:"maxAbsEstimateCycle"`
	// MeanAbsRelError aggregates |relErrorA − relErrorB|.
	MeanAbsRelError float64 `json:"meanAbsRelError"`
	// FinalAbsEstimate and FinalAbsRelError compare the last common cycle.
	FinalAbsEstimate float64 `json:"finalAbsEstimate"`
	FinalAbsRelError float64 `json:"finalAbsRelError"`
	// RhoA and RhoB are the two runs' convergence factors (RunResult.rho).
	RhoA float64 `json:"rhoA"`
	RhoB float64 `json:"rhoB"`
}

// Diverge computes the per-cycle divergence of two runs of the same
// scenario. The runs may come from different executors or engines; they
// are aligned by cycle index.
func Diverge(a, b *RunResult) Divergence {
	d := Divergence{ScenarioName: a.Scenario, ExecutorA: a.Executor, ExecutorB: b.Executor, RhoA: a.rho(), RhoB: b.rho()}
	n := len(a.PerCycle)
	if len(b.PerCycle) < n {
		n = len(b.PerCycle)
	}
	d.Cycles = n
	if n == 0 {
		return d
	}
	var sumEst, sumErr float64
	for c := 0; c < n; c++ {
		est := math.Abs(a.PerCycle[c].MeanEstimate - b.PerCycle[c].MeanEstimate)
		sumEst += est
		sumErr += math.Abs(a.PerCycle[c].RelError - b.PerCycle[c].RelError)
		if est > d.MaxAbsEstimate {
			d.MaxAbsEstimate = est
			d.MaxAbsEstimateCycle = a.PerCycle[c].Cycle
		}
	}
	d.MeanAbsEstimate = sumEst / float64(n)
	d.MeanAbsRelError = sumErr / float64(n)
	last := n - 1
	d.FinalAbsEstimate = math.Abs(a.PerCycle[last].MeanEstimate - b.PerCycle[last].MeanEstimate)
	d.FinalAbsRelError = math.Abs(a.PerCycle[last].RelError - b.PerCycle[last].RelError)
	return d
}

// String renders the divergence as one line.
func (d Divergence) String() string {
	return fmt.Sprintf("%s: %s vs %s over %d cycles: |Δest| mean %.4g max %.4g (cycle %d), |Δrelerr| mean %.2e, final |Δest| %.4g |Δrelerr| %.2e, ρ %s %s / %s %s",
		d.ScenarioName, d.ExecutorA, d.ExecutorB, d.Cycles,
		d.MeanAbsEstimate, d.MaxAbsEstimate, d.MaxAbsEstimateCycle,
		d.MeanAbsRelError, d.FinalAbsEstimate, d.FinalAbsRelError,
		d.ExecutorA, rhoString(d.RhoA), d.ExecutorB, rhoString(d.RhoB))
}

// rhoString prints a convergence factor, "n/a" for a run without one.
func rhoString(rho float64) string {
	if rho == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", rho)
}

// The ρ window: cycles rhoFrom → rhoTo of an epoch, the window the
// repository benchmark reads its convergence_factor from.
const rhoFrom, rhoTo = 2, 10

// rho is the run's convergence factor: the geometric mean, over every
// epoch with a positive EstimateStdDev at both its cycles rhoFrom and
// rhoTo, of the per-cycle factor of EstimateStdDev² between them (see
// stats.RhoWindow). Push-pull averaging contracts it by 1/(2√e) ≈ 0.303
// (§3). A row with no spread is no sample, so an epoch that converged
// exactly inside the window is left out. It is 0 when no epoch has the
// whole window.
func (r *RunResult) rho() float64 {
	w := stats.RhoWindow{From: rhoFrom, To: rhoTo}
	epoch, j := -1, 0
	for _, c := range r.PerCycle {
		if c.Cycle == 0 {
			continue // the initialized state, before epoch 0's first cycle
		}
		if c.Epoch != epoch {
			epoch, j = c.Epoch, 0
		}
		j++
		if c.EstimateStdDev > 0 {
			w.Add(c.Epoch, j, c.EstimateStdDev*c.EstimateStdDev)
		}
	}
	rho, _ := w.Factor()
	return rho
}

// String summarizes the run in one line.
func (r *RunResult) String() string {
	f := r.Final()
	return fmt.Sprintf("%s/%s: %d cycles, alive %d→%d (min %d), final estimate %.4g vs true %.4g (rel err %.2e), %d messages",
		r.Scenario, r.Executor, len(r.PerCycle)-1, r.N, f.Alive, r.MinAlive(),
		f.MeanEstimate, f.TrueMean, f.RelError, r.TotalMessages())
}
