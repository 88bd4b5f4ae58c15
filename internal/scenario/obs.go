package scenario

import (
	"log/slog"

	"antientropy/internal/obs"
	"antientropy/internal/theory"
	"antientropy/internal/transport"
)

// protoTotals carries the fleet-cumulative protocol counters of one
// cycle sample to the health rules, which difference them between
// cycles. Each executor maps its own counter set onto this shape so
// the rules (and their thresholds) apply unchanged across executors.
type protoTotals struct {
	Initiated int64
	Completed int64
	Timeouts  int64
	Declined  int64
	Drops     int64
}

// scenarioObs publishes the per-cycle scenario gauges, the convergence
// watch, the flight-recorder timeline and the health rules. All three
// executors emit the same series, so a dashboard built against one
// applies to them all. A nil *scenarioObs ignores observations —
// executors thread optional telemetry without branching.
type scenarioObs struct {
	cycle          *obs.Gauge
	epoch          *obs.Gauge
	alive          *obs.Gauge
	participating  *obs.Gauge
	trueMean       *obs.Gauge
	meanEstimate   *obs.Gauge
	estimateStdDev *obs.Gauge
	relError       *obs.Gauge

	observedRho *obs.Gauge
	theoryRho   *obs.Gauge
	rhoRatio    *obs.Gauge

	// advBias publishes the attacked run's per-cycle estimate bias
	// against the honest-twin baseline (see SimOptions.BiasBaseline);
	// reg is retained so bindAdversary can hook the agg_adversary_*
	// counters to a run's adversary schedule at scrape time.
	advBias  *obs.Gauge
	baseline []CycleMetrics
	reg      *obs.Registry

	watch    convergenceWatch
	timeline *obs.Timeline
	health   *obs.Health
}

// Help strings of the adversary instruments, shared between the
// zero-valued registration of newScenarioObs and the live rebinding of
// bindAdversary so the registry sees one consistent schema.
const (
	advNodesHelp   = "Attacker-controlled nodes scheduled so far (Byzantine picks plus landed sybil joiners)."
	advLiesHelp    = "Corrupted wire reports emitted by Byzantine nodes."
	advRejectHelp  = "Peer-reported samples the merge-guard defense rejected or clamped."
	advRefusedHelp = "Joins refused by the defense's epoch-scoped join cap."
	advBiasHelp    = "Mean-estimate bias of the attacked run against its honest twin at the same cycle."
)

// newScenarioObs builds the cycle observer: gauges on reg (skipped when
// nil), snapshots on timeline (skipped when nil), and the health rules
// evaluated every cycle, logging fire/clear transitions to logger and
// counting them on reg. Nil reg and nil timeline → nil observer.
// Registration is idempotent, so re-running a scenario on the same
// registry rebinds nothing and keeps the series continuous.
func newScenarioObs(reg *obs.Registry, timeline *obs.Timeline, logger *slog.Logger) *scenarioObs {
	if reg == nil && timeline == nil {
		return nil
	}
	s := &scenarioObs{
		timeline: timeline,
		health:   obs.NewHealth(reg, logger),
		reg:      reg,
	}
	if reg == nil {
		return s
	}
	s.cycle = reg.Gauge("agg_scenario_cycle", "Current scenario cycle index.")
	s.epoch = reg.Gauge("agg_scenario_epoch", "Epoch the current cycle belongs to.")
	s.alive = reg.Gauge("agg_scenario_alive", "Live nodes at the last sample.")
	s.participating = reg.Gauge("agg_scenario_participating", "Nodes participating in the current epoch.")
	s.trueMean = reg.Gauge("agg_scenario_true_mean", "Instantaneous mean of the live nodes' local values.")
	s.meanEstimate = reg.Gauge("agg_scenario_mean_estimate", "Mean of the participants' estimates.")
	s.estimateStdDev = reg.Gauge("agg_scenario_estimate_stddev", "Standard deviation of the participants' estimates.")
	s.relError = reg.Gauge("agg_scenario_rel_error", "Normalized |estimate - true mean| error.")
	s.observedRho = reg.Gauge("agg_convergence_observed_rho",
		"Observed per-cycle variance reduction factor of the estimates (within the current epoch).")
	s.theoryRho = reg.Gauge("agg_convergence_theory_rho",
		"Theoretical per-cycle variance reduction factor 1/(2*sqrt(e)) of push-pull averaging.")
	s.rhoRatio = reg.Gauge("agg_convergence_rho_ratio",
		"Observed over theoretical variance reduction; ~1 means the fleet converges at the paper's rate.")
	s.theoryRho.Set(theory.RhoPushPull)
	// Adversary series exist for every run — zero on honest scenarios —
	// so dashboards keep one schema; bindAdversary rebinds them to a
	// run's live schedule.
	reg.GaugeFunc("agg_adversary_nodes", advNodesHelp, func() float64 { return 0 })
	reg.CounterFunc("agg_adversary_lies_total", advLiesHelp, func() int64 { return 0 })
	reg.CounterFunc("agg_adversary_rejected_total", advRejectHelp, func() int64 { return 0 })
	reg.CounterFunc("agg_adversary_joins_refused_total", advRefusedHelp, func() int64 { return 0 })
	s.advBias = reg.Gauge("agg_adversary_bias", advBiasHelp)
	// Every executor exports the transport series so dashboards see one
	// schema; the live and udp executors rebind the funcs to their real
	// transports (registry funcs are rebindable), the simulator has no
	// wire and reports zeros.
	reg.GaugeFunc("agg_transport_queue_depth",
		"High watermark of the transport's internal queue depth.",
		func() float64 { return 0 })
	reg.HistogramFunc("agg_transport_batch_size",
		"Datagrams moved per batched socket operation.",
		func() obs.HistSnapshot {
			return obs.HistSnapshot{
				Bounds: transport.BatchSizeBuckets,
				Counts: make([]int64, len(transport.BatchSizeBuckets)),
			}
		})
	return s
}

// bindScript hooks the hostile-population gauge and the join-refusal
// counter to one run's interpreter (a no-op for a run with neither an
// adversary nor a join cap, which keeps the zero-valued series).
func (s *scenarioObs) bindScript(sp *script) {
	if s == nil || s.reg == nil || (sp.adv == nil && sp.sc.Defense.JoinCap == 0) {
		return
	}
	s.reg.GaugeFunc("agg_adversary_nodes", advNodesHelp, func() float64 {
		if sp.adv == nil {
			return 0
		}
		return float64(sp.adv.HostileCount())
	})
	s.reg.CounterFunc("agg_adversary_joins_refused_total", advRefusedHelp, func() int64 {
		return sp.joinsRefused.Load()
	})
}

// bindAdversary hooks the adversary instruments to one simulation run:
// the agg_adversary_* counters read the run's schedule, guard and join
// bookkeeping at scrape time, and observe() publishes the bias gauge
// against the honest-twin baseline (nil baseline = no bias series). The
// real fleets bind only the script: their lie and rejection counters are
// agent metrics, exported by agent.RegisterMetrics.
func (s *scenarioObs) bindAdversary(d *simDriver, baseline []CycleMetrics) {
	if s == nil {
		return
	}
	s.baseline = baseline
	s.bindScript(d.script)
	if s.reg == nil || (d.adv == nil && d.guard == nil) {
		return
	}
	adv, guard := d.adv, d.guard
	s.reg.CounterFunc("agg_adversary_lies_total", advLiesHelp, func() int64 {
		if adv == nil {
			return 0
		}
		return adv.Lies()
	})
	s.reg.CounterFunc("agg_adversary_rejected_total", advRejectHelp, func() int64 {
		if guard == nil {
			return 0
		}
		return guard.Rejected()
	})
}

// observe publishes one cycle's metrics row: gauges, convergence watch,
// health-rule evaluation, and the flight-recorder snapshot.
func (s *scenarioObs) observe(c CycleMetrics, proto protoTotals) {
	if s == nil {
		return
	}
	if s.cycle != nil {
		s.cycle.Set(float64(c.Cycle))
		s.epoch.Set(float64(c.Epoch))
		s.alive.Set(float64(c.Alive))
		s.participating.Set(float64(c.Participating))
		s.trueMean.Set(c.TrueMean)
		s.meanEstimate.Set(c.MeanEstimate)
		s.estimateStdDev.Set(c.EstimateStdDev)
		s.relError.Set(c.RelError)
		if s.baseline != nil && c.Cycle < len(s.baseline) {
			s.advBias.Set(c.MeanEstimate - s.baseline[c.Cycle].MeanEstimate)
		}
	}
	rho, ok := s.watch.observe(c)
	if !ok {
		rho = 0
	} else if s.observedRho != nil {
		s.observedRho.Set(rho)
		s.rhoRatio.Set(rho / theory.RhoPushPull)
	}
	alerts := s.health.Eval(obs.HealthSample{
		Cycle:          c.Cycle,
		Epoch:          uint64(c.Epoch),
		Alive:          c.Alive,
		Participating:  c.Participating,
		TrueMean:       c.TrueMean,
		MeanEstimate:   c.MeanEstimate,
		EstimateStdDev: c.EstimateStdDev,
		RelError:       c.RelError,
		RhoHat:         rho,
		TheoryRho:      theory.RhoPushPull,
		Initiated:      proto.Initiated,
		Completed:      proto.Completed,
		Timeouts:       proto.Timeouts,
		Declined:       proto.Declined,
		Drops:          proto.Drops,
	})
	s.timeline.Record(obs.TimelineEntry{
		Cycle:          c.Cycle,
		Epoch:          uint64(c.Epoch),
		Alive:          c.Alive,
		Participating:  c.Participating,
		TrueMean:       c.TrueMean,
		MeanEstimate:   c.MeanEstimate,
		EstimateStdDev: c.EstimateStdDev,
		RelError:       c.RelError,
		RhoHat:         rho,
		Drops:          proto.Drops,
		Alerts:         alerts,
	})
}

// convergenceWatch derives the observed per-cycle variance reduction
// factor ρ̂_i = σ²_i / σ²_{i−1} from consecutive same-epoch samples —
// the measured counterpart of the paper's §3 convergence factor. The
// ratio is only meaningful within one epoch: estimates restart from
// fresh local values at every epoch boundary (§4.1), so the first cycle
// of an epoch resets the baseline instead of reporting a bogus blow-up.
type convergenceWatch struct {
	havePrev  bool
	prevEpoch int
	prevVar   float64
}

// observe folds in one sample and reports the reduction factor when the
// previous cycle of the same epoch had positive estimate variance.
func (w *convergenceWatch) observe(c CycleMetrics) (rho float64, ok bool) {
	variance := c.EstimateStdDev * c.EstimateStdDev
	prevVar, usable := w.prevVar, w.havePrev && c.Epoch == w.prevEpoch
	w.havePrev, w.prevEpoch, w.prevVar = true, c.Epoch, variance
	if !usable || prevVar <= 0 {
		return 0, false
	}
	return variance / prevVar, true
}
