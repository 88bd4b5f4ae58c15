package obs

import (
	"log/slog"
	"math"
)

// HealthSample is one cycle's worth of fleet state fed to the health
// engine: the scenario snapshot plus the cumulative protocol counters
// the rules difference between cycles.
type HealthSample struct {
	Cycle int
	Epoch uint64
	// Alive and Participating count the fleet.
	Alive         int
	Participating int
	// Estimate quality.
	TrueMean       float64
	MeanEstimate   float64
	EstimateStdDev float64
	RelError       float64
	// RhoHat is the observed per-cycle variance-reduction factor, 0
	// when not computable this cycle (epoch boundary, zero variance).
	// TheoryRho is the expected value (theory.RhoPushPull).
	RhoHat    float64
	TheoryRho float64
	// Cumulative protocol counters (fleet-wide totals).
	Initiated int64
	Completed int64
	Timeouts  int64
	Declined  int64
	// Drops is the cumulative transport drop count (queue + filter).
	Drops int64
}

// Health rule thresholds.
const (
	// stallRatio, stallCycles and stallMinSpread define
	// convergence_stall: ρ̂ > stallRatio × theory for stallCycles
	// consecutive evaluable cycles, while the estimate spread is still
	// meaningfully wide (relative stddev above stallMinSpread).
	stallRatio     = 2
	stallCycles    = 5
	stallMinSpread = 1e-3
	// driftRelError and driftCycles define mass_drift: relative
	// estimation error above driftRelError for driftCycles consecutive
	// cycles late in an epoch would mean mass was lost or injected.
	driftRelError = 0.25
	driftCycles   = 6
	// lossRatio, lossMinAttempts and lossCycles define
	// exchange_loss_spike: per-cycle (timeouts+declined)/initiated above
	// lossRatio over at least lossMinAttempts attempts for lossCycles
	// consecutive cycles.
	lossRatio       = 0.5
	lossMinAttempts = 8
	lossCycles      = 3
	// partitionTimeoutShare, partitionSkew and partitionCycles define
	// partition_suspect: timeouts alone take more than
	// partitionTimeoutShare of attempts AND outnumber declines by
	// partitionSkew× — peers silently unreachable rather than busy — for
	// partitionCycles consecutive cycles.
	partitionTimeoutShare = 0.2
	partitionSkew         = 3
	partitionCycles       = 3
)

// Health rule names, the `rule` label values of agg_alerts_total.
const (
	RuleConvergenceStall  = "convergence_stall"
	RuleMassDrift         = "mass_drift"
	RuleExchangeLossSpike = "exchange_loss_spike"
	RulePartitionSuspect  = "partition_suspect"
)

// healthRuleNames lists every rule so the exported series exist (at
// zero) from the first scrape, before anything fires.
var healthRuleNames = []string{
	RuleConvergenceStall, RuleMassDrift, RuleExchangeLossSpike, RulePartitionSuspect,
}

// healthRule is one rule's streak state.
type healthRule struct {
	name    string
	need    int // consecutive true evaluations before firing
	streak  int
	active  bool
	fired   *Counter
	activeG *Gauge
}

// Health evaluates the fleet health rules once per cycle, maintaining
// per-rule streaks so one noisy cycle does not page anyone: a rule
// fires after its condition holds for K consecutive cycles, stays
// active while the condition holds, and clears on the first clean
// cycle. Transitions bump agg_alerts_total{rule=...}, flip
// agg_alert_active{rule=...} and emit structured slog events. Not
// safe for concurrent use — drive it from one sampling loop.
type Health struct {
	log   *slog.Logger
	rules map[string]*healthRule

	havePrev bool
	prev     HealthSample
}

// NewHealth builds the engine, registering the alert metric families
// on reg (nil reg: metrics are kept internally but not exported). log
// receives structured fire/clear events (nil: discard).
func NewHealth(reg *Registry, log *slog.Logger) *Health {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	if reg == nil {
		reg = NewRegistry()
	}
	fired := reg.CounterVec("agg_alerts_total",
		"Health-rule alert firings (transitions into the active state).", "rule")
	activeG := reg.GaugeVec("agg_alert_active",
		"Health rules currently active (1) or clear (0).", "rule")
	h := &Health{log: log, rules: make(map[string]*healthRule)}
	need := map[string]int{
		RuleConvergenceStall:  stallCycles,
		RuleMassDrift:         driftCycles,
		RuleExchangeLossSpike: lossCycles,
		RulePartitionSuspect:  partitionCycles,
	}
	for _, name := range healthRuleNames {
		r := &healthRule{
			name:    name,
			need:    need[name],
			fired:   fired.With(name),
			activeG: activeG.With(name),
		}
		r.activeG.Set(0)
		h.rules[name] = r
	}
	return h
}

// Eval feeds one cycle's sample through every rule and returns the
// names of the rules active after this cycle (sorted by the canonical
// rule order), for the timeline's alerts column.
func (h *Health) Eval(s HealthSample) []string {
	conds := h.conditions(s)
	h.prev, h.havePrev = s, true
	var active []string
	for _, name := range healthRuleNames {
		r := h.rules[name]
		if h.step(r, conds[name], s) {
			active = append(active, name)
		}
	}
	return active
}

// step advances one rule's streak machine and reports whether it is
// active after this cycle.
func (h *Health) step(r *healthRule, cond bool, s HealthSample) bool {
	if !cond {
		r.streak = 0
		if r.active {
			r.active = false
			r.activeG.Set(0)
			h.log.Info("health alert cleared", "rule", r.name, "cycle", s.Cycle, "epoch", s.Epoch)
		}
		return false
	}
	r.streak++
	if !r.active && r.streak >= r.need {
		r.active = true
		r.fired.Inc()
		r.activeG.Set(1)
		h.log.Warn("health alert fired", "rule", r.name, "cycle", s.Cycle, "epoch", s.Epoch,
			"rho_hat", s.RhoHat, "rel_error", s.RelError, "alive", s.Alive)
	}
	return r.active
}

// conditions evaluates each rule's raw per-cycle condition.
func (h *Health) conditions(s HealthSample) map[string]bool {
	out := make(map[string]bool, len(healthRuleNames))

	// convergence_stall: the variance-reduction factor is computable
	// and far above theory while the estimates are still spread out —
	// the signature of a partitioned or loss-choked fleet whose global
	// variance has stopped halving. The spread floor keeps converged
	// fleets (where ρ̂ is numerical noise over ~0 variance) quiet.
	spread := math.Abs(s.EstimateStdDev)
	floor := stallMinSpread * math.Max(math.Abs(s.MeanEstimate), 1)
	out[RuleConvergenceStall] = s.RhoHat > 0 && s.TheoryRho > 0 &&
		s.RhoHat > stallRatio*s.TheoryRho && spread > floor

	// mass_drift: the fleet mean is persistently far from ground
	// truth — mass left (crashes mid-exchange) or was injected.
	out[RuleMassDrift] = s.RelError > driftRelError

	// Delta-based rules need a previous sample.
	var dAttempts, dTimeouts, dDeclined float64
	if h.havePrev {
		dAttempts = float64(s.Initiated - h.prev.Initiated)
		dTimeouts = float64(s.Timeouts - h.prev.Timeouts)
		dDeclined = float64(s.Declined - h.prev.Declined)
	}
	enough := h.havePrev && dAttempts >= lossMinAttempts

	// exchange_loss_spike: a burst of failed exchanges, whatever the
	// cause (timeouts or NACKs).
	out[RuleExchangeLossSpike] = enough &&
		(dTimeouts+dDeclined)/dAttempts > lossRatio

	// partition_suspect: failures dominated by silent timeouts, not
	// NACKs — peers that answered nothing at all, the skew a network
	// partition produces (a busy fleet declines, a partitioned one
	// vanishes).
	out[RulePartitionSuspect] = enough &&
		dTimeouts/dAttempts > partitionTimeoutShare &&
		dTimeouts > partitionSkew*dDeclined

	return out
}
