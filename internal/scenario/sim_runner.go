package scenario

import (
	"fmt"
	"log/slog"
	"runtime"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/obs"
	"antientropy/internal/sim"
	"antientropy/internal/stats"
)

// Engine names for SimOptions.Engine. There is one simulation engine
// (internal/sim); the names choose its shard count K.
const (
	// EngineSerial is K = 1 — the default: every exchange applies at once
	// in one global random order, bit-for-bit deterministic from the
	// scenario seed alone.
	EngineSerial = "serial"
	// EngineSharded is K = SimOptions.Shards across the cores:
	// deterministic per (seed, K), built for 10⁵–10⁶-node runs.
	EngineSharded = "sharded"
	// EngineAuto selects by scenario size: EngineSharded at
	// AutoEngineThreshold slots and above, EngineSerial below. An explicit
	// engine always wins; the resolved choice is visible in
	// RunResult.Executor ("sim" vs "sim-sharded").
	EngineAuto = "auto"
)

// AutoEngineThreshold is the network size at or above which EngineAuto
// shards a run across the cores instead of running it at K = 1.
const AutoEngineThreshold = 20000

// ResolveEngine maps an engine name and a shard option (0 = GOMAXPROCS)
// for a run over `slots` node slots to the resolved name — EngineSerial
// or EngineSharded — and the shard count K to configure the engine with.
// The empty name means EngineSerial.
func ResolveEngine(engine string, shards, slots int) (string, int, error) {
	if engine == EngineAuto {
		engine = EngineSerial
		if slots >= AutoEngineThreshold {
			engine = EngineSharded
		}
	}
	switch engine {
	case "", EngineSerial:
		return EngineSerial, 1, nil
	case EngineSharded:
		if shards == 0 {
			shards = runtime.GOMAXPROCS(0)
		}
		return EngineSharded, shards, nil
	default:
		return "", 0, fmt.Errorf("unknown engine %q (want %q, %q or %q)",
			engine, EngineAuto, EngineSerial, EngineSharded)
	}
}

// SimOptions tune the simulator executor.
type SimOptions struct {
	// Engine selects the shard count: EngineSerial (also ""),
	// EngineSharded, or EngineAuto to pick by scenario size.
	Engine string
	// Shards is K for EngineSharded (0 = GOMAXPROCS). Results are
	// deterministic per shard count: the same seed and the same shard
	// count reproduce a run bit-for-bit; different shard counts are
	// statistically equivalent but not identical.
	Shards int
	// Workers bounds the engine's goroutines (0 = GOMAXPROCS). Callers
	// that already parallelize across repetitions set it to 1 to avoid
	// oversubscribing the cores; it never affects results.
	Workers int
	// Obs, when set, receives the per-cycle scenario gauges and the
	// convergence watch (agg_scenario_* / agg_convergence_*), updated as
	// each cycle is observed. It never affects results.
	Obs *obs.Registry
	// Timeline, when set, receives one flight-recorder snapshot per
	// observed cycle (see obs.Timeline). It never affects results.
	Timeline *obs.Timeline
	// BiasBaseline, when set, is an honest twin's per-cycle metrics; the
	// run then publishes the agg_adversary_bias gauge as its own mean
	// estimate minus the baseline's at the same cycle. RunSimWithTwin
	// sets it automatically. It never affects results.
	BiasBaseline []CycleMetrics
	// Logger receives the health engine's alert fire/clear events
	// (default: discard). Health rules are evaluated whenever Obs or
	// Timeline is set.
	Logger *slog.Logger
}

// RunSim executes the scenario on the deterministic cycle-driven engine
// with default options.
func RunSim(sc Scenario) (*RunResult, error) { return RunSimWith(sc, SimOptions{}) }

// RunSimWith executes the scenario on the simulation engine: epoch
// restarts and then the script's events run in the engine's BeforeCycle
// hook, and partitions go through the exchange filter (which the
// engine also applies to NEWSCAST gossip, so a partition splits the
// overlay exactly as the live executor's transport partition does). The
// whole run is reproducible bit-for-bit from the scenario seed — plus
// the shard count when EngineSharded is selected.
func RunSimWith(sc Scenario, opts SimOptions) (*RunResult, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	slots := sc.MaxSlots()
	engine, shards, err := ResolveEngine(opts.Engine, opts.Shards, slots)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	executor := "sim"
	if engine == EngineSharded {
		executor = "sim-sharded"
	}
	d := &simDriver{
		sc:   sc,
		prog: NewValueProgram(sc, slots),
		adv:  newAdvSchedule(sc, slots),
	}
	d.script = newScript(sc, slots, stats.NewRNG(sc.Seed^0x7363656e6172696f), d.adv, opts.Logger)
	// The combiner error was already screened by Validate.
	if c, _ := sc.Defense.combiner(); c != nil {
		d.guard = core.NewMergeGuard(c, sc.Defense.Samples, slots)
	}
	sobs := newScenarioObs(opts.Obs, opts.Timeline, opts.Logger)
	sobs.bindAdversary(d, opts.BiasBaseline)
	d.log = newRunLog(sc, executor, d.prog, d.adv, sobs)
	_, err = sim.Run(sim.Config{
		N:            d.log.result.Slots,
		InitialAlive: sc.N,
		Cycles:       sc.Cycles,
		Seed:         sc.Seed,
		Shards:       shards,
		Workers:      opts.Workers,
		Fn:           core.Average,
		Init:         func(node int) float64 { return d.initValue(node, 0) },
		Adversary:    d.advHook(),
		Guard:        d.guard,
		Overlay:      sim.Newscast(30),
		MessageLoss:  sc.MessageLoss,
		LinkFailure:  sc.LinkFailure,
		BeforeCycle: func(cycle int, e *sim.Engine) {
			d.beforeCycle(cycle, e)
			d.applyEvents(cycle, e)
		},
		Observe: d.observe,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %s executor: %w", sc.Name, executor, err)
	}
	return d.log.result, nil
}

// simDriver binds one scenario run to the simulation engine.
type simDriver struct {
	sc     Scenario
	prog   *ValueProgram
	script *script
	log    *runLog

	// adv is the Byzantine plan (nil for honest scenarios — the nil
	// schedule keeps the honest paths bit-identical to the legacy
	// engine); guard is the combiner defense (nil without one).
	adv   *advSchedule
	guard *core.MergeGuard
}

// initValue resolves a node's (re)start value: the honest scripted value
// unless the adversary schedule overrides it (inject-extreme poisoning,
// sybil slots). Cycle 0 is the initial state; its adversary window is
// evaluated as cycle 1, the first cycle the run executes.
func (d *simDriver) initValue(node, cycle int) float64 {
	honest := d.prog.Value(node, cycle)
	if d.adv == nil {
		return honest
	}
	wcycle := cycle
	if wcycle < 1 {
		wcycle = 1
	}
	return d.adv.initValue(node, wcycle, honest)
}

// advHook exposes the wire-lying hook for the engine configs (nil for
// honest scenarios).
func (d *simDriver) advHook() func(cycle, node int, local float64) (float64, bool) {
	if d.adv == nil {
		return nil
	}
	return d.adv.engineHook()
}

// beforeCycle implements §4.1/§4.2 at epoch boundaries: the protocol
// restarts from the current scripted values and waiting joiners become
// participants. Replay-stale attackers snapshot the estimates they will
// replay just before the restart wipes them.
func (d *simDriver) beforeCycle(cycle int, e *sim.Engine) {
	if cycle > 1 && (cycle-1)%d.sc.EpochLen == 0 {
		if d.adv != nil {
			d.adv.snapshotEpoch(func(node int) float64 { return e.Value(node) })
		}
		e.Restart(func(node int) float64 { return d.initValue(node, cycle) })
	}
}

// applyEvents runs the script for one cycle.
func (d *simDriver) applyEvents(cycle int, e *sim.Engine) {
	d.script.step(cycle, simFleet{e: e, rng: d.script.rng})
}

// simFleet performs the script's actions on a simulation engine. Victims
// are drawn by the engine's own RNG and a heal reseeds overlay views in
// place, so a seed's rows do not depend on which fleets exist besides
// this one. A cycle-driven engine has no sub-cycle time to delay.
type simFleet struct {
	e   simEngine
	rng *stats.RNG
}

// simEngine is the part of *sim.Engine a simFleet acts on; a script test
// substitutes a fake that records the filter, loss rate and reseeds.
type simEngine interface {
	AliveCount() int
	Alive(node int) bool
	RandomAlive() int
	Kill(node int)
	Replace(node int)
	SetMessageLoss(p float64)
	SetExchangeFilter(filter func(i, j int) bool)
	ReseedOverlay(node int)
}

func (f simFleet) aliveCount() int                  { return f.e.AliveCount() }
func (f simFleet) pickAlive() int                   { return f.e.RandomAlive() }
func (f simFleet) crash(slot int)                   { f.e.Kill(slot) }
func (f simFleet) joinAs(slot, _ int)               { f.e.Replace(slot) }
func (f simFleet) setLoss(p float64)                { f.e.SetMessageLoss(p) }
func (f simFleet) setDelay(_, _ time.Duration) bool { return false }

// split installs the exchange veto — which the engine also applies to
// NEWSCAST gossip, so the overlay splits along with the aggregation
// traffic.
func (f simFleet) split(groupOf []int) {
	f.e.SetExchangeFilter(func(i, j int) bool { return groupOf[i] == groupOf[j] })
}

// heal removes the veto and performs the rendezvous refresh the real
// fleets model with out-of-band contacts (see bridgeContacts): reseeding
// a few bridge nodes per component from the global membership restores
// the cross-component descriptors a long partition aged out of every
// view; epidemic gossip spreads the bridges from there.
func (f simFleet) heal(groupOf []int, wasActive bool) {
	f.e.SetExchangeFilter(nil)
	if !wasActive {
		return
	}
	const bridgesPerGroup = 4
	groups := 0
	for _, g := range groupOf {
		if g+1 > groups {
			groups = g + 1
		}
	}
	for g := 0; g < groups; g++ {
		members := make([]int, 0, len(groupOf))
		for slot, sg := range groupOf {
			if sg == g && f.e.Alive(slot) {
				members = append(members, slot)
			}
		}
		if len(members) == 0 {
			continue
		}
		for b := 0; b < bridgesPerGroup; b++ {
			f.e.ReseedOverlay(members[f.rng.Intn(len(members))])
		}
	}
}

// observe logs one cycle's row. The simulator has no wall-clock timeouts;
// every silently lost exchange (link drop, message loss, partition veto)
// plays the timeout role for the health rules, while §7.1 refusals map to
// declines. Under an adversary the estimate moments cover the honest
// population only: the attack's impact is what leaks into honest
// estimates.
func (d *simDriver) observe(cycle int, e *sim.Engine) {
	var est stats.Moments
	if d.adv == nil {
		est = e.ParticipantMoments()
	} else {
		e.ForEachParticipant(func(node int, v float64) {
			if !d.adv.hostile(node) {
				est.Add(v)
			}
		})
	}
	cur := e.Metrics()
	silent := cur.LinkDrops + cur.RequestLosses + cur.ReplyLosses + cur.PartitionDrops
	d.log.record(cycle, e.AliveCount(), e.ParticipantCount(), est, e.Alive, protoTotals{
		Initiated: cur.Attempts,
		Completed: cur.Completed,
		Timeouts:  cur.Timeouts + silent,
		Declined:  cur.Refusals,
		Drops:     silent,
	})
}
