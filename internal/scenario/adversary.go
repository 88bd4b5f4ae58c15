package scenario

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"antientropy/internal/agent"
	"antientropy/internal/stats"
)

// advSchedule is the materialized Byzantine plan of one run: which node
// slots are attacker-controlled and what each reports, decided by one
// rule for the wire (report) and one for the epoch restart
// (restartValue) on every executor. It is derived from the Scenario
// alone — a dedicated RNG seeded from the scenario seed picks the
// Byzantine slots — so every executor (serial sim, sharded sim, live
// and udp fleets) selects the identical attacker set and their metric
// streams stay comparable, exactly as the honest script machinery does.
type advSchedule struct {
	sc    Scenario
	total int // run length in cycles

	// byzOf[slot] is the index of the adversary entry controlling the
	// slot (-1 = honest). Slots are drawn from the initial population
	// [0, N); sybil attackers instead mark the join slots they take.
	byzOf []int
	// sybilOf[slot] is the adversary index of the sybil attacker
	// occupying the slot (-1 = none), marked as sybil joins land. The
	// script marks it while a live fleet's nodes read it, hence atomics.
	sybilOf []atomic.Int32

	// simPast[slot] is the simulator's record of a replay-stale slot's
	// sealed epoch estimates, oldest first, the last Lag of them — what a
	// live node keeps in its own outputs. Written serially at epoch
	// boundaries (BeforeCycle), read-only during the exchange phase, so
	// the sharded engine's parallel shards need no locking.
	simPast [][]agent.Output

	byzN   int
	sybilN atomic.Int64
	lies   atomic.Int64
}

// newAdvSchedule materializes the Byzantine plan for a run over `slots`
// node slots, or returns nil when the scenario has no adversaries —
// the nil schedule keeps every honest code path bit-identical to the
// pre-adversary engine.
func newAdvSchedule(sc Scenario, slots int) *advSchedule {
	if !sc.HasAdversary() {
		return nil
	}
	s := &advSchedule{
		sc:      sc,
		total:   sc.Cycles,
		byzOf:   make([]int, slots),
		sybilOf: make([]atomic.Int32, slots),
		simPast: make([][]agent.Output, slots),
	}
	for i := range s.byzOf {
		s.byzOf[i] = -1
		s.sybilOf[i].Store(-1)
	}
	// The attacker picks are a pure function of the scenario: a dedicated
	// stream (decorrelated from the driver, value and engine streams)
	// permutes the initial population once per adversary entry, in entry
	// order. Earlier entries win contested slots.
	rng := stats.NewRNG(sc.Seed ^ 0x62797a616e74) // "byzant"
	perm := make([]int, sc.N)
	for ai, a := range sc.Adversaries {
		if a.Behavior == BehaviorSybilFlood {
			continue // sybil attackers create their own nodes
		}
		count := a.Count
		if count == 0 {
			count = int(math.Round(a.Fraction * float64(sc.N)))
		}
		rng.Perm(perm)
		taken := 0
		for _, slot := range perm {
			if taken >= count {
				break
			}
			if s.byzOf[slot] != -1 {
				continue
			}
			s.byzOf[slot] = ai
			s.byzN++
			taken++
		}
	}
	return s
}

// hostile reports whether the slot is attacker-controlled (Byzantine or
// sybil). Membership is constant over the run — the active window gates
// the behavior, not the sample-set filtering — so the honest population
// the metrics are computed over never shifts mid-run.
func (s *advSchedule) hostile(node int) bool {
	return s.byzOf[node] >= 0 || s.sybilOf[node].Load() >= 0
}

// HostileCount returns the number of attacker-controlled slots so far
// (static Byzantine picks plus sybil joins that have landed).
func (s *advSchedule) HostileCount() int { return s.byzN + int(s.sybilN.Load()) }

// Lies returns the cumulative count of corrupted wire reports.
func (s *advSchedule) Lies() int64 { return s.lies.Load() }

// markSybil records a sybil attacker landing on a join slot.
func (s *advSchedule) markSybil(slot, adversary int) {
	s.sybilOf[slot].Store(int32(adversary))
	s.sybilN.Add(1)
}

// liesOnWire reports whether the behavior rewrites what a node reports
// in its exchanges rather than the value it restarts with.
func (a Adversary) liesOnWire() bool {
	return a.Behavior == BehaviorLieEstimate || a.Behavior == BehaviorReplayStale
}

// restartValue is the value a slot (re)starts an epoch with at the given
// cycle (§4.1), on every executor: the honest scripted value, except
// that a sybil slot always reports its attacker's value and an
// inject-extreme slot poisons it while active. Cycle 0 is the founding
// restart; the adversary window is 1-based, so it is evaluated as cycle
// 1. The schedule never touches the ValueProgram, so the truth signal
// stays honest. adv may be nil.
func restartValue(adv *advSchedule, prog *ValueProgram, slot, cycle int) float64 {
	honest := prog.Value(slot, cycle)
	if adv == nil {
		return honest
	}
	if ai := adv.sybilOf[slot].Load(); ai >= 0 {
		return adv.sc.Adversaries[ai].Value
	}
	if ai := adv.byzOf[slot]; ai >= 0 {
		a := &adv.sc.Adversaries[ai]
		if a.Behavior == BehaviorInjectExtreme && a.activeAt(max(cycle, 1), adv.total) {
			return a.Value
		}
	}
	return honest
}

// report decides what a slot reports on the wire at the given cycle, on
// every executor. local is its honest estimate in epoch, and past its
// sealed epoch outputs, oldest first. A lie-estimate slot reports Value,
// or Amplify × local, tagged with epoch. A replay-stale slot reports the
// output it sealed Lag epochs back, with that output's epoch tag, which
// is exactly what §4.3's DropStale screens. lied is false where the slot
// answers honestly: it is honest, its window is not active, or it has
// sealed fewer than Lag outputs.
func (s *advSchedule) report(slot, cycle int, local float64, epoch uint64, past []agent.Output) (v float64, tag uint64, lied bool) {
	ai := s.byzOf[slot]
	if ai < 0 {
		return 0, 0, false
	}
	a := &s.sc.Adversaries[ai]
	if !a.activeAt(cycle, s.total) {
		return 0, 0, false
	}
	switch a.Behavior {
	case BehaviorLieEstimate:
		if a.Amplify != 0 {
			return a.Amplify * local, epoch, true
		}
		return a.Value, epoch, true
	case BehaviorReplayStale:
		if len(past) < a.Lag {
			return 0, 0, false
		}
		out := past[len(past)-a.Lag]
		return out.Value, out.Epoch, true
	}
	return 0, 0, false
}

// engineHook adapts report to the simulation engine (sim.Config's
// Adversary), or returns nil when no slot lies on the wire (s nil
// included). The engine has no epoch tags; a replay reads the estimates
// snapshotEpoch records. The engine's shards may call it concurrently.
func (s *advSchedule) engineHook() func(cycle, node int, local float64) (float64, bool) {
	if s == nil || !slices.ContainsFunc(s.sc.Adversaries, Adversary.liesOnWire) {
		return nil
	}
	return func(cycle, node int, local float64) (float64, bool) {
		v, _, lied := s.report(node, cycle, local, 0, s.simPast[node])
		if lied {
			s.lies.Add(1)
		}
		return v, lied
	}
}

// snapshotEpoch seals the participating replay-stale slots' current
// estimates at an epoch boundary (call before the Restart wipes them),
// keeping the last Lag of them. estimate reports a slot's estimate and
// whether it took part in the ending epoch: as on a live node, a slot
// that sat the epoch out (a joiner) seals nothing.
func (s *advSchedule) snapshotEpoch(estimate func(node int) (float64, bool)) {
	for slot, ai := range s.byzOf {
		if ai < 0 || s.sc.Adversaries[ai].Behavior != BehaviorReplayStale {
			continue
		}
		v, ok := estimate(slot)
		if !ok {
			continue
		}
		past := append(s.simPast[slot], agent.Output{Value: v})
		if lag := s.sc.Adversaries[ai].Lag; len(past) > lag {
			past = past[1:]
		}
		s.simPast[slot] = past
	}
}

// forget drops a slot's replay record when the simulator crashes or
// replaces the node in it: a new node has sealed nothing, so it answers
// honestly for its first Lag epochs, as a new live node does.
func (s *advSchedule) forget(slot int) {
	if s != nil {
		s.simPast[slot] = nil
	}
}

// wireHook adapts report to a fleet slot's agent (agent.Config's
// Adversary), or returns nil for a slot that does not lie on the wire
// (every slot, when s is nil).
// The agent calls it under the node's lock with the node's own sealed
// outputs, and counts the lies in its metrics; the hook reads only the
// immutable schedule and the fleet's atomic cycle clock.
func (s *advSchedule) wireHook(slot int, cycleNow *atomic.Int64) func(uint64, float64, []agent.Output) (float64, uint64, bool) {
	if s == nil || s.byzOf[slot] < 0 || !s.sc.Adversaries[s.byzOf[slot]].liesOnWire() {
		return nil
	}
	return func(epoch uint64, local float64, past []agent.Output) (float64, uint64, bool) {
		return s.report(slot, int(cycleNow.Load()), local, epoch, past)
	}
}

// BiasReport quantifies an attack's impact: the per-cycle difference
// between the attacked run's mean estimate and its honest twin's, both
// executed with the same seed, engine and defense (see HonestTwin). With
// honest metrics sampled over the honest population only, the bias
// isolates what the attack leaks into honest estimates.
type BiasReport struct {
	// Scenario and Executor identify the attacked run.
	Scenario string `json:"scenario"`
	Executor string `json:"executor"`
	// Cycles is the number of per-cycle rows compared.
	Cycles int `json:"cycles"`
	// PerCycle[i] = attacked mean estimate − honest mean estimate at
	// cycle i.
	PerCycle []float64 `json:"perCycle"`
	// MeanAbsBias and MaxAbsBias aggregate |bias| over the run;
	// MaxAbsBiasCycle is where it peaked; FinalAbsBias is the last row.
	MeanAbsBias     float64 `json:"meanAbsBias"`
	MaxAbsBias      float64 `json:"maxAbsBias"`
	MaxAbsBiasCycle int     `json:"maxAbsBiasCycle"`
	FinalAbsBias    float64 `json:"finalAbsBias"`
}

// String renders the report's aggregate lines for CLI summaries.
func (r BiasReport) String() string {
	return fmt.Sprintf("bias %s/%s: mean|b|=%.4g max|b|=%.4g (cycle %d) final|b|=%.4g over %d cycles",
		r.Scenario, r.Executor, r.MeanAbsBias, r.MaxAbsBias, r.MaxAbsBiasCycle, r.FinalAbsBias, r.Cycles)
}

// Bias aligns an attacked run with its honest twin by cycle index and
// reports the estimate bias the attack induced.
func Bias(attacked, honest *RunResult) BiasReport {
	rep := BiasReport{Scenario: attacked.Scenario, Executor: attacked.Executor}
	n := len(attacked.PerCycle)
	if len(honest.PerCycle) < n {
		n = len(honest.PerCycle)
	}
	rep.Cycles = n
	if n == 0 {
		return rep
	}
	rep.PerCycle = make([]float64, n)
	var sum float64
	for c := 0; c < n; c++ {
		b := attacked.PerCycle[c].MeanEstimate - honest.PerCycle[c].MeanEstimate
		rep.PerCycle[c] = b
		ab := math.Abs(b)
		sum += ab
		if ab > rep.MaxAbsBias {
			rep.MaxAbsBias = ab
			rep.MaxAbsBiasCycle = attacked.PerCycle[c].Cycle
		}
	}
	rep.MeanAbsBias = sum / float64(n)
	rep.FinalAbsBias = math.Abs(rep.PerCycle[n-1])
	return rep
}

// TwinResult pairs an attacked simulation run with its honest twin and
// the derived bias report.
type TwinResult struct {
	Attacked *RunResult `json:"attacked"`
	Honest   *RunResult `json:"honest"`
	Bias     BiasReport `json:"bias"`
}

// RunSimWithTwin executes the scenario twice on the same engine and
// seed — once with its adversary section stripped (HonestTwin) and once
// as configured — and reports the attack's per-cycle estimate bias. The
// honest twin runs first so the attacked run can publish the
// agg_adversary_bias gauge live against the twin's trajectory;
// telemetry options only apply to the attacked run.
func RunSimWithTwin(sc Scenario, opts SimOptions) (*TwinResult, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	twinOpts := opts
	twinOpts.Obs, twinOpts.Timeline, twinOpts.Logger = nil, nil, nil
	twinOpts.BiasBaseline = nil
	honest, err := RunSimWith(sc.HonestTwin(), twinOpts)
	if err != nil {
		return nil, err
	}
	opts.BiasBaseline = honest.PerCycle
	attacked, err := RunSimWith(sc, opts)
	if err != nil {
		return nil, err
	}
	return &TwinResult{Attacked: attacked, Honest: honest, Bias: Bias(attacked, honest)}, nil
}
