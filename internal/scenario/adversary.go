package scenario

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"antientropy/internal/agent"
	"antientropy/internal/stats"
)

// advSchedule is the materialized Byzantine plan of one run: which node
// slots are attacker-controlled, what each reports on the wire, and the
// bookkeeping the replay attack needs. It is derived from the Scenario
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

	// stale[slot] is the estimate a replay-stale attacker currently
	// replays; staleQ buffers the per-epoch-boundary snapshots until the
	// configured lag is reached. Written serially at epoch boundaries
	// (BeforeCycle), read-only during the exchange phase, so the sharded
	// engine's parallel shards need no locking.
	stale     []float64
	haveStale []bool
	staleQ    [][]float64

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
		sc:        sc,
		total:     sc.Cycles,
		byzOf:     make([]int, slots),
		sybilOf:   make([]atomic.Int32, slots),
		stale:     make([]float64, slots),
		haveStale: make([]bool, slots),
		staleQ:    make([][]float64, slots),
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

// initValue resolves the local value an attacker-controlled slot
// (re)starts an epoch with: inject-extreme poisons the restart value
// while active, sybil slots always report their configured value, and
// everyone else keeps the honest scripted value. The honest value is
// passed in so the schedule never touches the ValueProgram — the truth
// signal stays honest.
func (s *advSchedule) initValue(node, cycle int, honest float64) float64 {
	if ai := s.sybilOf[node].Load(); ai >= 0 {
		return s.sc.Adversaries[ai].Value
	}
	if ai := s.byzOf[node]; ai >= 0 {
		a := s.sc.Adversaries[ai]
		if a.Behavior == BehaviorInjectExtreme && a.activeAt(cycle, s.total) {
			return a.Value
		}
	}
	return honest
}

// engineHook builds the wire-lying hook the simulation engine installs
// (sim.Config.Adversary), or nil when no configured behavior lies on the
// wire. The hook is a pure function of (cycle, node, local) plus the
// serially-updated replay snapshots, so the engine's shards may call it
// concurrently.
func (s *advSchedule) engineHook() func(cycle, node int, local float64) (float64, bool) {
	need := false
	for _, a := range s.sc.Adversaries {
		if a.Behavior == BehaviorLieEstimate || a.Behavior == BehaviorReplayStale {
			need = true
		}
	}
	if !need {
		return nil
	}
	return func(cycle, node int, local float64) (float64, bool) {
		ai := s.byzOf[node]
		if ai < 0 {
			return 0, false
		}
		a := s.sc.Adversaries[ai]
		if !a.activeAt(cycle, s.total) {
			return 0, false
		}
		switch a.Behavior {
		case BehaviorLieEstimate:
			v := a.Value
			if a.Amplify != 0 {
				v = a.Amplify * local
			}
			s.lies.Add(1)
			return v, true
		case BehaviorReplayStale:
			if !s.haveStale[node] {
				return 0, false // no snapshot yet: first epochs answer honestly
			}
			s.lies.Add(1)
			return s.stale[node], true
		}
		return 0, false
	}
}

// snapshotEpoch records the replay-stale attackers' current estimates at
// an epoch boundary (call before the Restart wipes them). Once Lag
// snapshots have accumulated, the oldest becomes the replayed value —
// the estimate the node held Lag epochs ago.
func (s *advSchedule) snapshotEpoch(value func(node int) float64) {
	for slot, ai := range s.byzOf {
		if ai < 0 {
			continue
		}
		a := s.sc.Adversaries[ai]
		if a.Behavior != BehaviorReplayStale {
			continue
		}
		q := append(s.staleQ[slot], value(slot))
		if len(q) > a.Lag {
			q = q[1:]
		}
		s.staleQ[slot] = q
		if len(q) == a.Lag {
			s.stale[slot], s.haveStale[slot] = q[0], true
		}
	}
}

// replayLag returns the replay-stale lag of the adversary controlling
// the slot, or 0 when the slot doesn't replay.
func (s *advSchedule) replayLag(slot int) int {
	if ai := s.byzOf[slot]; ai >= 0 {
		if a := s.sc.Adversaries[ai]; a.Behavior == BehaviorReplayStale {
			return a.Lag
		}
	}
	return 0
}

// liveStaleState hands a replay-stale attacker's lagged snapshot from
// the output-subscription goroutine to its wire hook. The hook runs
// under the node's own state mutex and must not call node methods or
// take driver locks, so the snapshot travels as atomics.
type liveStaleState struct {
	have atomic.Bool
	bits atomic.Uint64 // math.Float64bits of the stale estimate
	tag  atomic.Uint64 // the epoch the estimate was sealed in
}

// liveValueSupplier builds a slot's epoch-restart value supplier for
// the live executors: the honest scripted signal read at the driver's
// current cycle, overridden by the adversary plan (inject-extreme,
// sybil) for attacker-controlled slots. Cycle 0 is the pre-run founding
// restart; the adversary window is 1-based, so poisoning is gated from
// cycle 1 on.
func liveValueSupplier(adv *advSchedule, prog *ValueProgram, slot int, cycleNow *atomic.Int64) func() float64 {
	if adv == nil {
		return func() float64 { return prog.Value(slot, int(cycleNow.Load())) }
	}
	return func() float64 {
		cycle := int(cycleNow.Load())
		honest := prog.Value(slot, cycle)
		w := cycle
		if w < 1 {
			w = 1
		}
		return adv.initValue(slot, w, honest)
	}
}

// wireHook builds a live-fleet slot's wire-lying hook (agent.Config's
// Adversary), or nil for honest slots. The agent applies it at payload
// construction — the single point both the exchange request and the
// pre-merge reply pass through — so lies corrupt the wire while the
// trace XIDs stay intact and exchange traces still stitch. The hook
// runs under the node's state mutex: it reads only the immutable
// schedule, the driver's atomic cycle clock and the replay snapshot
// atomics. Lying is counted by the agent's own metrics, which the
// fleet aggregation (agent.RegisterMetrics) exports.
func (s *advSchedule) wireHook(slot int, st *liveStaleState, cycleNow *atomic.Int64) func(epoch uint64, local float64) (float64, uint64, bool) {
	ai := s.byzOf[slot]
	if ai < 0 {
		return nil
	}
	a := s.sc.Adversaries[ai]
	if a.Behavior != BehaviorLieEstimate && a.Behavior != BehaviorReplayStale {
		return nil
	}
	total := s.total
	return func(epoch uint64, local float64) (float64, uint64, bool) {
		if !a.activeAt(int(cycleNow.Load()), total) {
			return 0, 0, false
		}
		switch a.Behavior {
		case BehaviorLieEstimate:
			v := a.Value
			if a.Amplify != 0 {
				v = a.Amplify * local
			}
			return v, epoch, true
		case BehaviorReplayStale:
			if !st.have.Load() {
				return 0, 0, false // no lagged snapshot yet: answer honestly
			}
			// Replaying the stale epoch tag along with the stale estimate
			// hands honest receivers the §4.3 DropStale defense.
			return math.Float64frombits(st.bits.Load()), st.tag.Load(), true
		}
		return 0, 0, false
	}
}

// replayWatch feeds a replay-stale attacker's snapshot from the node's
// sealed epoch outputs: once lag outputs have accumulated the oldest
// becomes the replayed (estimate, epoch-tag) pair — exactly what the
// node reported lag epochs ago. The subscription closes when the node
// stops, ending the goroutine; wg tracks it for driver shutdown.
func replayWatch(node *agent.Node, st *liveStaleState, lag int, wg *sync.WaitGroup) {
	ch := node.Subscribe(4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var q []agent.Output
		for out := range ch {
			q = append(q, out)
			if len(q) > lag {
				q = q[1:]
			}
			if len(q) == lag {
				st.bits.Store(math.Float64bits(q[0].Value))
				st.tag.Store(q[0].Epoch)
				st.have.Store(true)
			}
		}
	}()
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
