// Package sim is the cycle-driven overlay simulator used to reproduce the
// paper's evaluation — the Go equivalent of the authors' PeerSim setup
// (§7). Time advances in cycles; in every cycle each live node initiates
// one exchange with a neighbor drawn from the overlay — push-pull, exactly
// as in Figure 1 of the paper, unless Config.Rule selects one of the §8
// baselines. Failure models inject node crashes, churn, link failures and
// message omissions with the paper's §6/§7 semantics.
//
// # Execution model
//
// There is one engine. It partitions the node space into K contiguous
// shards (Config.Shards; zero means one) and runs the NEWSCAST round and
// the exchange loop in two phases each:
//
//  1. Parallel phase: each shard, driven exclusively by its own RNG
//     stream (stats.NewStreamRNG(seed, shard+1); stream 0 is the control
//     stream of the serial hooks), processes its local nodes in a
//     shard-private random order. Exchanges whose peer lives in the same
//     shard are applied immediately; exchanges that cross a shard
//     boundary are fully decided (loss draws included) and appended to
//     the shard's outbox. Shards read shared state (liveness,
//     participation, the partition filter) but never write outside their
//     own node range, so the phase is race-free without locks.
//  2. Deterministic merge: the outboxes are drained in shard order,
//     applying the deferred cross-shard exchanges. A deferred exchange
//     acts on the peers' then-current state — exactly a message that
//     spent the cycle in flight. The exchange round's outbox is drained
//     serially. The overlay round's, which carries most of a sharded
//     cycle's work, is drained level by level: a pair's level is one more
//     than the levels of the last pairs before it that touched either
//     node, so one level's pairs touch disjoint views and are split
//     across the workers, and every view meets its pairs in drain order.
//
// With K = 1 nothing is deferred: every exchange applies at once in one
// global random order, the paper's serial execution. Larger K reaches the
// 10⁵–10⁶-node range on several cores.
//
// # Determinism contract
//
// The same seed and the same K yield bit-identical runs — estimates,
// metrics and CSV output — regardless of Workers, GOMAXPROCS or
// scheduling, because shard streams are pure functions of (seed, shard
// index) and the merge order is fixed. Different K are different (equally
// valid) executions: per-cycle trajectories differ while converging to
// the same statistics. Pin K along with the seed to reproduce a run.
//
// # Rules that hold at every K
//
//   - Config.Overlay is required; c is the paper's one overlay parameter
//     and no default hides it.
//   - TrackExchanges/ExchangeCount count inside applyExchange: the
//     parallel phase touches only its own shard's counters, deferred
//     exchanges count at the merge.
//   - Adversary, Guard and every hook take effect at every K. A cycle
//     starts with BeforeCycle, then the Failures in order; a scripted
//     event is a step of BeforeCycle.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"antientropy/internal/core"
	"antientropy/internal/overlay"
	"antientropy/internal/stats"
)

// Rule is the exchange rule every initiated exchange follows: the paper's
// push-pull scheme or one of the designs it positions itself against
// (§8). All rules meet crashes, churn, partitions, link failure and
// message loss through the same decision path, at every K.
type Rule uint8

const (
	// PushPull is the paper's scheme (Figure 1): the initiator sends its
	// estimate, the peer replies with its own and both keep the average.
	// A failure-free exchange conserves mass; a lost reply leaves the
	// responder updated but not the initiator (§7.2).
	PushPull Rule = iota
	// PushOnly is naive push-only averaging: the initiator pushes its
	// estimate and only the peer moves to the midpoint. The initiator
	// never learns the peer's value, so an exchange conserves the global
	// sum only in expectation — which is why push-pull and Kempe's
	// weighted variant exist. A lost push changes nothing.
	PushOnly
	// PushSum is Kempe, Dobra & Gehrke's push-sum (FOCS'03) in vector
	// mode: the sender keeps half of every component and pushes the
	// other half, which the peer adds. With component 0 = s and 1 = w the
	// estimate is s/w, read through ForEachParticipantVec (w = 1
	// everywhere averages, w = 1 at one node counts). Mass is conserved
	// only while pushes arrive: an undelivered push — dead, refusing or
	// partitioned peer, link failure or message loss — loses its half.
	PushSum
)

// Config describes one simulation run.
type Config struct {
	// N is the number of node slots.
	N int
	// InitialAlive, when positive, starts only the slots [0, InitialAlive)
	// alive and participating; the remaining slots are vacant and can be
	// brought up later with Replace (scenario joins and flash crowds).
	// Zero means all N slots start alive.
	InitialAlive int
	// Cycles is the number of cycles Run executes (γ in the paper; 30 for
	// most experiments).
	Cycles int
	// Seed drives all randomness: the control stream and every shard
	// stream derive from it.
	Seed uint64
	// Shards is the shard count K; zero means 1, so a run's rows never
	// depend on the machine. The node space [0, N) is split into K
	// contiguous ranges of near-equal size; K is clamped to N.
	Shards int
	// Workers bounds the goroutines driving the parallel phases. Zero
	// selects min(K, GOMAXPROCS). It never affects results.
	Workers int

	// Fn is the scalar aggregation function (scalar mode). Exactly one of
	// Fn.Update or Dim must be set.
	Fn core.Function
	// Init yields node i's initial scalar estimate (scalar mode).
	Init func(node int) float64

	// Dim > 0 selects vector mode: the state is a Dim-dimensional vector
	// averaged element-wise, the flattened equivalent of the COUNT
	// protocol's map state (one dimension per concurrent instance; a
	// missing map entry is a zero component — see core.Merge).
	Dim int
	// Leaders[d] is the node whose d-th component starts at 1 (the leader
	// of instance d); all other components start at 0. Exactly one of
	// Leaders and VecInit must be set in vector mode.
	Leaders []int
	// VecInit initializes component d of node i arbitrarily, enabling the
	// §5 derived aggregates: e.g. dim 0 = values and dim 1 = a COUNT peak
	// composes SUM; dim 0 = values and dim 1 = squared values composes
	// VARIANCE.
	VecInit func(node, dim int) float64

	// Overlay selects the overlay for this run (required).
	Overlay OverlaySpec
	// Failures are applied in order at the beginning of every cycle,
	// after BeforeCycle.
	Failures []FailureModel

	// LinkFailure is P_d: each exchange is dropped entirely with this
	// probability (§6.2 — slows convergence, no approximation error).
	LinkFailure float64
	// MessageLoss is the per-message drop probability (§7.2): a lost
	// request skips the exchange; a lost reply leaves the responder
	// updated but not the initiator, changing the global sum.
	MessageLoss float64

	// TrackExchanges enables per-node exchange counting (§4.5 validation).
	TrackExchanges bool

	// Rule selects the exchange rule; the zero value is push-pull.
	Rule Rule

	// Adversary, when non-nil, rewrites the scalar estimate a node
	// reports to its exchange peer — the Byzantine wire-lying hook the
	// scenario engine's adversary schedules drive. Local state stays
	// honest; only the transmitted sample is corrupted. The hook returns
	// the reported value and whether the node lied this time. It must be
	// a pure function of (cycle, node, local): shards call it
	// concurrently. Scalar mode only.
	Adversary func(cycle, node int, local float64) (float64, bool)

	// Guard, when non-nil, replaces the hardcoded push-pull average
	// merge of scalar exchanges with the pluggable Combiner defense:
	// each side's new estimate is Guard.Merge(node, local, reportedPeer)
	// instead of Fn.Update. With the Mean combiner and no sample window
	// this reproduces the classical (a+b)/2 step; clamped-mean and
	// median-of-k reject or outvote Byzantine samples. A node's sample
	// window is only touched by its own shard or by the serial merge, so
	// the guard needs no locking. Scalar mode only.
	Guard *core.MergeGuard

	// BeforeCycle, when non-nil, runs serially at the start of every
	// cycle, before the Failures are applied and before the overlay
	// evolves — the scenario engine's epoch-restart hook.
	BeforeCycle func(cycle int, e *Engine)

	// Observe, when non-nil, is called after initialization (cycle 0) and
	// after every completed cycle.
	Observe func(cycle int, e *Engine)
}

func (c Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("sim: invalid node count %d", c.N)
	}
	if c.Cycles < 0 {
		return fmt.Errorf("sim: invalid cycle count %d", c.Cycles)
	}
	if c.InitialAlive < 0 || c.InitialAlive > c.N {
		return fmt.Errorf("sim: initial alive count %d not in [0, %d]", c.InitialAlive, c.N)
	}
	if c.Shards < 0 {
		return fmt.Errorf("sim: invalid shard count %d", c.Shards)
	}
	scalar := c.Fn.Update != nil
	vector := c.Dim > 0
	if scalar == vector {
		return errors.New("sim: exactly one of Fn (scalar mode) and Dim (vector mode) must be set")
	}
	if scalar && c.Init == nil {
		return errors.New("sim: scalar mode requires Init")
	}
	if c.Rule > PushSum {
		return fmt.Errorf("sim: unknown exchange rule %d", c.Rule)
	}
	if c.Rule == PushSum && !vector {
		return errors.New("sim: push-sum requires vector mode")
	}
	if vector {
		hasLeaders := len(c.Leaders) > 0
		hasVecInit := c.VecInit != nil
		if hasLeaders == hasVecInit {
			return errors.New("sim: vector mode requires exactly one of Leaders and VecInit")
		}
		if hasLeaders {
			if len(c.Leaders) != c.Dim {
				return fmt.Errorf("sim: vector mode needs exactly Dim=%d leaders, got %d", c.Dim, len(c.Leaders))
			}
			live := c.N
			if c.InitialAlive > 0 {
				live = c.InitialAlive
			}
			for d, l := range c.Leaders {
				if l < 0 || l >= live {
					return fmt.Errorf("sim: leader %d of instance %d out of range", l, d)
				}
			}
		}
	}
	if c.Overlay == nil {
		return errors.New("sim: overlay is required")
	}
	if c.LinkFailure < 0 || c.LinkFailure > 1 {
		return fmt.Errorf("sim: link failure probability %g not in [0,1]", c.LinkFailure)
	}
	if c.MessageLoss < 0 || c.MessageLoss > 1 {
		return fmt.Errorf("sim: message loss probability %g not in [0,1]", c.MessageLoss)
	}
	return nil
}

// Metrics counts exchange outcomes over a run.
type Metrics struct {
	// Attempts counts initiated exchange attempts.
	Attempts int64
	// Completed counts fully successful push-pull exchanges (delivered
	// pushes under a push rule).
	Completed int64
	// Timeouts counts attempts aimed at crashed peers.
	Timeouts int64
	// Refusals counts attempts aimed at nodes that joined mid-epoch and
	// refuse connections for the current epoch (§7.1).
	Refusals int64
	// LinkDrops counts exchanges lost to link failure (P_d).
	LinkDrops int64
	// RequestLosses counts exchanges whose initiating message was lost.
	RequestLosses int64
	// ReplyLosses counts exchanges whose response was lost after the
	// responder had already updated its state.
	ReplyLosses int64
	// PartitionDrops counts exchanges vetoed by the exchange filter
	// (partitioned node pairs). Like a link drop, a vetoed exchange is a
	// complete no-op, so it conserves mass.
	PartitionDrops int64
}

// Engine runs the protocol over a simulated overlay. All exported
// mutators are serial-phase operations: call them only from the engine's
// own hooks (BeforeCycle, failure models, Observe) or between cycles,
// never concurrently with a running cycle. Scalar-mode observation
// (Value, ForEachParticipant, ParticipantMoments) is valid only when
// Dim() == 0, vector-mode observation (ForEachParticipantVec,
// SizeEstimateAt, SizeMoments, RestartVec) only when Dim() > 0.
type Engine struct {
	cfg    Config
	nodes  int
	shards []*shard
	// workers bounds the parallel-phase goroutines, which fanOut starts
	// and fanning waits for. shardJob runs shardFn, the function parallel
	// was called with, on shards taken in turn from nextShard.
	workers   int
	fanning   sync.WaitGroup
	shardFn   func(s *shard)
	shardJob  func(part, parts int)
	nextShard atomic.Int64

	// ctl is the control stream (stream 0): all serial-phase randomness —
	// scripted victim picks, join reseeds, rendezvous — draws from it, so
	// scenario scripts are deterministic independent of the shard count's
	// stream layout.
	ctl *stats.RNG

	// Global node state. Written only in serial phases (hooks, merge);
	// the parallel phases read it freely and write scalar/vec/exchanges
	// only within their own shard range. Exactly one of scalar and vec is
	// non-nil. participating marks nodes taking part in the current
	// epoch; nodes that join mid-epoch wait for the next one (§4.2).
	alive         *IndexSet
	participating []bool
	scalar        []float64
	vec           []float64 // flattened [node*dim+d], vector mode

	// exchanges[i] counts node i's exchange participations in the current
	// cycle (reset each cycle; non-nil when TrackExchanges).
	exchanges []int

	overlay overlayImpl

	// filter, when non-nil, vetoes exchanges — aggregation and gossip —
	// between node pairs (partition enforcement).
	filter func(i, j int) bool

	cycle   int
	metrics Metrics
}

// shard owns the contiguous node range [lo, hi) and everything the
// parallel phases need without touching other shards: a private RNG
// stream, permutation and merge scratch buffers, outboxes for deferred
// cross-shard work, and local metric counters.
type shard struct {
	index  int
	lo, hi int
	rng    *stats.RNG

	// perm holds the shard-local initiation order (offsets into [lo,hi)).
	perm []int32
	// out collects decided cross-shard aggregation exchanges.
	out []crossExchange
	// gossip collects deferred cross-shard NEWSCAST exchanges.
	gossip []crossPair
	// scratch is the overlay merge buffer.
	scratch []uint64

	metrics Metrics
}

// crossExchange is a fully decided aggregation exchange whose peer lives
// in another shard; only the state update is deferred to the merge.
type crossExchange struct {
	i, j      int32
	replyLost bool
}

// crossPair is a deferred cross-shard gossip exchange.
type crossPair struct {
	i, j int32
}

// permute refills s.perm with a fresh random order of the local nodes.
func (s *shard) permute() {
	n := s.hi - s.lo
	s.perm = s.perm[:n]
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := s.rng.Intn(i + 1)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
	}
}

// New validates cfg, builds the shards and the overlay, and initializes
// node states, returning an engine positioned before cycle 1.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := min(max(cfg.Shards, 1), cfg.N)
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		cfg:     cfg,
		nodes:   cfg.N,
		workers: min(max(workers, 1), k),
		ctl:     stats.NewStreamRNG(cfg.Seed, 0),
		shards:  make([]*shard, k),
	}
	e.shardJob = func(_, _ int) {
		for k := int(e.nextShard.Add(1)) - 1; k < len(e.shards); k = int(e.nextShard.Add(1)) - 1 {
			e.shardFn(e.shards[k])
		}
	}
	for s := range e.shards {
		lo, hi := (s*cfg.N+k-1)/k, ((s+1)*cfg.N+k-1)/k
		// Shard streams are 1-based; stream 0 is the control stream.
		e.shards[s] = &shard{index: s, lo: lo, hi: hi, rng: stats.NewStreamRNG(cfg.Seed, uint64(s)+1)}
	}
	// The overlay's table is the engine's largest allocation; it comes
	// first, while its predecessor's space is still one free run.
	ov, err := cfg.Overlay.build(e)
	if err != nil {
		return nil, fmt.Errorf("sim: building overlay: %w", err)
	}
	e.overlay = ov
	for _, s := range e.shards {
		s.perm = make([]int32, 0, s.hi-s.lo)
	}
	e.alive, e.participating = NewIndexSet(cfg.N, false), make([]bool, cfg.N)
	initialAlive := cfg.N
	if cfg.InitialAlive > 0 {
		initialAlive = cfg.InitialAlive
	}
	for i := 0; i < initialAlive; i++ {
		e.alive.Add(i)
		e.participating[i] = true
	}
	if cfg.TrackExchanges {
		e.exchanges = make([]int, cfg.N)
	}
	if cfg.Dim > 0 {
		e.vec = make([]float64, cfg.N*cfg.Dim)
		if cfg.VecInit != nil {
			for i := 0; i < cfg.N; i++ {
				for d := 0; d < cfg.Dim; d++ {
					e.vec[i*cfg.Dim+d] = cfg.VecInit(i, d)
				}
			}
		} else {
			for d, l := range cfg.Leaders {
				e.vec[l*cfg.Dim+d] = 1
			}
		}
	} else {
		e.scalar = make([]float64, cfg.N)
		for i := range e.scalar {
			e.scalar[i] = cfg.Init(i)
		}
	}
	return e, nil
}

// Run executes all configured cycles, invoking the observer after
// initialization and after each cycle.
func Run(cfg Config) (*Engine, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	e.observe()
	for e.cycle < cfg.Cycles {
		e.Step()
		e.observe()
	}
	return e, nil
}

func (e *Engine) observe() {
	if e.cfg.Observe != nil {
		e.cfg.Observe(e.cycle, e)
	}
}

// shardOf maps a node to its shard index (floor(i·K/N), matching the
// contiguous ranges built in New).
func (e *Engine) shardOf(i int) int {
	return i * len(e.shards) / e.nodes
}

// parallel runs fn over every shard, each worker taking the next shard
// left. With one worker it is a plain loop.
func (e *Engine) parallel(fn func(s *shard)) {
	e.shardFn = fn
	e.nextShard.Store(0)
	e.fanOut(e.workers, e.shardJob)
}

// fanOut is the engine's one way to spread work over its workers: it calls
// job(part, parts) for every part, part 0 on the calling goroutine and the
// others on helper goroutines, and returns once all are done. It allocates
// nothing: jobs are built with the engine, and a helper is a goroutine
// that captures nothing and takes its part from fanParts. A call starts
// as many helpers as it sends parts, so any helper may take any engine's
// part; each takes exactly one.
func (e *Engine) fanOut(parts int, job func(part, parts int)) {
	e.fanning.Add(parts - 1)
	for part := 1; part < parts; part++ {
		go fanHelper()
		fanParts <- fanPart{job, part, parts, &e.fanning}
	}
	job(0, parts)
	e.fanning.Wait()
}

type fanPart struct {
	job         func(part, parts int)
	part, parts int
	done        *sync.WaitGroup
}

// fanParts is buffered, so a call's parts go out without waiting for each
// helper to be scheduled. Any size is correct — a send that finds it full
// waits for a helper already started — and 64 holds every part of a call
// at up to 65 workers.
var fanParts = make(chan fanPart, 64)

func fanHelper() {
	p := <-fanParts
	p.job(p.part, p.parts)
	p.done.Done()
}

// Step advances the simulation by one full cycle: the serial hook and the
// failure models first (the paper's worst case — variance is maximal at
// cycle start), then the parallel overlay round with its deterministic
// cross-shard flush, then the parallel exchange phase with its
// deterministic merge.
func (e *Engine) Step() {
	e.cycle++
	if e.cfg.BeforeCycle != nil {
		e.cfg.BeforeCycle(e.cycle, e)
	}
	for _, f := range e.cfg.Failures {
		f.Apply(e.cycle, e)
	}
	clear(e.exchanges)
	e.parallel(func(s *shard) { e.overlay.stepShard(s, e.cycle) })
	e.overlay.flushCross(e.cycle)
	e.parallel(e.exchangeShard)
	for _, s := range e.shards {
		for _, x := range s.out {
			e.applyExchange(int(x.i), int(x.j), x.replyLost)
		}
		e.metrics.add(s.metrics)
	}
}

// exchangeShard runs one shard's slice of the exchange loop: every live
// local participant performs the active-thread step of Figure 1.
// Intra-shard exchanges apply immediately; cross-shard exchanges are
// decided here (all loss draws come from the shard stream) and deferred
// to the merge.
func (e *Engine) exchangeShard(s *shard) {
	s.out = s.out[:0]
	s.metrics = Metrics{}
	s.permute()
	// A NEWSCAST view is one table row per node, worth loading ahead.
	var rows *overlay.Table
	if nc, ok := e.overlay.(*newscast); ok {
		rows = nc.t
	}
	for k, off := range s.perm {
		if rows != nil && k+4 < len(s.perm) {
			rows.Prefetch(s.lo + int(s.perm[k+4]))
		}
		i := s.lo + int(off)
		if !e.alive.Contains(i) || !e.participating[i] {
			continue
		}
		j := e.overlay.neighbor(i, s.rng)
		if j < 0 || j == i {
			continue
		}
		allowed := e.filter == nil || e.filter(i, j)
		proceed, replyLost := decideExchange(s.rng, &s.metrics,
			e.alive.Contains(j), e.participating[j], allowed,
			e.cfg.LinkFailure, e.cfg.MessageLoss, e.cfg.Rule != PushPull)
		if !proceed {
			if e.cfg.Rule == PushSum {
				e.pushSum(i, -1)
			}
			continue
		}
		if e.shardOf(j) == s.index {
			e.applyExchange(i, j, replyLost)
		} else {
			s.out = append(s.out, crossExchange{i: int32(i), j: int32(j), replyLost: replyLost})
		}
	}
}

// applyExchange performs the state update of a delivered exchange: the
// responder always updates; the initiator updates only if the reply
// arrived (§7.2). A push has no reply, so it always arrives with
// replyLost set and leaves a push-only initiator unchanged. A deferred
// cross-shard exchange lands here during the serial merge and acts on the
// peers' then-current state, so scalar mass — and, in vector mode, every
// component's mass — is conserved across the merge exactly as within a
// shard.
func (e *Engine) applyExchange(i, j int, replyLost bool) {
	if e.exchanges != nil {
		e.exchanges[i]++
		e.exchanges[j]++
	}
	if e.cfg.Rule == PushSum {
		e.pushSum(i, j)
		return
	}
	if dim := e.cfg.Dim; dim > 0 {
		vi := e.vec[i*dim : (i+1)*dim]
		vj := e.vec[j*dim : (j+1)*dim]
		for d := range vj {
			m := (vi[d] + vj[d]) / 2
			if !replyLost {
				vi[d] = m
			}
			vj[d] = m
		}
		return
	}
	si, sj := e.scalar[i], e.scalar[j]
	if e.cfg.Adversary == nil && e.cfg.Guard == nil {
		ni, nj := e.cfg.Fn.Update(si, sj)
		e.scalar[j] = nj
		if !replyLost {
			e.scalar[i] = ni
		}
		return
	}
	// Byzantine path: each side merges the peer's *reported* value —
	// possibly corrupted by the adversary hook — while local state stays
	// honest; the guard, when set, screens the report through the
	// pluggable Combiner defense (see Config.Guard).
	ri, rj := si, sj
	if adv := e.cfg.Adversary; adv != nil {
		if v, lied := adv(e.cycle, i, si); lied {
			ri = v
		}
		if v, lied := adv(e.cycle, j, sj); lied {
			rj = v
		}
	}
	if g := e.cfg.Guard; g != nil {
		e.scalar[j] = g.Merge(j, sj, ri)
		if !replyLost {
			e.scalar[i] = g.Merge(i, si, rj)
		}
		return
	}
	ni, _ := e.cfg.Fn.Update(si, rj)
	_, nj := e.cfg.Fn.Update(ri, sj)
	e.scalar[j] = nj
	if !replyLost {
		e.scalar[i] = ni
	}
}

// pushSum halves every component of node i and adds the pushed half to
// node j; with j < 0 the push was not delivered and its half is lost.
func (e *Engine) pushSum(i, j int) {
	dim := e.cfg.Dim
	vi := e.vec[i*dim : (i+1)*dim]
	for d := range vi {
		vi[d] /= 2
		if j >= 0 {
			e.vec[j*dim+d] += vi[d]
		}
	}
}

// Cycle returns the number of completed cycles.
func (e *Engine) Cycle() int { return e.cycle }

// N returns the (constant) number of node slots.
func (e *Engine) N() int { return e.nodes }

// Dim returns the state-vector dimension (0 in scalar mode).
func (e *Engine) Dim() int { return e.cfg.Dim }

// Shards returns the effective shard count K.
func (e *Engine) Shards() int { return len(e.shards) }

// AliveCount returns the number of currently live nodes.
func (e *Engine) AliveCount() int { return e.alive.Len() }

// Alive reports whether node is currently live.
func (e *Engine) Alive(node int) bool { return e.alive.Contains(node) }

// Participating reports whether node is live and part of the current
// epoch.
func (e *Engine) Participating(node int) bool {
	return e.alive.Contains(node) && e.participating[node]
}

// ParticipantCount returns the number of live nodes taking part in the
// current epoch.
func (e *Engine) ParticipantCount() int {
	count := 0
	for _, id := range e.alive.Items() {
		if e.participating[id] {
			count++
		}
	}
	return count
}

// ParticipantMoments returns streaming moments (count/mean/variance/
// min/max) of the participants' scalar estimates.
func (e *Engine) ParticipantMoments() stats.Moments {
	var m stats.Moments
	for _, id := range e.alive.Items() {
		if e.participating[id] {
			m.Add(e.scalar[id])
		}
	}
	return m
}

// Metrics returns the exchange counters accumulated so far.
func (e *Engine) Metrics() Metrics { return e.metrics }

// Value returns node's scalar estimate (scalar mode).
func (e *Engine) Value(node int) float64 { return e.scalar[node] }

// Vector returns a copy of node's state vector (vector mode).
func (e *Engine) Vector(node int) []float64 {
	dim := e.cfg.Dim
	return append([]float64(nil), e.vec[node*dim:(node+1)*dim]...)
}

// ForEachParticipant calls fn for every live, participating node with its
// scalar estimate (scalar mode).
func (e *Engine) ForEachParticipant(fn func(node int, value float64)) {
	for _, id := range e.alive.Items() {
		i := int(id)
		if e.participating[i] {
			fn(i, e.scalar[i])
		}
	}
}

// ForEachParticipantVec calls fn for every live, participating node with
// a read-only view of its state vector (vector mode). The slice must not
// be retained or modified.
func (e *Engine) ForEachParticipantVec(fn func(node int, vec []float64)) {
	dim := e.cfg.Dim
	for _, id := range e.alive.Items() {
		i := int(id)
		if e.participating[i] {
			fn(i, e.vec[i*dim:(i+1)*dim])
		}
	}
}

// ExchangeCount returns node's number of exchange participations in the
// last completed cycle. It returns an error unless TrackExchanges is on.
func (e *Engine) ExchangeCount(node int) (int, error) {
	if e.exchanges == nil {
		return 0, errors.New("sim: exchange tracking not enabled")
	}
	return e.exchanges[node], nil
}

// Kill marks a node as crashed. Its state becomes unreachable, exactly as
// a crash renders a node's local value inaccessible (§6.1).
func (e *Engine) Kill(node int) {
	e.alive.Remove(node)
}

// Replace models churn: the slot is taken over by a brand-new node that
// sits out the current epoch (§4.2) but immediately joins the membership
// overlay. It also revives a vacant slot (InitialAlive / flash-crowd
// joins).
func (e *Engine) Replace(node int) {
	e.alive.Add(node)
	e.participating[node] = false
	if dim := e.cfg.Dim; dim > 0 {
		clear(e.vec[node*dim : (node+1)*dim])
	} else {
		e.scalar[node] = 0
	}
	if e.cfg.Guard != nil {
		e.cfg.Guard.ResetNode(node)
	}
	e.overlay.onJoin(node, e.cycle, e.ctl)
}

// Restart begins a new epoch in place (§4.1 automatic restart): every
// live node — including joiners that sat out the finished epoch —
// becomes a participant and, in scalar mode, reloads a fresh local value
// from init when given. The scenario engine calls this at epoch
// boundaries so the tracked aggregate follows the scripted value
// dynamics.
func (e *Engine) Restart(init func(node int) float64) {
	if e.cfg.Guard != nil {
		// Peer samples gathered under the previous epoch's value
		// assignment must not vote in the next.
		e.cfg.Guard.ResetAll()
	}
	for _, id := range e.alive.Items() {
		i := int(id)
		e.participating[i] = true
		if e.scalar != nil && init != nil {
			e.scalar[i] = init(i)
		}
	}
}

// RestartVec begins a new epoch in vector mode (§5 COUNT lifecycle):
// every live node becomes a participant and, when init is non-nil,
// reloads component d of its state vector from init(node, d) — e.g. a
// fresh leader indicator set for the next COUNT election.
func (e *Engine) RestartVec(init func(node, dim int) float64) {
	dim := e.cfg.Dim
	for _, id := range e.alive.Items() {
		i := int(id)
		e.participating[i] = true
		if e.vec != nil && init != nil {
			for d := 0; d < dim; d++ {
				e.vec[i*dim+d] = init(i, d)
			}
		}
	}
}

// SetExchangeFilter installs (or, with nil, removes) a veto on exchanges:
// when the filter returns false for a pair (i, j), the exchange is
// dropped as if the link between them had failed — the scenario engine's
// network-partition enforcement. A vetoed exchange is a complete no-op,
// so mass is conserved across a partition until it heals. The overlay
// consults the same filter, so a partition blocks membership gossip along
// with aggregation exchanges — exactly as the live executor drops both
// message kinds at the transport layer.
func (e *Engine) SetExchangeFilter(filter func(i, j int) bool) {
	e.filter = filter
}

// SetMessageLoss changes the per-message drop probability mid-run
// (scenario loss bursts). Values are clamped to [0, 1].
func (e *Engine) SetMessageLoss(p float64) {
	e.cfg.MessageLoss = min(max(p, 0), 1)
}

// RandomAlive returns a uniformly random live node (control stream), or
// -1 when none is left. Scenario events use it to pick churn and crash
// victims from the engine's own deterministic stream.
func (e *Engine) RandomAlive() int {
	if e.alive.Len() == 0 {
		return -1
	}
	return e.alive.Random(e.ctl)
}

// ReseedOverlay refreshes node's overlay view from a random sample of the
// whole network, modelling the out-of-band rendezvous (seed lists, DNS) a
// real deployment performs after a long partition has aged every
// cross-component descriptor out of the caches.
func (e *Engine) ReseedOverlay(node int) {
	e.overlay.onJoin(node, e.cycle, e.ctl)
}
