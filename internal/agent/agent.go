// Package agent is the live, asynchronous implementation of the paper's
// practical aggregation protocol (§4): every node is the active/passive
// pair of Figure 1 over a datagram transport, on real time — δ cycles,
// exchange timeouts, epoch restarts (§4.1), join handling (§4.2), epidemic
// epoch synchronization (§4.3) and a NEWSCAST membership service (§4.4)
// piggybacked on every exchange. A node draws each exchange peer two
// initiations ahead, from a view its last partners' frames have not yet
// refreshed, so two just-averaged nodes do not pick from one pool.
//
// Who runs a node. The paper gives every node two threads; a process here
// hosts hundreds of nodes, so neither half owns a goroutine. The active
// half of every node of the process is run by one scheduler (scheduler.go):
// one goroutine, one timer, a heap of next cycles and exchange deadlines.
// The passive half runs wherever the transport delivers: every endpoint a
// node runs on (the in-memory network, the UDP mux) is a handler-mode one
// and calls the node's handler on its own goroutine — for the zero-latency
// in-memory network that is the sender's, so a whole exchange (request,
// the peer's merge and reply, the initiator's merge) completes on the
// scheduler goroutine before initiate returns; a node owns no goroutine.
// The rule that makes inline delivery safe: a node never sends while
// holding its lock, so a handler may always take the lock of the node it
// was delivered to.
//
// What a node owns. The paper's scalability argument is that a node keeps
// a constant amount of state whatever the size of the network: an
// estimate, an epoch, a cache of c descriptors (§4, §4.4). A Node at rest
// is that — its protocol state and its view, about 1.5 KB of heap
// (BenchmarkNodeResidentBytes) — and nothing per peer: every
// membership frame it sends carries the whole view plus a fresh
// self-descriptor, and every frame it receives is merged into the view,
// freshest descriptor wins, whatever the peer it came from. Everything an
// exchange computes in — decoder, outgoing message, the view's merge
// buffer — is a workspace borrowed for one hold of the node's lock from a
// pool the whole process shares (workspace.go), so the goroutine that runs
// 500 nodes works in one warm set of buffers, not 500 cold ones.
//
// Concurrency note. The paper treats an exchange as atomic; over a real
// network the initiator's state could drift between sending its estimate
// and receiving the reply, which would break mass conservation. This
// implementation therefore marks a node busy while it has an exchange
// outstanding and lets a busy node refuse incoming exchange requests.
// A refusal behaves exactly like the paper's link failure — §6.2 proves
// that only slows convergence and introduces no error. A reply that
// arrives after the timeout is dropped, which reproduces the paper's
// "lost response" case (§7.2).
package agent

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/obs"
	"antientropy/internal/overlay"
	"antientropy/internal/stats"
	"antientropy/internal/transport"
	"antientropy/internal/wire"
)

// Mode selects the aggregate a node computes.
type Mode int

// Available modes.
const (
	// ModeScalar runs one scalar aggregate (AVERAGE, MIN, MAX,
	// GEOMETRIC-MEAN) per epoch.
	ModeScalar Mode = iota + 1
	// ModeCount runs the multi-leader COUNT protocol (§5): the node's
	// state is a leader-id → estimate map and the epoch output is a
	// network-size estimate.
	ModeCount
)

// Config describes one live node.
type Config struct {
	// Endpoint is the node's transport attachment; Start hands it the
	// node's handler. The node takes ownership: Stop closes it.
	Endpoint transport.Endpoint
	// Schedule fixes δ, Δ and γ; all nodes of a deployment share it
	// (epoch synchronization absorbs clock drift, §4.3).
	Schedule core.Schedule
	// Mode selects scalar aggregation (default) or COUNT.
	Mode Mode
	// Function is the scalar aggregate (ModeScalar; default AVERAGE).
	Function core.Function
	// Value supplies the node's current local value, sampled at every
	// epoch start (ModeScalar). Required in ModeScalar. It is called on the
	// goroutine that runs every node of the process and must not block:
	// while it runs no other node's cycle starts (agg_tick_lag_seconds
	// shows the delay).
	Value func() float64
	// CacheSize is the NEWSCAST cache capacity c (default 30).
	CacheSize int
	// Seeds are bootstrap contact addresses. A node with seeds performs
	// the §4.2 join: it asks a seed for the next epoch and refrains from
	// participating until that epoch starts.
	Seeds []string
	// Bootstrap pre-populates the NEWSCAST cache without the join wait.
	// Use it only when founding a deployment, where every node starts in
	// the same (first) epoch anyway; later arrivals must use Seeds.
	Bootstrap []string
	// RequestTimeout bounds the wait for an exchange reply (default:
	// half the cycle length).
	RequestTimeout time.Duration
	// Concurrency is the desired number of concurrent COUNT instances C
	// (ModeCount; default 8).
	Concurrency float64
	// InitialSizeGuess seeds P_lead = C/N̂ before the first epoch output
	// exists (ModeCount; default 16).
	InitialSizeGuess float64
	// Seed drives the node's randomness (0 derives one from the address
	// and the clock).
	Seed uint64
	// Logger receives debug events, each with the node's address as
	// "node" (default: slog.Default).
	Logger *slog.Logger
	// MaxViewBytes caps the encoded size of the piggybacked membership
	// view per exchange (0 = unlimited): a frame carries the freshest
	// descriptors that fit. The overlay tolerates partial views by design
	// (§4), so the cap may drop even the fresh self-descriptor.
	MaxViewBytes int
	// Adversary, when non-nil, corrupts the scalar estimate this node
	// reports on the wire — the Byzantine hook the scenario executor's
	// adversary schedules drive. Local state stays honest; only the
	// outgoing payload (request and reply alike) is rewritten, and the
	// exchange identifier is untouched so traces still stitch. The hook
	// receives the node's epoch and honest scalar and returns the
	// reported value, the epoch tag to stamp it with (replay-stale lies
	// about the epoch too; honest behaviors echo the input epoch), and
	// whether the node lied. ModeScalar only.
	Adversary func(epoch uint64, local float64) (value float64, epochTag uint64, lied bool)
	// Combiner, when non-nil, replaces the hardcoded push-pull merge of
	// scalar exchanges with the pluggable defense (clamped-mean,
	// median-of-k, ...) over a window of CombinerK samples (0 =
	// core.DefaultMergeK). The window resets at every epoch restart.
	// ModeScalar only.
	Combiner  core.Combiner
	CombinerK int
	// RTT, when set, receives every measured exchange round trip in
	// seconds. Fleets share one histogram across all their nodes, so a
	// process exports a single agg_exchange_rtt_seconds series.
	RTT *obs.Histogram
	// Trace, when set, receives structured exchange-lifecycle events
	// (initiate → absorb/timeout/declined, refusals, epoch jumps, stale
	// drops). Fleets share one bounded ring across all their nodes.
	Trace *obs.TraceRing
}

// Output is one completed epoch's aggregation result.
type Output struct {
	// Epoch identifier.
	Epoch uint64
	// Value is the estimate when the epoch ended (for ModeCount, the
	// combined network-size estimate).
	Value float64
	// OK reports whether the node held a usable estimate (a COUNT node
	// that never received mass has none).
	OK bool
	// At is when the epoch was left.
	At time.Time
}

// Metrics is a snapshot of a node's protocol counters.
type Metrics struct {
	// ExchangesInitiated counts active-thread attempts.
	ExchangesInitiated int64
	// ExchangesCompleted counts replies applied.
	ExchangesCompleted int64
	// ExchangesServed counts passive-thread replies sent.
	ExchangesServed int64
	// Timeouts counts replies that never arrived in time.
	Timeouts int64
	// RefusedBusy counts requests dropped while an exchange was
	// outstanding.
	RefusedBusy int64
	// PeerDeclined counts own requests NACKed by a busy or joining peer.
	PeerDeclined int64
	// RefusedJoining counts requests dropped while waiting for our first
	// epoch (§4.2/§7.1).
	RefusedJoining int64
	// StaleDropped counts messages from older epochs.
	StaleDropped int64
	// EpochJumps counts §4.3 jump-forward synchronizations.
	EpochJumps int64
	// DecodeErrors counts undecodable datagrams.
	DecodeErrors int64
	// GossipFramesFull counts outgoing membership frames; every one
	// carries the whole view.
	GossipFramesFull int64
	// GossipFramesDelta is always 0: a node sends no delta frames. It
	// stays only because the repository benchmark reads it.
	GossipFramesDelta int64
	// GossipEntriesSent counts descriptors across all outgoing frames;
	// divided by GossipFramesFull it is the view size + 1, less what
	// MaxViewBytes trims.
	GossipEntriesSent int64
	// RTTSamples counts exchange replies whose initiate→reply round
	// trip was measured; RTTTotal is their summed latency, so the mean
	// round trip is RTTTotal/RTTSamples. Refusal NACKs count too — the
	// measurement is of the network round trip, not of the merge.
	RTTSamples int64
	// RTTTotal is the summed round-trip latency of RTTSamples replies.
	RTTTotal time.Duration
	// AdversaryLies counts outgoing payloads the Config.Adversary hook
	// corrupted.
	AdversaryLies int64
	// DefenseRejected counts peer-reported samples the Config.Combiner
	// defense rejected or clamped.
	DefenseRejected int64
}

// Accumulate adds o's counts into m — the fleet-aggregation and
// crash-retirement primitive: a worker sums its live nodes plus the
// counters of nodes it already stopped, and the sums stay monotone.
func (m *Metrics) Accumulate(o Metrics) {
	m.ExchangesInitiated += o.ExchangesInitiated
	m.ExchangesCompleted += o.ExchangesCompleted
	m.ExchangesServed += o.ExchangesServed
	m.Timeouts += o.Timeouts
	m.RefusedBusy += o.RefusedBusy
	m.PeerDeclined += o.PeerDeclined
	m.RefusedJoining += o.RefusedJoining
	m.StaleDropped += o.StaleDropped
	m.EpochJumps += o.EpochJumps
	m.DecodeErrors += o.DecodeErrors
	m.GossipFramesFull += o.GossipFramesFull
	m.GossipEntriesSent += o.GossipEntriesSent
	m.RTTSamples += o.RTTSamples
	m.RTTTotal += o.RTTTotal
	m.AdversaryLies += o.AdversaryLies
	m.DefenseRejected += o.DefenseRejected
}

// counters is the node's live counter set: plain atomics, so the
// exchange hot paths pay one uncontended atomic add per event and
// Metrics() snapshots without taking the node lock — metric scrapes
// never contend with the protocol.
type counters struct {
	exchangesInitiated atomic.Int64
	exchangesCompleted atomic.Int64
	exchangesServed    atomic.Int64
	timeouts           atomic.Int64
	refusedBusy        atomic.Int64
	peerDeclined       atomic.Int64
	refusedJoining     atomic.Int64
	staleDropped       atomic.Int64
	epochJumps         atomic.Int64
	decodeErrors       atomic.Int64
	gossipFramesFull   atomic.Int64
	gossipEntriesSent  atomic.Int64
	rttSamples         atomic.Int64
	rttTotalNanos      atomic.Int64
	adversaryLies      atomic.Int64
}

// snapshot reads every counter. Loads are individually atomic; a
// snapshot taken mid-exchange may see the exchange half-counted, which
// is the usual scrape contract.
func (c *counters) snapshot() Metrics {
	return Metrics{
		ExchangesInitiated: c.exchangesInitiated.Load(),
		ExchangesCompleted: c.exchangesCompleted.Load(),
		ExchangesServed:    c.exchangesServed.Load(),
		Timeouts:           c.timeouts.Load(),
		RefusedBusy:        c.refusedBusy.Load(),
		PeerDeclined:       c.peerDeclined.Load(),
		RefusedJoining:     c.refusedJoining.Load(),
		StaleDropped:       c.staleDropped.Load(),
		EpochJumps:         c.epochJumps.Load(),
		DecodeErrors:       c.decodeErrors.Load(),
		GossipFramesFull:   c.gossipFramesFull.Load(),
		GossipEntriesSent:  c.gossipEntriesSent.Load(),
		RTTSamples:         c.rttSamples.Load(),
		RTTTotal:           time.Duration(c.rttTotalNanos.Load()),
		AdversaryLies:      c.adversaryLies.Load(),
	}
}

// Node is a live aggregation participant. Create with New, run with
// Start, stop with Stop. What it holds between exchanges is protocol
// state and the view; scratch it borrows per hold of mu (see lock).
type Node struct {
	cfg    Config
	log    *slog.Logger
	funcID uint8
	// guard is the merge-side combiner defense (nil without one). Its
	// internal counters are atomics; the sample window is guarded by mu
	// like the scalar state it defends.
	guard *core.MergeGuard

	mu            sync.Mutex
	epoch         uint64
	joinEpoch     uint64 // first epoch we may participate in
	participating bool
	scalar        float64
	mapState      core.MapState
	leaderID      core.LeaderID
	// view is this node's NEWSCAST cache — the same overlay.Membership
	// implementation both simulation engines run on. Its keys are the ids
	// of the process's address book XORed with salt (see viewKey).
	view *overlay.Membership
	salt int32
	// ahead queues the next nAhead exchange peers' keys (see peerLead).
	ahead  [peerLead]int32
	nAhead int
	// ws is the workspace of the hold in progress: set by lock, nil again
	// after unlock, and nil throughout a hold of the bare mutex.
	ws *workspace
	// pending is the outstanding exchange while busy. The scheduler
	// expires it when it is still outstanding at its deadline.
	pending exchange
	// pendingValue overrides cfg.Value once SetValue has been called.
	pendingValue float64
	hasPending   bool
	busy         bool
	seq          uint64
	xidBase      uint64
	rng          *stats.RNG
	outputs      []Output
	started      bool
	stopped      bool

	// metrics is deliberately outside the mu regime: its fields are
	// atomics, incremented on the hot paths and snapshot lock-free.
	metrics counters

	// sched is the scheduler's entry for this node, guarded by its lock.
	sched nodeSchedule
	// unwatch stops watching Start's context; set in Start under mu.
	unwatch func() bool

	subs []chan Output
}

// New validates cfg and builds a node (not yet started).
func New(cfg Config) (*Node, error) {
	if cfg.Endpoint == nil {
		return nil, errors.New("agent: no endpoint")
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeScalar
	}
	switch cfg.Mode {
	case ModeScalar:
		if cfg.Function.Update == nil {
			cfg.Function = core.Average
		}
		if cfg.Value == nil {
			return nil, errors.New("agent: scalar mode requires a Value supplier")
		}
	case ModeCount:
		if cfg.Concurrency <= 0 {
			cfg.Concurrency = 8
		}
		if cfg.InitialSizeGuess < 1 {
			cfg.InitialSizeGuess = 16
		}
	default:
		return nil, fmt.Errorf("agent: unknown mode %d", cfg.Mode)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = overlay.DefaultCacheSize
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = cfg.Schedule.CycleLen / 2
	}
	if cfg.RequestTimeout <= 0 {
		return nil, errors.New("agent: request timeout must be positive")
	}
	addr := cfg.Endpoint.Addr()
	if cfg.Seed == 0 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(addr))
		cfg.Seed = h.Sum64() ^ uint64(time.Now().UnixNano())
	}
	// Each event names the node itself: a per-node logger.With would cost
	// every node a cloned handler (≈ 180 B resident, seven allocations at
	// New) for three rarely taken log lines.
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	// The exchange-ID stream mixes the address into the seed so two
	// nodes sharing a Seed (deterministic fleets) still stamp disjoint
	// XIDs, then splitmix64 whitens per sequence number (xidLocked).
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr))
	xidBase := splitmix64(cfg.Seed ^ h.Sum64())
	salt := int32(splitmix64(xidBase) >> 33) // 31 bits: keys stay non-negative
	view, err := overlay.NewMembership(book.Intern(addr)^salt, cfg.CacheSize)
	if err != nil {
		return nil, err
	}
	funcID := wire.FuncCount
	if cfg.Mode == ModeScalar {
		funcID, err = wire.FuncIDFor(cfg.Function.Name)
		if err != nil {
			return nil, err
		}
	}
	n := &Node{
		cfg:     cfg,
		log:     logger,
		funcID:  funcID,
		view:    view,
		salt:    salt,
		xidBase: xidBase,
		rng:     stats.NewRNG(cfg.Seed),
		sched:   nodeSchedule{slot: -1},
	}
	view.Lend(nil) // merges run in the workspace of the hold
	if cfg.Combiner != nil && cfg.Mode == ModeScalar {
		n.guard = core.NewMergeGuard(cfg.Combiner, cfg.CombinerK, 1)
	}
	n.leaderID = leaderIDFor(addr)
	return n, nil
}

// viewKey maps a book id to this node's key for it in the view, and such
// a key back to the id: an XOR with the node's salt, its own inverse. A
// packed view ranks descriptors of equal stamp by key, lowest first, and
// stamps are whole cycles, so ties are the rule; a full cache drops the
// loser. Ranking by the bare id, the same in every node of the process,
// would make the address interned last lose everywhere at once — measured
// on a 200-node fleet, the tenth of the nodes with the lowest ids ended
// up in six times as many caches as the tenth with the highest. With the
// salt every node breaks ties in an order of its own, as nodes in
// separate processes do.
func (n *Node) viewKey(id int32) int32 { return id ^ n.salt }

// keyAddr resolves a view key to its address.
func (n *Node) keyAddr(key int32) string { return book.Addr(n.viewKey(key)) }

// book is the process's one address book: every node interns through it,
// so the addresses a fleet gossips about are looked up in one table that
// stays in cache rather than in one cold map per node. Its reads take no
// lock (see overlay.Book). It only grows, by the distinct addresses the
// process's nodes have accepted in validated datagrams or been
// configured with.
var book = overlay.NewBook()

// splitmix64 is the SplitMix64 finalizer: a cheap bijective mixer
// turning a counter stream into well-distributed 64-bit identifiers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// xidLocked derives the exchange ID for a sequence number: unique per
// (node, seq) with overwhelming probability across a fleet, never 0
// (0 means "no XID" on the wire and in traces).
func (n *Node) xidLocked(seq uint64) uint64 {
	xid := splitmix64(n.xidBase + seq)
	if xid == 0 {
		xid = 1
	}
	return xid
}

// tick converts wall-clock time into the logical NEWSCAST stamp: whole
// cycles since the shared schedule anchor — exactly the paper's logical
// time, comparable across every node of a deployment because the
// schedule is shared (§4.1). Saturates instead of wrapping at the 2³¹
// horizon (68 years at 1-second cycles).
func (n *Node) tick(now time.Time) int32 {
	d := now.Sub(n.cfg.Schedule.Start)
	if d < 0 {
		return 0
	}
	t := int64(d / n.cfg.Schedule.CycleLen)
	if t > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(t)
}

// stampFromWire converts a received descriptor stamp, a tick on the wire,
// into the packed int32 tick space: a hostile stamp outside [0, 2³¹) is
// clamped into it rather than wrapped.
func stampFromWire(stamp int64) int32 {
	return int32(min(max(stamp, 0), math.MaxInt32))
}

// leaderIDFor derives the COUNT instance id from the node address, as the
// paper suggests ("e.g., the address of the leader").
func leaderIDFor(addr string) core.LeaderID {
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr))
	return core.LeaderID(h.Sum64() & 0x7fffffffffffffff)
}

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.cfg.Endpoint.Addr() }

// Start puts the node to work and returns immediately: its handler is
// attached to the endpoint and the node is queued on the process's
// scheduler, its first cycle one δ plus a random phase from now. Cancelling
// ctx ends the cycles; Stop is still needed to close the endpoint.
//
// Each node's cycle is offset by a random phase within δ. Without the
// stagger, nodes started together initiate simultaneously, find each
// other busy and refuse each other's exchanges every single cycle — the
// classic synchronized-gossip livelock.
func (n *Node) Start(ctx context.Context) error {
	n.lock()
	if n.started {
		n.unlock()
		return errors.New("agent: already started")
	}
	n.started = true
	now := time.Now()
	n.epoch = n.cfg.Schedule.EpochAt(now)
	if len(n.cfg.Seeds) > 0 {
		// §4.2: joiners sit out the epoch in progress. The local guess is
		// refined by the seed's JoinReply.
		n.joinEpoch = n.epoch + 1
		n.participating = false
		n.view.Seed(n.contactEntries(n.cfg.Seeds, n.tick(now)))
	} else {
		n.participating = true
		if len(n.cfg.Bootstrap) > 0 {
			n.view.Seed(n.contactEntries(n.cfg.Bootstrap, n.tick(now)))
		}
		n.resetStateLocked()
	}
	phase := time.Duration(n.rng.Intn(int(n.cfg.Schedule.CycleLen)))
	n.unwatch = context.AfterFunc(ctx, func() { sched.remove(n) })
	n.unlock()

	// The passive half runs on the transport's delivering goroutine: no
	// receive goroutine, no channel hop, and the pooled buffer is returned
	// as soon as the datagram is handled. Stop remains safe: Endpoint.Close
	// is the transport's barrier that waits out any in-flight handler call
	// before returning.
	n.cfg.Endpoint.SetHandler(func(p transport.Packet) {
		n.handle(p.From, p.Data)
		p.Release()
	})
	sched.add(n, now.Add(n.cfg.Schedule.CycleLen+phase))
	if len(n.cfg.Seeds) > 0 {
		n.sendJoinRequest()
	}
	return nil
}

// Stop terminates the node: it leaves the scheduler (waiting out a cycle
// of its own that is running) and closes its endpoint (waiting out handler
// calls in flight). Safe to call more than once; not from the node's own
// Value callback.
func (n *Node) Stop() error {
	n.mu.Lock()
	if !n.started || n.stopped {
		n.mu.Unlock()
		return nil
	}
	n.stopped = true
	n.busy = false // abandon the outstanding exchange
	n.mu.Unlock()
	n.unwatch()
	sched.remove(n)
	err := n.cfg.Endpoint.Close()
	n.mu.Lock()
	n.closeSubsLocked()
	n.mu.Unlock()
	return err
}

// Estimate returns the node's current (converging) estimate. In
// ModeCount it is the combined network-size estimate; ok is false while
// the node holds no usable estimate.
func (n *Node) Estimate() (value float64, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.estimateLocked()
}

func (n *Node) estimateLocked() (float64, bool) {
	if !n.participating {
		return 0, false
	}
	if n.cfg.Mode == ModeScalar {
		return n.scalar, true
	}
	v, err := n.mapState.CombinedSize()
	if err != nil {
		return 0, false
	}
	return v, true
}

// SetValue updates the node's local value (ModeScalar). Exactly like a
// change observed through Config.Value, the new value is sampled at the
// next epoch restart (§4.1) — mid-epoch mass is never disturbed, so the
// running instance keeps conserving its invariant. Once called, the
// stored value supersedes Config.Value for every later restart; the
// latest call wins. It suits a caller that pushes values rather than
// supplying them: cmd/aggnode -stdin feeds each value it reads from
// standard input here. The serving layer does not call it, but gives each
// node a Config.Value supplier that reads the instance's fed values
// (serve's Instance.slotValue).
func (n *Node) SetValue(v float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pendingValue, n.hasPending = v, true
}

// Snapshot is one consistent read of a node's serving-relevant state:
// epoch, current estimate and the most recent sealed epoch output, all
// observed under one acquisition of the node lock. Serving layers use
// it instead of separate Epoch/Estimate/LastOutput calls, whose values
// could straddle an epoch restart.
type Snapshot struct {
	// Epoch is the node's current epoch identifier.
	Epoch uint64
	// Estimate is the current (converging) estimate; OK is false while
	// the node holds no usable estimate (joining, or a COUNT node
	// without mass).
	Estimate float64
	OK       bool
	// Participating reports whether the node takes part in this epoch.
	Participating bool
	// LastOutput is the most recent completed epoch's output; HasOutput
	// is false until a first epoch has been sealed.
	LastOutput Output
	HasOutput  bool
}

// Snapshot atomically reads the node's serving-relevant state.
func (n *Node) Snapshot() Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	v, ok := n.estimateLocked()
	s := Snapshot{
		Epoch:         n.epoch,
		Estimate:      v,
		OK:            ok,
		Participating: n.participating,
	}
	if len(n.outputs) > 0 {
		s.LastOutput = n.outputs[len(n.outputs)-1]
		s.HasOutput = true
	}
	return s
}

// Epoch returns the node's current epoch identifier.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Participating reports whether the node takes part in the current epoch.
func (n *Node) Participating() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.participating
}

// maxOutputs bounds the retained epoch outputs.
const maxOutputs = 16

// Outputs returns the retained completed-epoch outputs, oldest first (at
// most the last maxOutputs).
func (n *Node) Outputs() []Output {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Output(nil), n.outputs...)
}

// LastOutput returns the most recent epoch output.
func (n *Node) LastOutput() (Output, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.outputs) == 0 {
		return Output{}, false
	}
	return n.outputs[len(n.outputs)-1], true
}

// Metrics returns a snapshot of the node's protocol counters. It takes
// no lock: the counters are atomics, so scraping a running fleet never
// contends with the exchange path.
func (n *Node) Metrics() Metrics {
	m := n.metrics.snapshot()
	if n.guard != nil {
		m.DefenseRejected = n.guard.Rejected()
	}
	return m
}

// Subscribe returns a channel that receives every completed epoch's
// output — the paper's motivating monitoring pattern ("some aggregate
// reaching a specific value may trigger the execution of certain
// operations", §1). The channel is buffered; if the subscriber falls
// behind, the oldest unread outputs are dropped rather than blocking the
// protocol — outputs are published from the goroutine that runs every
// node of the process, which must never wait for a reader. The channel is
// closed when the node stops.
func (n *Node) Subscribe(buffer int) <-chan Output {
	if buffer < 1 {
		buffer = 8
	}
	ch := make(chan Output, buffer)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		close(ch)
		return ch
	}
	n.subs = append(n.subs, ch)
	return ch
}

// publishLocked delivers an epoch output to all subscribers without ever
// blocking: a full buffer drops its oldest entry first.
func (n *Node) publishLocked(out Output) {
	for _, ch := range n.subs {
		for {
			select {
			case ch <- out:
			default:
				select {
				case <-ch: // evict the oldest
					continue
				default:
				}
			}
			break
		}
	}
}

// closeSubsLocked closes all subscriber channels (at Stop).
func (n *Node) closeSubsLocked() {
	for _, ch := range n.subs {
		close(ch)
	}
	n.subs = nil
}

// contactEntries interns a contact address list into packed membership
// entries, dropping blanks and the node's own address — the one seeding
// path shared by founding bootstraps, §4.2 join seeds and out-of-band
// contact injection.
func (n *Node) contactEntries(addrs []string, stamp int32) []overlay.Entry {
	entries := make([]overlay.Entry, 0, len(addrs))
	for _, a := range addrs {
		if a == "" || a == n.Addr() {
			continue
		}
		entries = append(entries, overlay.Entry{Key: n.viewKey(book.Intern(a)), Stamp: stamp})
	}
	return entries
}

// AddContacts injects out-of-band discovered peer addresses into the
// NEWSCAST cache, stamped fresh. Deployments call it when an external
// discovery source (a seed list, DNS, an operator) learns of peers — for
// example to remerge the overlay after a network partition heals, when
// both sides' caches have long evicted each other's descriptors. The
// injected descriptors then spread epidemically through normal gossip.
func (n *Node) AddContacts(addrs []string) {
	now := time.Now()
	n.lock()
	defer n.unlock()
	n.view.Absorb(n.contactEntries(addrs, n.tick(now)))
}

// PeerCount returns the NEWSCAST cache occupancy.
func (n *Node) PeerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view.Len()
}

// Peers returns the current NEWSCAST view (addresses only).
func (n *Node) Peers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	packed := n.view.Packed()
	out := make([]string, 0, len(packed))
	for _, e := range packed {
		out = append(out, n.keyAddr(overlay.UnpackKey(e)))
	}
	return out
}
