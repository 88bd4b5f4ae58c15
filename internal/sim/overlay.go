package sim

import (
	"fmt"

	"antientropy/internal/overlay"
	"antientropy/internal/stats"
	"antientropy/internal/topology"
)

// Overlay is the engine's view of the overlay network: it answers
// GETNEIGHBOR for the aggregation protocol and may evolve once per cycle
// (NEWSCAST does; static topologies do not).
type Overlay interface {
	// Neighbor returns the peer node would contact, or -1 when the node
	// currently knows no peers.
	Neighbor(node int, rng *stats.RNG) int
	// Step advances the overlay by one cycle (descriptor gossip etc.).
	Step(cycle int)
	// OnJoin integrates a (re)joining node, seeding its view.
	OnJoin(node int, cycle int)
}

// OverlayContext carries what an overlay builder may depend on.
type OverlayContext struct {
	// N is the node count.
	N int
	// RNG is the builder's private generator (already split from the
	// engine's).
	RNG *stats.RNG
	// Alive reports whether a node is currently alive; overlays use it to
	// model exchange timeouts with crashed peers.
	Alive func(node int) bool
	// RandomAlive returns a uniformly random live node (-1 if none). The
	// live-complete overlay uses it to model full membership knowledge.
	RandomAlive func(rng *stats.RNG) int
}

// OverlayBuilder constructs an overlay for one experiment repetition.
type OverlayBuilder func(ctx OverlayContext) (Overlay, error)

// staticOverlay adapts a topology.Graph: links never change.
type staticOverlay struct {
	g topology.Graph
}

var _ Overlay = (*staticOverlay)(nil)

func (s *staticOverlay) Neighbor(node int, rng *stats.RNG) int {
	return s.g.Neighbor(node, rng)
}

func (s *staticOverlay) Step(int)        {}
func (s *staticOverlay) OnJoin(int, int) {}

// Static wraps an already-built graph as an overlay builder. The graph
// must have exactly ctx.N nodes.
func Static(g topology.Graph) OverlayBuilder {
	return func(ctx OverlayContext) (Overlay, error) {
		if g.N() != ctx.N {
			return nil, fmt.Errorf("sim: static overlay has %d nodes, engine expects %d", g.N(), ctx.N)
		}
		return &staticOverlay{g: g}, nil
	}
}

// StaticFunc defers graph construction to experiment time so each
// repetition draws an independent random graph.
func StaticFunc(build func(n int, rng *stats.RNG) (topology.Graph, error)) OverlayBuilder {
	return func(ctx OverlayContext) (Overlay, error) {
		g, err := build(ctx.N, ctx.RNG)
		if err != nil {
			return nil, err
		}
		return &staticOverlay{g: g}, nil
	}
}

// liveComplete is the fully connected overlay over the current membership:
// every node can contact every other live node. This models the paper's
// "fully connected topology" under crashes, where a crashed node is simply
// no longer part of anyone's membership.
type liveComplete struct {
	randomAlive func(rng *stats.RNG) int
}

var _ Overlay = (*liveComplete)(nil)

func (l *liveComplete) Neighbor(node int, rng *stats.RNG) int {
	// Rejection-sample a live peer different from the caller; bounded
	// retries guard the one-survivor corner.
	for attempt := 0; attempt < 64; attempt++ {
		j := l.randomAlive(rng)
		if j < 0 {
			return -1
		}
		if j != node {
			return j
		}
	}
	return -1
}

func (l *liveComplete) Step(int)        {}
func (l *liveComplete) OnJoin(int, int) {}

// CompleteLive returns the fully connected overlay over live nodes.
func CompleteLive() OverlayBuilder {
	return func(ctx OverlayContext) (Overlay, error) {
		if ctx.RandomAlive == nil {
			return nil, fmt.Errorf("sim: CompleteLive requires a RandomAlive context")
		}
		return &liveComplete{randomAlive: ctx.RandomAlive}, nil
	}
}

// NewscastOverlay runs one NEWSCAST instance per node inside the
// simulator: every cycle each live node performs one cache exchange with
// a random cache member (skipped, like a timed-out connection, when that
// member has crashed), and the aggregation protocol draws its neighbors
// from the same caches. The caches live in one flat packed
// overlay.Table — the identical representation (and merge code) the
// sharded engine and the live agent use, so a serial NEWSCAST sweep
// inherits the packed-exchange speedup and the engines' merge results
// agree descriptor for descriptor.
type NewscastOverlay struct {
	t       *overlay.Table
	alive   func(int) bool
	rng     *stats.RNG
	perm    []int
	scratch []uint64
	// bootstrapSize is how many random live contacts a joiner is seeded
	// with (out-of-band discovery, paper §4.2).
	bootstrapSize int
	// filter, when non-nil, vetoes gossip exchanges between node pairs
	// (partition enforcement; see Engine.SetExchangeFilter).
	filter func(i, j int) bool
}

var (
	_ Overlay          = (*NewscastOverlay)(nil)
	_ GossipFilterable = (*NewscastOverlay)(nil)
)

// Newscast returns an overlay builder running NEWSCAST with cache size c.
// The initial caches are seeded with c random peers each, modelling a
// warmed-up overlay, which is what the paper's experiments assume.
func Newscast(c int) OverlayBuilder {
	return func(ctx OverlayContext) (Overlay, error) {
		t, err := overlay.NewTable(ctx.N, c)
		if err != nil {
			return nil, err
		}
		o := &NewscastOverlay{
			t:             t,
			alive:         ctx.Alive,
			rng:           ctx.RNG,
			perm:          make([]int, ctx.N),
			bootstrapSize: min(c, ctx.N-1),
		}
		// Seeding keeps the historical sample-without-replacement draws
		// (not the sharded engine's rejection loop) so serial runs stay
		// bit-identical across the packed-cache migration.
		seedBuf := make([]int, min(c, ctx.N-1))
		entries := make([]overlay.Entry, len(seedBuf))
		for i := 0; i < ctx.N; i++ {
			ctx.RNG.Sample(seedBuf, ctx.N, func(v int) bool { return v == i })
			for j, v := range seedBuf {
				entries[j] = overlay.Entry{Key: int32(v), Stamp: 0}
			}
			t.At(i).Seed(entries)
		}
		return o, nil
	}
}

// Neighbor draws a uniform member of the node's current cache.
func (o *NewscastOverlay) Neighbor(node int, rng *stats.RNG) int {
	return o.t.Neighbor(node, rng)
}

// Step performs one NEWSCAST round: every live node initiates one cache
// exchange. Exchanges with crashed peers time out and are skipped; the
// stale descriptor ages out on its own as fresher information spreads.
// Exchanges vetoed by the gossip filter (partitioned pairs) are dropped
// the same way.
func (o *NewscastOverlay) Step(cycle int) {
	o.rng.Perm(o.perm)
	for _, i := range o.perm {
		if !o.alive(i) {
			continue
		}
		j := o.t.Neighbor(i, o.rng)
		if j < 0 {
			continue
		}
		if !o.alive(j) {
			continue
		}
		if o.filter != nil && !o.filter(i, j) {
			continue
		}
		o.scratch = o.t.Exchange(o.scratch, i, j, cycle)
	}
}

// SetGossipFilter installs (or removes, with nil) the partition veto on
// NEWSCAST's own exchanges.
func (o *NewscastOverlay) SetGossipFilter(filter func(i, j int) bool) {
	o.filter = filter
}

// OnJoin reseeds the cache of a node that took over a slot (churn): the
// joiner bootstraps from a handful of random live contacts.
func (o *NewscastOverlay) OnJoin(node int, cycle int) {
	n := o.t.N()
	size := o.bootstrapSize
	if size > n-1 {
		size = n - 1
	}
	if size < 1 {
		return
	}
	// Joiners may momentarily be seeded with a dead contact; NEWSCAST
	// repairs that within a cycle or two, as in a real deployment.
	buf := make([]int, size)
	o.rng.Sample(buf, n, func(v int) bool { return v == node })
	entries := make([]overlay.Entry, size)
	for j, v := range buf {
		entries[j] = overlay.Entry{Key: int32(v), Stamp: int32(cycle)}
	}
	o.t.At(node).Seed(entries)
}

// Cache exposes a node's NEWSCAST membership view for inspection in
// tests and overlay-quality experiments.
func (o *NewscastOverlay) Cache(node int) *overlay.Membership {
	return o.t.At(node)
}

// frozenNewscast is the A3 ablation overlay: NEWSCAST caches are
// bootstrapped but descriptor gossip never runs, so aggregation keeps
// sampling the same static random views. It quantifies what continuous
// overlay refresh buys.
type frozenNewscast struct {
	*NewscastOverlay
}

// Step is deliberately a no-op: the caches stay frozen.
func (f *frozenNewscast) Step(int) {}

// NewscastFrozen returns a NEWSCAST overlay whose gossip is disabled
// after bootstrap (ablation A3).
func NewscastFrozen(c int) OverlayBuilder {
	inner := Newscast(c)
	return func(ctx OverlayContext) (Overlay, error) {
		ov, err := inner(ctx)
		if err != nil {
			return nil, err
		}
		ns, ok := ov.(*NewscastOverlay)
		if !ok {
			return nil, fmt.Errorf("sim: unexpected overlay type %T", ov)
		}
		return &frozenNewscast{NewscastOverlay: ns}, nil
	}
}
