package sim

import (
	"fmt"

	"antientropy/internal/overlay"
	"antientropy/internal/stats"
	"antientropy/internal/topology"
)

// OverlaySpec selects the overlay of a run: it answers GETNEIGHBOR for
// the aggregation protocol and may evolve once per cycle (NEWSCAST does;
// static topologies do not). Specs are descriptions, not instances: the
// engine builds the overlay against its own shard layout.
type OverlaySpec interface {
	build(e *Engine) (overlayImpl, error)
}

// overlayImpl is the engine's internal view of an overlay. neighbor must
// only read the node's own view (it runs in the parallel phase) and
// returns -1 when the node knows no peer; stepShard runs one shard's
// slice of the overlay round, deferring cross-shard work; flushCross
// drains the deferred work; onJoin seeds the view of a (re)joining node
// from the given serial-phase stream.
type overlayImpl interface {
	neighbor(node int, rng *stats.RNG) int
	stepShard(s *shard, cycle int)
	flushCross(cycle int)
	onJoin(node, cycle int, rng *stats.RNG)
}

// fixedLinks is embedded by overlays that neither gossip nor react to
// joins.
type fixedLinks struct{}

func (fixedLinks) stepShard(*shard, int)       {}
func (fixedLinks) flushCross(int)              {}
func (fixedLinks) onJoin(int, int, *stats.RNG) {}

// Newscast selects the NEWSCAST overlay with cache size c (values below 1
// fall back to the paper's recommended 30): every cycle each live node
// initiates one cache exchange with a random cache member, and the
// aggregation protocol draws its neighbors from the same caches.
// Exchanges with crashed peers time out and are skipped — the stale
// descriptor ages out on its own as fresher information spreads — and the
// partition filter vetoes gossip across a split exactly as it vetoes
// aggregation exchanges.
func Newscast(c int) OverlaySpec { return newscastSpec{c: c} }

// NewscastFrozen selects a NEWSCAST overlay whose descriptor gossip is
// disabled after the bootstrap seeding (the A3 ablation): aggregation
// keeps sampling the same static random views, joiners are still seeded.
// It quantifies what continuous overlay refresh buys.
func NewscastFrozen(c int) OverlaySpec { return newscastSpec{c: c, frozen: true} }

type newscastSpec struct {
	c      int
	frozen bool
}

func (sp newscastSpec) build(e *Engine) (overlayImpl, error) {
	if sp.c < 1 {
		sp.c = 30
	}
	t, err := overlay.NewTable(e.nodes, sp.c)
	if err != nil {
		return nil, err
	}
	o := &newscast{
		e:             e,
		t:             t,
		frozen:        sp.frozen,
		bootstrapSize: min(sp.c, e.nodes-1),
	}
	// Seed every cache with up to c distinct random peers (a warmed-up
	// overlay, as the paper's experiments assume). Seeding is sharded:
	// each shard seeds its own nodes from its own stream, so a 10⁶-node
	// build parallelizes like a cycle does.
	e.parallel(func(s *shard) {
		for i := s.lo; i < s.hi; i++ {
			t.SeedRandom(i, o.bootstrapSize, e.nodes, 0, s.rng)
		}
	})
	if len(e.shards) > 1 && !sp.frozen {
		// A node initiates at most one gossip a cycle: at most N pairs.
		o.level, o.pairLevel = make([]int32, e.nodes), make([]int32, e.nodes)
		o.ends, o.byLevel = make([]int32, e.nodes+1), make([]crossPair, e.nodes)
		o.scratch, o.levelJob = make([][]uint64, e.workers), o.applyShare
	}
	return o, nil
}

// newscast drives the packed membership layer (overlay.Table — one flat
// allocation-free view array, the identical representation and merge
// code the live agent uses) through the engine's two-phase shard
// schedule.
type newscast struct {
	e *Engine
	t *overlay.Table
	// frozen disables the gossip round (NewscastFrozen).
	frozen bool

	// bootstrapSize is how many contacts a joiner or reseeded node gets
	// (out-of-band discovery, paper §4.2).
	bootstrapSize int

	// flushCross's level schedule, when there are shards to drain: per
	// node, per pair in drain order, the end of each level in byLevel,
	// the pairs grouped by level; the level being applied at cycle, its
	// fan-out job and each part's merge buffer.
	level, pairLevel, ends []int32
	byLevel, pairs         []crossPair
	cycle                  int
	levelJob               func(part, parts int)
	scratch                [][]uint64
}

// neighbor draws a uniform member of the node's current view.
func (o *newscast) neighbor(node int, rng *stats.RNG) int {
	return o.t.Neighbor(node, rng)
}

// stepShard runs one shard's gossip initiations: intra-shard exchanges
// apply immediately, cross-shard ones are deferred to flushCross. Only
// the initiator's own view is read to pick the peer, and only local
// caches are written, so the phase is race-free.
func (o *newscast) stepShard(s *shard, cycle int) {
	if o.frozen {
		return
	}
	e := o.e
	s.gossip = s.gossip[:0]
	s.permute()
	for k, off := range s.perm {
		if k+2 < len(s.perm) {
			o.t.Prefetch(s.lo + int(s.perm[k+2]))
		}
		i := s.lo + int(off)
		if !e.alive.Contains(i) {
			continue
		}
		j := o.neighbor(i, s.rng)
		if j < 0 {
			continue
		}
		o.t.Prefetch(j)
		if !e.alive.Contains(j) {
			continue
		}
		if e.filter != nil && !e.filter(i, j) {
			continue
		}
		if e.shardOf(j) == s.index {
			s.scratch = o.t.Exchange(s.scratch, i, j, cycle)
		} else {
			s.gossip = append(s.gossip, crossPair{i: int32(i), j: int32(j)})
		}
	}
}

// flushCross applies the deferred cross-shard gossip exchanges as if in
// shard order — the deterministic merge step of the overlay round. It
// applies them level by level (see the package comment), each level split
// across the workers, and the views come out as that order leaves them.
// With one shard, or frozen gossip, nothing is deferred.
func (o *newscast) flushCross(cycle int) {
	n, top := 0, int32(0)
	for _, s := range o.e.shards {
		for _, p := range s.gossip {
			l := max(o.level[p.i], o.level[p.j]) + 1
			o.level[p.i], o.level[p.j] = l, l
			o.pairLevel[n] = l
			o.ends[l]++
			top = max(top, l)
			n++
		}
	}
	// Counts become starts, and placing the pairs turns them into ends.
	start := int32(0)
	for l := int32(1); l <= top; l++ {
		start, o.ends[l] = start+o.ends[l], start
	}
	n = 0
	for _, s := range o.e.shards {
		for _, p := range s.gossip {
			l := o.pairLevel[n]
			o.byLevel[o.ends[l]] = p
			o.ends[l]++
			o.level[p.i], o.level[p.j] = 0, 0
			n++
		}
	}
	start = 0
	for l := int32(1); l <= top; l++ {
		o.applyLevel(o.byLevel[start:o.ends[l]], cycle)
		start, o.ends[l] = o.ends[l], 0
	}
}

// crossShare is the fewest pairs worth a helper. On a 20 000-node,
// four-shard cycle on two cores, 64 and 1024 both ran slower than 256.
const crossShare = 256

// applyLevel applies one level's pairs, which touch disjoint views,
// across up to the engine's workers.
func (o *newscast) applyLevel(pairs []crossPair, cycle int) {
	o.pairs, o.cycle = pairs, cycle
	o.e.fanOut(max(1, min(o.e.workers, len(pairs)/crossShare)), o.levelJob)
}

// applyShare applies one part's share of the level's pairs.
func (o *newscast) applyShare(part, parts int) {
	share := (len(o.pairs) + parts - 1) / parts
	pairs := o.pairs[min(part*share, len(o.pairs)):min((part+1)*share, len(o.pairs))]
	o.scratch[part] = applyPairs(o.t, o.scratch[part], pairs, o.cycle)
}

// applyPairs exchanges the pairs in order on the given merge buffer,
// prefetching the views two pairs ahead.
func applyPairs(t *overlay.Table, scratch []uint64, pairs []crossPair, cycle int) []uint64 {
	for k, p := range pairs {
		if k+2 < len(pairs) {
			t.Prefetch(int(pairs[k+2].i))
			t.Prefetch(int(pairs[k+2].j))
		}
		scratch = t.Exchange(scratch, int(p.i), int(p.j), cycle)
	}
	return scratch
}

// onJoin reseeds the view of a node that took over a slot (churn, joins)
// or is being refreshed by a post-heal rendezvous. Contacts are drawn
// from the whole slot space, so a joiner may briefly hold a dead contact
// — NEWSCAST repairs that within a cycle or two, as in a real deployment.
func (o *newscast) onJoin(node, cycle int, rng *stats.RNG) {
	o.t.SeedRandom(node, o.bootstrapSize, o.e.nodes, int32(cycle), rng)
}

// CompleteLive selects the fully connected overlay over the live
// membership: every node can contact every other live node. This models
// the paper's "fully connected topology" under crashes, where a crashed
// node is simply no longer part of anyone's membership.
func CompleteLive() OverlaySpec { return completeLiveSpec{} }

type completeLiveSpec struct{}

func (completeLiveSpec) build(e *Engine) (overlayImpl, error) { return &completeLive{e: e}, nil }

type completeLive struct {
	fixedLinks
	e *Engine
}

// neighbor rejection-samples a live peer different from the caller;
// bounded retries guard the one-survivor corner. The live set is only
// mutated in serial phases, so concurrent reads with per-shard RNGs are
// safe.
func (o *completeLive) neighbor(node int, rng *stats.RNG) int {
	if o.e.alive.Len() == 0 {
		return -1
	}
	for attempt := 0; attempt < 64; attempt++ {
		j := o.e.alive.Random(rng)
		if j != node {
			return j
		}
	}
	return -1
}

// Static selects a fixed topology generated by build, covering the
// non-random topology families of the fig3/fig4 sweeps (Watts–Strogatz,
// scale-free, random k-out, complete). The graph is generated once at
// engine construction from a stream split off the control stream — so
// each repetition draws an independent graph that is a pure function of
// the seed — and served through topology's packed CSR adjacency, which
// the parallel exchange phases read concurrently without
// synchronization. Links never change: there is no per-cycle gossip, and
// joins keep the slot's original adjacency.
func Static(build func(n int, rng *stats.RNG) (topology.Graph, error)) OverlaySpec {
	return staticSpec{gen: build}
}

type staticSpec struct {
	gen func(n int, rng *stats.RNG) (topology.Graph, error)
}

func (sp staticSpec) build(e *Engine) (overlayImpl, error) {
	g, err := sp.gen(e.nodes, e.ctl.Split())
	if err != nil {
		return nil, err
	}
	if g.N() != e.nodes {
		return nil, fmt.Errorf("sim: static overlay has %d nodes, engine expects %d", g.N(), e.nodes)
	}
	return &staticOverlay{g: g}, nil
}

type staticOverlay struct {
	fixedLinks
	g topology.Graph
}

func (o *staticOverlay) neighbor(node int, rng *stats.RNG) int {
	return o.g.Neighbor(node, rng)
}
