package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Combiner reduces a set of estimate samples to one value. It is the
// pluggable merge policy of the defense API: the same interface covers
// the §7.3 multi-instance combination (reduce t concurrent instance
// outputs to one robust estimate) and the per-exchange push-pull merge
// (reduce {local, peer, recent peers} to the node's next estimate, see
// MergeGuard). Implementations must be deterministic pure functions of
// the sample multiset so the simulation engines stay bit-reproducible.
//
// Non-finite samples (NaN, ±Inf) are discarded by every shipped
// implementation — a Byzantine node reporting NaN must not be able to
// poison the merge. An all-discarded sample set combines to 0.
type Combiner interface {
	// Name identifies the combiner for configs, logs and the serve API.
	Name() string
	// Combine reduces the samples. It must not modify the slice.
	Combine(samples []float64) float64
}

// Combiner names accepted by CombinerByName (and the scenario DSL's
// defense section and the serve API's combiner field).
const (
	CombinerMean        = "mean"
	CombinerClampedMean = "clamped-mean"
	CombinerMedianOfK   = "median-of-k"
	CombinerTrimmedMean = "trimmed-mean"
)

// CombinerNames lists the recognized combiner names.
func CombinerNames() []string {
	return []string{CombinerMean, CombinerClampedMean, CombinerMedianOfK, CombinerTrimmedMean}
}

// CombinerByName resolves a combiner name. clampMin/clampMax only apply
// to "clamped-mean"; they must satisfy clampMin < clampMax and be
// finite.
func CombinerByName(name string, clampMin, clampMax float64) (Combiner, error) {
	switch name {
	case CombinerMean:
		return Mean{}, nil
	case CombinerClampedMean:
		if !(clampMin < clampMax) || math.IsInf(clampMin, 0) || math.IsInf(clampMax, 0) ||
			math.IsNaN(clampMin) || math.IsNaN(clampMax) {
			return nil, fmt.Errorf("core: clamped-mean needs finite clamp bounds with min < max, got [%g, %g]",
				clampMin, clampMax)
		}
		return ClampedMean{Min: clampMin, Max: clampMax}, nil
	case CombinerMedianOfK:
		return MedianOfK{}, nil
	case CombinerTrimmedMean:
		return TrimmedMean{Divisor: TrimDivisor}, nil
	default:
		return nil, fmt.Errorf("core: unknown combiner %q (want one of %v)", name, CombinerNames())
	}
}

// stackSamples is the sample count up to which a merge works in stack
// buffers and allocates nothing: a MergeGuard window of k ≤ 16 — local
// value, peer sample and k−2 remembered ones.
const stackSamples = 16

// finite collects the finite samples of xs into dst (reused when
// capacity allows).
func finite(dst, xs []float64) []float64 {
	dst = dst[:0]
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			dst = append(dst, x)
		}
	}
	return dst
}

// Mean is the undefended baseline: the arithmetic mean of the finite
// samples. Over {local, peer} it reproduces the paper's elementary
// push-pull step (a+b)/2 exactly.
type Mean struct{}

// Name identifies the combiner.
func (Mean) Name() string { return CombinerMean }

// Combine averages the finite samples.
func (Mean) Combine(samples []float64) float64 {
	var sum float64
	n := 0
	for _, x := range samples {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		sum += x
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ClampedMean clamps every sample into [Min, Max] before averaging —
// the value-clamping defense: a Byzantine extreme contributes at most
// the clamp bound, so the bias an attacker can inject per merge is
// bounded by (Max−Min)/k instead of unbounded.
type ClampedMean struct {
	// Min and Max bound the admissible value range (Min < Max).
	Min, Max float64
}

// Name identifies the combiner.
func (ClampedMean) Name() string { return CombinerClampedMean }

// Combine clamps each finite sample into [Min, Max] and averages.
func (c ClampedMean) Combine(samples []float64) float64 {
	var sum float64
	n := 0
	for _, x := range samples {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if x < c.Min {
			x = c.Min
		}
		if x > c.Max {
			x = c.Max
		}
		sum += x
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MedianOfK returns the median of the finite samples — the
// outlier-rejection defense for redundant exchanges: with k samples per
// merge, up to ⌈k/2⌉−1 of them can be arbitrarily corrupted without
// moving the output outside the honest sample range (the classical 50%
// breakdown point of the median).
type MedianOfK struct{}

// Name identifies the combiner.
func (MedianOfK) Name() string { return CombinerMedianOfK }

// Combine returns the median of the finite samples (mean of the two
// central order statistics for even counts).
func (MedianOfK) Combine(samples []float64) float64 {
	var stack [stackSamples]float64
	buf := finite(stack[:0], samples)
	if len(buf) == 0 {
		return 0
	}
	slices.Sort(buf)
	mid := len(buf) / 2
	if len(buf)%2 == 1 {
		return buf[mid]
	}
	return (buf[mid-1] + buf[mid]) / 2
}

// TrimmedMean is the paper's §7.3 combiner: sort, discard the
// ⌊len/Divisor⌋ lowest and highest samples, average the rest. With
// Divisor = TrimDivisor it is exactly the historical Combine helper.
type TrimmedMean struct {
	// Divisor is the paper's k (≤ 0 selects TrimDivisor).
	Divisor int
}

// Name identifies the combiner.
func (TrimmedMean) Name() string { return CombinerTrimmedMean }

// Combine trims and averages the finite samples. When trimming would
// discard everything it falls back to the plain mean, mirroring the
// historical helper.
func (t TrimmedMean) Combine(samples []float64) float64 {
	k := t.Divisor
	if k <= 0 {
		k = TrimDivisor
	}
	var stack [stackSamples]float64
	buf := finite(stack[:0], samples)
	if len(buf) == 0 {
		return 0
	}
	drop := len(buf) / k
	if 2*drop >= len(buf) {
		return Mean{}.Combine(buf)
	}
	slices.Sort(buf)
	return Mean{}.Combine(buf[drop : len(buf)-drop])
}

// MergeGuard applies a Combiner to the pairwise push-pull merge,
// keeping a per-node window of recent peer samples so that median-of-k
// style combiners have k samples to vote over instead of the two a
// single exchange provides. One guard instance serves a whole engine
// (node-indexed) or a single live node (n = 1, node 0).
//
// Merge(i, local, peer) combines {local, peer} ∪ window(i), then
// appends peer to window(i). With the Mean combiner and an empty window
// (k ≤ 2) the result is bit-identical to the classical (local+peer)/2
// push-pull step. Windows reset at epoch restarts (ResetAll) and on
// node replacement (ResetNode): samples gathered under a previous
// epoch's value assignment must not vote in the next.
//
// Concurrency: node i's window is only touched by Merge(i, ...) calls,
// which every engine issues from the goroutine owning node i (the
// sharded engine merges cross-shard exchanges serially), so windows
// need no locks. The rejection counters are atomics because shards
// observe rejections concurrently.
type MergeGuard struct {
	combiner Combiner
	k        int
	win      [][]float64

	rejected atomic.Int64
	merges   atomic.Int64
}

// DefaultMergeK is the sample-window size used when a defense enables
// a combiner without choosing k: local + current peer + 3 recent peers,
// enough for the median to outvote a single Byzantine sample per merge.
const DefaultMergeK = 5

// NewMergeGuard builds a guard over n node slots. k is the total
// sample budget per merge (local + current peer + up to k−2 recent
// peers); k < 2 selects DefaultMergeK.
func NewMergeGuard(c Combiner, k, n int) *MergeGuard {
	if k < 2 {
		k = DefaultMergeK
	}
	return &MergeGuard{combiner: c, k: k, win: make([][]float64, n)}
}

// Combiner returns the guard's combiner.
func (g *MergeGuard) Combiner() Combiner { return g.combiner }

// K returns the per-merge sample budget.
func (g *MergeGuard) K() int { return g.k }

// Merge combines node's local estimate with the incoming peer sample
// and the node's recent-sample window, then records peer in the window.
// A non-finite peer sample is rejected outright: it never enters the
// window and the merge degenerates to the window vote without it.
func (g *MergeGuard) Merge(node int, local, peer float64) float64 {
	g.merges.Add(1)
	w := g.win[node]
	// The sample buffer is per-call: shards of the parallel engine merge
	// concurrently, and a guard-level scratch would race. It lives on the
	// stack for the usual window; append moves a longer one to the heap.
	var stack [stackSamples]float64
	samples := append(stack[:0], local)
	if math.IsNaN(peer) || math.IsInf(peer, 0) {
		g.rejected.Add(1)
		if len(w) == 0 {
			return local
		}
		samples = append(samples, w...)
		return g.combine(samples)
	}
	samples = append(samples, peer)
	samples = append(samples, w...)
	out := g.combine(samples)
	if c, ok := g.combiner.(ClampedMean); ok && (peer < c.Min || peer > c.Max) {
		g.rejected.Add(1)
	}
	if g.k > 2 {
		if len(w) >= g.k-2 {
			copy(w, w[1:])
			w[len(w)-1] = peer
		} else {
			w = append(w, peer)
		}
		g.win[node] = w
	}
	return out
}

// combine applies the guard's combiner. The shipped combiners are called
// directly, which lets the compiler see that samples stays on the
// caller's stack; one it cannot see into gets a copy it may keep.
func (g *MergeGuard) combine(samples []float64) float64 {
	switch c := g.combiner.(type) {
	case Mean:
		return c.Combine(samples)
	case ClampedMean:
		return c.Combine(samples)
	case MedianOfK:
		return c.Combine(samples)
	case TrimmedMean:
		return c.Combine(samples)
	default:
		return c.Combine(slices.Clone(samples))
	}
}

// ResetNode clears node's sample window (node replacement / join).
func (g *MergeGuard) ResetNode(node int) {
	if g.win[node] != nil {
		g.win[node] = g.win[node][:0]
	}
}

// ResetAll clears every window (epoch restart).
func (g *MergeGuard) ResetAll() {
	for i := range g.win {
		if g.win[i] != nil {
			g.win[i] = g.win[i][:0]
		}
	}
}

// Merges reports the total merges screened by the guard.
func (g *MergeGuard) Merges() int64 { return g.merges.Load() }

// Rejected reports the peer samples the guard rejected or clamped —
// the agg_adversary_rejected_total source.
func (g *MergeGuard) Rejected() int64 { return g.rejected.Load() }
