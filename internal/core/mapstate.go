package core

import (
	"math"
	"slices"
	"sort"

	"antientropy/internal/stats"
)

// LeaderID identifies the node that started a concurrent COUNT instance.
// In the simulator it is the node index; in the live runtime it is a hash
// of the leader's address (paper §5: "the address of the leader").
type LeaderID int64

// MapState is the state of the concurrent COUNT protocol (paper §5): a
// map associating each leader id with this node's current estimate for
// that leader's averaging instance. A missing entry is semantically an
// estimate of zero.
type MapState map[LeaderID]float64

// NewLeaderState returns the initial map of a node that leads an
// instance: {(l, 1)}.
func NewLeaderState(l LeaderID) MapState {
	return MapState{l: 1}
}

// Clone returns a deep copy of the map.
func (m MapState) Clone() MapState {
	out := make(MapState, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Merge implements the paper's merge rule for two exchanged maps:
//
//	M = {(l, e/2)        | e = Mi(l), l ∉ D(Mj)} ∪
//	    {(l, e/2)        | e = Mj(l), l ∉ D(Mi)} ∪
//	    {(l, (ei+ej)/2)  | ei = Mi(l) ∧ ej = Mj(l)}
//
// and returns the new map M, which both peers install. Halving an
// unmatched entry is exactly averaging it with the implicit zero held by
// the peer, so Merge conserves the total mass of every instance across
// the two nodes.
func Merge(a, b MapState) MapState {
	out := make(MapState, len(a)+len(b))
	for l, ea := range a {
		if eb, ok := b[l]; ok {
			out[l] = (ea + eb) / 2
		} else {
			out[l] = ea / 2
		}
	}
	for l, eb := range b {
		if _, ok := a[l]; !ok {
			out[l] = eb / 2
		}
	}
	return out
}

// Mass returns the total estimate mass held for leader l (0 if absent).
func (m MapState) Mass(l LeaderID) float64 { return m[l] }

// Leaders returns the instance ids present in the map, sorted for
// deterministic iteration.
func (m MapState) Leaders() []LeaderID {
	out := make([]LeaderID, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SizeEstimates converts every instance's averaging estimate into a
// network-size estimate 1/e (paper §5). Instances with non-positive mass
// report +Inf.
func (m MapState) SizeEstimates() map[LeaderID]float64 {
	out := make(map[LeaderID]float64, len(m))
	for l, e := range m {
		out[l] = SizeFromAverage(e)
	}
	return out
}

// CombinedSize reduces the per-instance size estimates with the
// multi-instance combiner of §7.3 (trimmed mean, see Combine). It returns
// ErrNoEstimate when no instance carries positive mass. A live COUNT node
// calls it about once per exchange, so the estimates are collected in a
// stack buffer and trimmed in place: no allocation up to 32 instances.
func (m MapState) CombinedSize() (float64, error) {
	var buf [32]float64
	ests := buf[:0]
	for _, e := range m {
		if s := SizeFromAverage(e); !math.IsInf(s, 1) {
			ests = append(ests, s)
		}
	}
	if len(ests) == 0 {
		return 0, ErrNoEstimate
	}
	// Combine on a slice this function owns: sorting it directly is the
	// copy-then-sort of stats.TrimmedMean, and ⌊len/3⌋ from each end
	// never trims a non-empty list to nothing.
	slices.Sort(ests)
	drop := len(ests) / TrimDivisor
	return stats.Mean(ests[drop : len(ests)-drop])
}
