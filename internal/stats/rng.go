// Package stats provides the statistical substrate for the aggregation
// library: a deterministic, splittable random number generator, streaming
// moment accumulators, quantiles, trimmed means, and the distribution
// helpers the DSN'04 paper relies on (Poisson exchange counts,
// convergence-factor estimation).
//
// All randomness in the simulator flows through RNG so that every
// experiment is reproducible bit-for-bit from a single seed.
package stats

import (
	"math"
	"math/bits"
	"slices"
)

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256++ with splitmix64 seeding. It is NOT safe for concurrent use;
// derive independent generators with Split for use across goroutines.
//
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator deterministically initialized from seed.
// Distinct seeds yield independent-looking streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 of any seed
	// cannot produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// splitmix64 advances the splitmix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return state, z
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Split returns a new generator whose stream is independent of the
// receiver's subsequent output. The receiver is advanced.
func (r *RNG) Split() *RNG {
	// Seeding a fresh splitmix chain from the parent's output decorrelates
	// the child from the parent's future xoshiro stream.
	return NewRNG(r.Uint64())
}

// NewStreamRNG returns the generator for stream index `stream` of the
// family rooted at seed: a pure function of (seed, stream), so shard s of
// a K-sharded run always receives the same stream regardless of how many
// other streams were derived before it. Distinct (seed, stream) pairs
// yield independent-looking generators; NewStreamRNG(seed, s) is also
// decorrelated from NewRNG(seed) itself.
func NewStreamRNG(seed, stream uint64) *RNG {
	// Advance the splitmix chain once so stream 0 differs from NewRNG(seed),
	// then jump the chain by the stream index before drawing the child seed.
	sm, _ := splitmix64(seed)
	sm += stream * 0x9e3779b97f4a7c15
	_, out := splitmix64(sm)
	return NewRNG(out)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics: callers must validate their bounds.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method (unbiased).
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Poisson returns a Poisson(lambda) variate. For small lambda it uses
// Knuth's product method; for large lambda the PTRS transformed-rejection
// method would be preferable, but the paper only needs lambda ~ 1, so the
// simple method with a normal fallback at lambda > 30 suffices.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation with continuity correction; adequate for
		// configuration sampling (never used in the convergence hot loop).
		v := math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64())
		if v < 0 {
			return 0
		}
		return int(v)
	}
	limit := math.Exp(-lambda)
	p := 1.0
	k := 0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Perm fills dst with a uniformly random permutation of [0, len(dst)).
func (r *RNG) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	r.Shuffle(len(dst), func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
}

// Shuffle performs a Fisher–Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// sampleScanMax is the longest sample that finds its duplicates by
// scanning what it has drawn so far; a longer one keeps a set.
const sampleScanMax = 64

// Sample fills dst with distinct uniform values from [0, n) excluding the
// values for which excluded returns true. It panics if fewer than len(dst)
// admissible values exist is not checked; callers must guarantee
// feasibility. Uses simple rejection, appropriate for len(dst) << n. A
// sample of at most sampleScanMax values allocates nothing — the engines
// draw one of c = 30 per node at set-up, and a set per node was 23 MB of
// garbage at N = 20000; the draws are the same either way.
func (r *RNG) Sample(dst []int, n int, excluded func(int) bool) {
	var seen map[int]struct{}
	if len(dst) > sampleScanMax {
		seen = make(map[int]struct{}, len(dst))
	}
	for i := range dst {
		for {
			v := r.Intn(n)
			if excluded != nil && excluded(v) {
				continue
			}
			if seen != nil {
				if _, dup := seen[v]; dup {
					continue
				}
				seen[v] = struct{}{}
			} else if slices.Contains(dst[:i], v) {
				continue
			}
			dst[i] = v
			break
		}
	}
}
