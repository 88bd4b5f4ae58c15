package stats

import (
	"encoding/json"
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by summary operations on empty data sets.
var ErrEmpty = errors.New("stats: empty data set")

// Moments accumulates count, mean and variance in a single streaming pass
// using Welford's numerically stable algorithm. The zero value is ready to
// use.
type Moments struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates the observation x.
func (m *Moments) Add(x float64) {
	if m.n == 0 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n++
	delta := x - m.mean
	m.mean += delta / float64(m.n)
	m.m2 += delta * (x - m.mean)
}

// Merge folds another accumulator's observations into m with the
// pairwise update of Chan, Golub and LeVeque: the result equals adding
// both samples to one accumulator, without the cancellation that
// combining raw sums Σx, Σx² suffers once the spread is far below the
// mean. Partial aggregates computed in different processes merge with it.
func (m *Moments) Merge(other Moments) {
	if other.n == 0 {
		return
	}
	if m.n == 0 {
		*m = other
		return
	}
	n := m.n + other.n
	delta := other.mean - m.mean
	m.m2 += other.m2 + delta*delta*float64(m.n)*float64(other.n)/float64(n)
	m.mean += delta * float64(other.n) / float64(n)
	if other.min < m.min {
		m.min = other.min
	}
	if other.max > m.max {
		m.max = other.max
	}
	m.n = n
}

// momentsJSON is the transport form of a Moments: the count, the mean,
// M2 = Σ(x − mean)² and the extremes — exactly the accumulator's state.
type momentsJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON encodes the accumulator's state, so a partial aggregate
// can cross a process boundary and be merged on the other side.
func (m Moments) MarshalJSON() ([]byte, error) {
	return json.Marshal(momentsJSON{N: m.n, Mean: m.mean, M2: m.m2, Min: m.min, Max: m.max})
}

// UnmarshalJSON restores an accumulator encoded by MarshalJSON.
func (m *Moments) UnmarshalJSON(data []byte) error {
	var j momentsJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.N < 0 || j.M2 < 0 {
		return errors.New("stats: moments with a negative count or M2")
	}
	*m = Moments{n: j.N, mean: j.Mean, m2: j.M2, min: j.Min, max: j.Max}
	return nil
}

// AddAll incorporates every value of xs.
func (m *Moments) AddAll(xs []float64) {
	for _, x := range xs {
		m.Add(x)
	}
}

// N returns the number of observations.
func (m Moments) N() int { return m.n }

// Mean returns the arithmetic mean (0 for an empty accumulator).
func (m Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased sample variance (denominator n−1), as in
// equation (1) of the paper. It returns 0 for fewer than two observations.
func (m Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// PopVariance returns the population variance (denominator n).
func (m Moments) PopVariance() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// StdDev returns the sample standard deviation.
func (m Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Min returns the smallest observation (0 when empty).
func (m Moments) Min() float64 { return m.min }

// Max returns the largest observation (0 when empty).
func (m Moments) Max() float64 { return m.max }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var m Moments
	m.AddAll(xs)
	return m.Mean(), nil
}

// Variance returns the unbiased sample variance of xs (equation (1)).
func Variance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var m Moments
	m.AddAll(xs)
	return m.Variance(), nil
}

// MinMax returns the extreme values of xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// TrimmedMean implements the combiner of paper §7.3: the values are
// sorted, the ⌊len/k⌋ lowest and ⌊len/k⌋ highest are discarded (the paper
// uses k = 3), and the mean of the remainder is returned. If trimming
// would discard everything the plain mean is returned.
func TrimmedMean(xs []float64, k int) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if k <= 0 {
		return 0, errors.New("stats: trim divisor must be positive")
	}
	drop := len(xs) / k
	if 2*drop >= len(xs) {
		return Mean(xs)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Mean(sorted[drop : len(sorted)-drop])
}

// GeometricMean returns the geometric mean of xs, which must all be
// positive.
func GeometricMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sumLog := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: geometric mean requires positive values")
		}
		sumLog += math.Log(x)
	}
	return math.Exp(sumLog / float64(len(xs))), nil
}
