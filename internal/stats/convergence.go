package stats

import (
	"math"
	"slices"
)

// Rho is the per-cycle convergence factor (v/v0)^(1/cycles) of an
// estimate variance that went from v0 to v over cycles cycles (paper
// §3; push-pull averaging reads 1/(2√e) ≈ 0.303). It reports false when
// v0 is not positive: a spread that is already gone has no rate.
func Rho(v0, v float64, cycles int) (float64, bool) {
	if v0 <= 0 {
		return 0, false
	}
	return math.Pow(v/v0, 1/float64(cycles)), true
}

// RhoWindow estimates the convergence factor from per-cycle variance
// samples of the estimates: for each epoch whose samples cover cycles
// From and To, the factor Rho between them, pooled across epochs by
// their geometric mean — the "average convergence factor over a period
// of cycles" of the paper's Figures 3, 4 and 7. Estimates restart at
// every epoch (§4.1), so no factor spans two epochs.
//
// When the variance underflows to zero before To, the factor is read
// from the last positive sample instead, so that extremely fast
// topologies do not report a spurious zero; an epoch with no positive
// sample after From reads 0 (it converged at once). An epoch whose
// variance at From is zero, or whose samples stop before To, has no
// factor.
//
// Feed samples in cycle order within an epoch; a new epoch number
// starts a new epoch. The zero value has the window [0, 0]: set From
// and To before the first Add.
type RhoWindow struct {
	From, To int

	epoch   int
	v0      float64 // variance at From in the current epoch; 0 once its factor is taken
	last    int     // last cycle in (From, To] with positive variance
	vLast   float64 // its variance, 0 when there is none
	factors []float64
}

// Add records the estimate variance at cycle (counted within the epoch)
// of epoch.
func (w *RhoWindow) Add(epoch, cycle int, variance float64) {
	if epoch != w.epoch {
		w.epoch, w.v0 = epoch, 0
	}
	switch {
	case cycle == w.From:
		w.v0, w.vLast = variance, 0
	case w.v0 > 0 && cycle > w.From && cycle <= w.To:
		if variance > 0 {
			w.last, w.vLast = cycle, variance
		}
		if cycle == w.To {
			span := w.To - w.From
			if w.vLast > 0 {
				span = w.last - w.From
			}
			f, _ := Rho(w.v0, w.vLast, span)
			w.factors = append(w.factors, f)
			w.v0 = 0
		}
	}
}

// Factors returns each complete epoch's factor, in the order the
// epochs were fed.
func (w *RhoWindow) Factors() []float64 { return w.factors }

// Factor pools the epochs' factors by their geometric mean; a single
// epoch's factor is returned as it is. It reports false when no epoch
// has a factor.
func (w *RhoWindow) Factor() (float64, bool) {
	switch {
	case len(w.factors) == 0:
		return 0, false
	case len(w.factors) == 1:
		return w.factors[0], true
	case slices.Min(w.factors) == 0:
		return 0, true
	}
	// Pooled in the log domain: a product of many epochs' factors
	// underflows.
	gm, _ := GeometricMean(w.factors)
	return gm, true
}

// NormalizedReduction returns σ²_i / σ²_0 for every variance of a run,
// the series plotted in Figure 3(b); all zeros when σ²_0 is zero.
func NormalizedReduction(variances []float64) []float64 {
	if len(variances) == 0 {
		return nil
	}
	out := make([]float64, len(variances))
	for i, v := range variances {
		if variances[0] != 0 {
			out[i] = v / variances[0]
		}
	}
	return out
}
