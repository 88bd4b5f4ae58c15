package obs

import "time"

// TimelineEntry is one per-cycle snapshot of a running fleet: the
// record all three scenario executors (and aggnode's status loop) build
// every cycle, evaluate the health rules on and keep in the flight
// recorder, so a post-mortem can replay the last N cycles — who was
// alive, how far the estimate was from truth, whether convergence was on
// the theoretical ρ trajectory, and which health alerts were active.
type TimelineEntry struct {
	// At is when the snapshot was taken.
	At time.Time `json:"at"`
	// Cycle and Epoch locate the snapshot on the protocol schedule.
	Cycle int    `json:"cycle"`
	Epoch uint64 `json:"epoch"`
	// Alive and Participating count the fleet.
	Alive         int `json:"alive"`
	Participating int `json:"participating"`
	// TrueMean and MeanEstimate compare ground truth with the fleet's
	// mean estimate; EstimateStdDev is the spread across nodes and
	// RelError the relative estimation error.
	TrueMean       float64 `json:"true_mean"`
	MeanEstimate   float64 `json:"mean_estimate"`
	EstimateStdDev float64 `json:"estimate_stddev"`
	RelError       float64 `json:"rel_error"`
	// RhoHat is the observed per-cycle variance-reduction factor
	// (zero on cycles where it is not computable: epoch boundaries,
	// zero variance).
	RhoHat float64 `json:"rho_hat,omitempty"`
	// Initiated, Completed, Timeouts and Declined are the cumulative
	// protocol counters (fleet-wide totals) the health rules difference
	// between cycles; Drops is the cumulative transport drop count
	// (queue + filter).
	Initiated int64 `json:"initiated,omitempty"`
	Completed int64 `json:"completed,omitempty"`
	Timeouts  int64 `json:"timeouts,omitempty"`
	Declined  int64 `json:"declined,omitempty"`
	Drops     int64 `json:"drops,omitempty"`
	// Alerts names the health rules active at this cycle.
	Alerts []string `json:"alerts,omitempty"`
}

// Timeline is the flight recorder: the bounded ring of per-cycle
// snapshots that /debug/timeline dumps.
type Timeline = Ring[TimelineEntry]

// NewTimeline builds a timeline retaining the newest capacity entries
// (minimum 1).
func NewTimeline(capacity int) *Timeline { return newRing[TimelineEntry](capacity) }

// timelineDump is the JSON document of a timeline.
type timelineDump struct {
	Total    uint64          `json:"total"`
	Retained int             `json:"retained"`
	Entries  []TimelineEntry `json:"entries"`
}
