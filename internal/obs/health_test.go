package obs

import (
	"strings"
	"testing"
)

// export renders the registry for substring assertions.
func export(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestHealthSeriesExistBeforeFiring(t *testing.T) {
	reg := NewRegistry()
	NewHealth(reg, nil)
	out := export(t, reg)
	for _, rule := range healthRuleNames {
		if !strings.Contains(out, `agg_alerts_total{rule="`+rule+`"} 0`) {
			t.Errorf("agg_alerts_total{rule=%q} not exported at 0:\n%s", rule, out)
		}
		if !strings.Contains(out, `agg_alert_active{rule="`+rule+`"} 0`) {
			t.Errorf("agg_alert_active{rule=%q} not exported at 0:\n%s", rule, out)
		}
	}
}

func TestHealthStallFiresAfterStreakAndClears(t *testing.T) {
	reg := NewRegistry()
	h := NewHealth(reg, nil)
	stalled := TimelineEntry{
		MeanEstimate: 10, EstimateStdDev: 2, RhoHat: 0.95,
	}
	for i := 1; i < stallCycles; i++ {
		stalled.Cycle = i
		if active := h.Eval(stalled); len(active) != 0 {
			t.Fatalf("cycle %d: fired before the streak: %v", i, active)
		}
	}
	stalled.Cycle = stallCycles
	active := h.Eval(stalled)
	if len(active) != 1 || active[0] != RuleConvergenceStall {
		t.Fatalf("cycle %d active = %v, want [convergence_stall]", stallCycles, active)
	}
	out := export(t, reg)
	if !strings.Contains(out, `agg_alerts_total{rule="convergence_stall"} 1`) {
		t.Errorf("firing not counted:\n%s", out)
	}
	if !strings.Contains(out, `agg_alert_active{rule="convergence_stall"} 1`) {
		t.Errorf("active gauge not set:\n%s", out)
	}
	// One clean cycle clears it; the firing counter keeps its history.
	recovered := stalled
	recovered.Cycle, recovered.RhoHat = stallCycles+1, 0.2
	if active := h.Eval(recovered); len(active) != 0 {
		t.Fatalf("still active after clean cycle: %v", active)
	}
	out = export(t, reg)
	if !strings.Contains(out, `agg_alerts_total{rule="convergence_stall"} 1`) {
		t.Errorf("counter lost its history:\n%s", out)
	}
	if !strings.Contains(out, `agg_alert_active{rule="convergence_stall"} 0`) {
		t.Errorf("active gauge not cleared:\n%s", out)
	}
}

func TestHealthStallQuietOnceConverged(t *testing.T) {
	h := NewHealth(nil, nil)
	// ρ̂ above threshold but the spread is numerical noise — a converged
	// fleet must not page.
	s := TimelineEntry{MeanEstimate: 10, EstimateStdDev: 1e-9, RhoHat: 2}
	for s.Cycle = 1; s.Cycle <= stallCycles; s.Cycle++ {
		if active := h.Eval(s); len(active) != 0 {
			t.Fatalf("cycle %d: stall fired on a converged fleet: %v", s.Cycle, active)
		}
	}
}

func TestHealthLossSpikeAndPartitionSuspect(t *testing.T) {
	h := NewHealth(nil, nil)
	// Cycle 1 just primes the deltas.
	s := TimelineEntry{Cycle: 1, Initiated: 10, Timeouts: 0, Declined: 0}
	if active := h.Eval(s); len(active) != 0 {
		t.Fatalf("fired without a previous sample: %v", active)
	}
	// Cycles of 8/10 attempts timing out with no NACKs: both the
	// loss-spike and the partition-shaped skew rule must fire once their
	// streaks are complete.
	last := 1 + max(lossCycles, partitionCycles)
	for i := 2; i <= last; i++ {
		s.Cycle = i
		s.Initiated += 10
		s.Timeouts += 8
		active := h.Eval(s)
		if i < 1+min(lossCycles, partitionCycles) && len(active) != 0 {
			t.Fatalf("cycle %d: fired before the streak: %v", i, active)
		}
		if i == last {
			want := []string{RuleExchangeLossSpike, RulePartitionSuspect}
			if len(active) != 2 || active[0] != want[0] || active[1] != want[1] {
				t.Fatalf("cycle %d active = %v, want %v", i, active, want)
			}
		}
	}
	// NACK-dominated failures keep firing the loss spike but not the
	// partition rule: busy peers answered, they are not unreachable.
	s.Cycle, s.Initiated, s.Declined = last+1, s.Initiated+20, s.Declined+16
	active := h.Eval(s)
	for _, name := range active {
		if name == RulePartitionSuspect {
			t.Errorf("partition_suspect active on NACK-dominated losses: %v", active)
		}
	}
}

func TestHealthMassDrift(t *testing.T) {
	h := NewHealth(nil, nil)
	s := TimelineEntry{TrueMean: 10, MeanEstimate: 14, RelError: 0.4}
	for s.Cycle = 1; s.Cycle < driftCycles; s.Cycle++ {
		if active := h.Eval(s); len(active) != 0 {
			t.Fatalf("cycle %d: drift fired before the streak: %v", s.Cycle, active)
		}
	}
	if active := h.Eval(s); len(active) != 1 || active[0] != RuleMassDrift {
		t.Fatalf("cycle %d active = %v, want [mass_drift]", s.Cycle, active)
	}
	s.Cycle, s.RelError = s.Cycle+1, 0.01
	if active := h.Eval(s); len(active) != 0 {
		t.Fatalf("drift stuck after recovery: %v", active)
	}
}

func TestHealthLossSpikeIgnoresThinSamples(t *testing.T) {
	h := NewHealth(nil, nil)
	h.Eval(TimelineEntry{Cycle: 1})
	// 3 attempts a cycle, all failed: ratio 1.0 but far below the attempt
	// floor — too thin to mean anything, however long it lasts.
	s := TimelineEntry{Cycle: 1}
	for range lossCycles {
		s.Cycle++
		s.Initiated += 3
		s.Timeouts += 3
		if active := h.Eval(s); len(active) != 0 {
			t.Fatalf("cycle %d: loss spike fired on 3 attempts: %v", s.Cycle, active)
		}
	}
}
