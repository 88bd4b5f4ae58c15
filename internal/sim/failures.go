package sim

import "fmt"

// FailureModel injects failures at the beginning of each cycle (§6.1:
// crashing nodes at cycle start, when the variance among local values is
// maximal, is the worst case). Apply runs serially, after BeforeCycle.
type FailureModel interface {
	// Apply injects this cycle's failures into the engine.
	Apply(cycle int, e *Engine)
	// String describes the model for logs and experiment records.
	String() string
}

// CrashFraction implements the §6.1 failure model: before every cycle a
// fixed proportion P_f of the currently live nodes crashes, without
// replacement.
type CrashFraction struct {
	// P is P_f, the per-cycle crash proportion in [0, 1).
	P float64
}

var _ FailureModel = CrashFraction{}

// Apply kills ⌊P·alive⌋ random live nodes.
func (c CrashFraction) Apply(_ int, e *Engine) {
	count := int(c.P * float64(e.AliveCount()))
	killRandom(e, count)
}

// String describes the model.
func (c CrashFraction) String() string { return fmt.Sprintf("crash-fraction(Pf=%g)", c.P) }

// SuddenDeath implements the Figure 6(a) scenario: at one specific cycle
// a large fraction of the network crashes simultaneously.
type SuddenDeath struct {
	// AtCycle is the cycle at the start of which the crash happens.
	AtCycle int
	// Fraction of live nodes that crash.
	Fraction float64
}

var _ FailureModel = SuddenDeath{}

// Apply kills the configured fraction once, at the configured cycle.
func (s SuddenDeath) Apply(cycle int, e *Engine) {
	if cycle != s.AtCycle {
		return
	}
	killRandom(e, int(s.Fraction*float64(e.AliveCount())))
}

// String describes the model.
func (s SuddenDeath) String() string {
	return fmt.Sprintf("sudden-death(cycle=%d, frac=%g)", s.AtCycle, s.Fraction)
}

// Churn implements the Figure 6(b)/8(a) scenario: every cycle a fixed
// number of nodes crashes and the same number of new nodes joins, keeping
// the network size constant while its composition changes. Joiners do not
// participate in the running epoch (§4.2) and refuse its exchanges
// (§7.1).
type Churn struct {
	// PerCycle is the number of nodes substituted each cycle.
	PerCycle int
}

var _ FailureModel = Churn{}

// Apply substitutes PerCycle random live nodes with fresh ones.
func (c Churn) Apply(_ int, e *Engine) {
	count := c.PerCycle
	if count > e.AliveCount() {
		count = e.AliveCount()
	}
	for k := 0; k < count; k++ {
		victim := e.RandomAlive()
		e.Kill(victim)
		e.Replace(victim) // same slot, brand-new identity
	}
}

// String describes the model.
func (c Churn) String() string { return fmt.Sprintf("churn(%d/cycle)", c.PerCycle) }

// CrashCount kills a fixed number of live nodes per cycle without
// replacement (used by ablations; the paper's figures use CrashFraction,
// SuddenDeath and Churn).
type CrashCount struct {
	// PerCycle is the number of nodes crashed each cycle.
	PerCycle int
}

var _ FailureModel = CrashCount{}

// Apply kills PerCycle random live nodes.
func (c CrashCount) Apply(_ int, e *Engine) {
	killRandom(e, c.PerCycle)
}

// String describes the model.
func (c CrashCount) String() string { return fmt.Sprintf("crash-count(%d/cycle)", c.PerCycle) }

// killRandom removes count uniformly random live nodes, never killing the
// last one (a zero-node network has no defined aggregate).
func killRandom(e *Engine, count int) {
	for k := 0; k < count && e.AliveCount() > 1; k++ {
		e.Kill(e.RandomAlive())
	}
}
