package scenario

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"antientropy/internal/stats"
)

// The interpreter tests run scripts with no clock and no nodes: a fleet
// that only keeps the liveness the script's actions imply and records
// them.

// action is one fleet call the script made.
type action struct {
	cycle int
	op    string // crash, join, split, heal, loss, delay
	slot  int
	sybil int
	arg   string
	// stack is the script's crash stack just before the call.
	stack []int
}

func (a action) String() string {
	return fmt.Sprintf("c%d %s slot=%d sybil=%d %s", a.cycle, a.op, a.slot, a.sybil, a.arg)
}

// recFleet records the script's actions. Victims come from its own pick
// stream, so a (scenario, pick seed) pair fixes the whole trace. inner,
// when set, is a real backend every call is forwarded to; healDraws
// counts the heals during which it drew on the script RNG — the bridge
// picks of a heal.
type recFleet struct {
	s         *script
	inner     fleet
	alive     []bool
	picks     *stats.RNG
	cycle     int
	trace     []action
	healDraws int
}

func newRecFleet(s *script, pickSeed uint64) *recFleet {
	f := &recFleet{s: s, alive: make([]bool, s.slots), picks: stats.NewRNG(pickSeed)}
	for slot := 0; slot < s.sc.N; slot++ {
		f.alive[slot] = true
	}
	return f
}

func (f *recFleet) rec(op string, slot, sybil int, arg string) {
	f.trace = append(f.trace, action{f.cycle, op, slot, sybil, arg, slices.Clone(f.s.alloc.crashed)})
}

func (f *recFleet) liveSlots() []int {
	var live []int
	for slot, a := range f.alive {
		if a {
			live = append(live, slot)
		}
	}
	return live
}

func (f *recFleet) aliveCount() int {
	if f.inner != nil {
		return f.inner.aliveCount()
	}
	return len(f.liveSlots())
}

func (f *recFleet) pickAlive() int {
	live := f.liveSlots()
	return live[f.picks.Intn(len(live))]
}

func (f *recFleet) crash(slot int) {
	f.rec("crash", slot, -1, "")
	f.alive[slot] = false
	if f.inner != nil {
		f.inner.crash(slot)
	}
}

func (f *recFleet) joinAs(slot, sybil int) {
	f.rec("join", slot, sybil, "")
	f.alive[slot] = true
	if f.inner != nil {
		f.inner.joinAs(slot, sybil)
	}
}

// split records the component sizes — fixed by the event's weights —
// not the random assignment, which depends on what else has drawn on the
// script RNG (the supervisor's seed and bridge picks do).
func (f *recFleet) split(groupOf []int) {
	var sizes []int
	for _, g := range groupOf {
		for len(sizes) <= g {
			sizes = append(sizes, 0)
		}
		sizes[g]++
	}
	f.rec("split", -1, -1, fmt.Sprint(sizes))
	if f.inner != nil {
		f.inner.split(groupOf)
	}
}

func (f *recFleet) heal(groupOf []int, wasActive bool) {
	f.rec("heal", -1, -1, fmt.Sprint(wasActive))
	if f.inner != nil {
		rng := *f.s.rng
		f.inner.heal(groupOf, wasActive)
		if *f.s.rng != rng {
			f.healDraws++
		}
	}
}

func (f *recFleet) setLoss(p float64) {
	f.rec("loss", -1, -1, fmt.Sprint(p))
	if f.inner != nil {
		f.inner.setLoss(p)
	}
}

func (f *recFleet) setDelay(min, max time.Duration) bool {
	f.rec("delay", -1, -1, fmt.Sprint(min, max))
	return f.inner != nil && f.inner.setDelay(min, max)
}

// play runs the whole script against a recording fleet and also returns
// the crash stack as it stood at the start of every cycle.
func play(sc Scenario, pickSeed uint64) (*script, *recFleet, [][]int) {
	slots := sc.MaxSlots()
	s := newScript(sc, slots, stats.NewRNG(sc.Seed), newAdvSchedule(sc, slots), nil)
	f := newRecFleet(s, pickSeed)
	stacks := make([][]int, sc.Cycles+1)
	for cycle := 1; cycle <= sc.Cycles; cycle++ {
		f.cycle = cycle
		stacks[cycle] = slices.Clone(s.alloc.crashed)
		s.step(cycle, f)
	}
	return s, f, stacks
}

func traceStrings(trace []action) []string {
	out := make([]string, len(trace))
	for i, a := range trace {
		out[i] = a.String()
	}
	return out
}

// everyKind is a synthetic script that hits every event kind once, each
// in cycles of its own, plus a sybil flood under a join cap.
func everyKind() Scenario {
	return Scenario{
		Name: "every-kind", N: 40, Cycles: 40, EpochLen: 10, Seed: 21,
		Defense: Defense{JoinCap: 6},
		Adversaries: []Adversary{
			{Behavior: BehaviorSybilFlood, At: 31, Until: 33, Rate: 3, Value: 1e3},
		},
		Events: []Event{
			{Kind: KindCrash, At: 2, Count: 5},
			{Kind: KindChurn, At: 3, Until: 5, Count: 2},
			{Kind: KindJoin, At: 6, Count: 10},
			{Kind: KindRestart, At: 7, Count: 2},
			{Kind: KindPartition, At: 11, Until: 14, Groups: []float64{1, 2}},
			{Kind: KindPartition, At: 16, Groups: []float64{1, 1}},
			{Kind: KindHeal, At: 18},
			{Kind: KindHeal, At: 19},
			{Kind: KindLoss, At: 21, Until: 22, Rate: 0.25},
			{Kind: KindDelay, At: 23, Until: 24, MinDelayMs: 1, MaxDelayMs: 3},
		},
	}.WithDefaults()
}

// testScripts is every canned scenario, shrunk, plus everyKind.
func testScripts(t *testing.T) []Scenario {
	scripts := []Scenario{everyKind()}
	for _, sc := range Canned() {
		sc.N = 60
		scripts = append(scripts, sc.WithDefaults())
	}
	for _, sc := range scripts {
		if err := sc.Validate(); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
	}
	return scripts
}

// structuralKinds returns the kinds among crash, churn, join and restart
// with an event firing at the cycle, plus whether a sybil flood is on.
func structuralKinds(sc Scenario, cycle int) (kinds []Kind, sybil bool) {
	for _, ev := range sc.Events {
		switch ev.Kind {
		case KindCrash, KindChurn, KindJoin, KindRestart:
			if ev.activeAt(cycle, sc.Cycles) && !slices.Contains(kinds, ev.Kind) {
				kinds = append(kinds, ev.Kind)
			}
		}
	}
	for _, a := range sc.Adversaries {
		if a.Behavior == BehaviorSybilFlood && a.activeAt(cycle, sc.Cycles) {
			sybil = true
		}
	}
	return kinds, sybil
}

// TestScriptInterpreterRules checks, on every script, the rules the
// script doc comment states — through what a fleet sees, not through the
// interpreter's own counters.
func TestScriptInterpreterRules(t *testing.T) {
	for _, sc := range testScripts(t) {
		t.Run(sc.Name, func(t *testing.T) {
			s, f, stacks := play(sc, 7)
			_, again, _ := play(sc, 7)
			if a, b := traceStrings(f.trace), traceStrings(again.trace); !slices.Equal(a, b) {
				t.Fatalf("same seed, different action traces:\n%q\n%q", a, b)
			}

			byCycle := make(map[int][]action)
			for _, a := range f.trace {
				switch a.op {
				case "crash", "join":
					byCycle[a.cycle] = append(byCycle[a.cycle], a)
				}
			}

			// Every cycle sets loss and delay exactly once, to the
			// scenario's effective values.
			for cycle := 1; cycle <= sc.Cycles; cycle++ {
				var loss, delay []string
				for _, a := range f.trace {
					if a.cycle == cycle && a.op == "loss" {
						loss = append(loss, a.arg)
					}
					if a.cycle == cycle && a.op == "delay" {
						delay = append(delay, a.arg)
					}
				}
				min, max := sc.effectiveDelay(cycle)
				if !slices.Equal(loss, []string{fmt.Sprint(sc.effectiveLoss(cycle))}) ||
					!slices.Equal(delay, []string{fmt.Sprint(min, max)}) {
					t.Fatalf("cycle %d: loss calls %v, delay calls %v", cycle, loss, delay)
				}
			}

			// Joins under the cap are the ones that land on never-used
			// slots (MaxSlots reserves one per requested join): per epoch
			// at most JoinCap, and every join asked for and not landed is
			// a counted refusal. A sybil join is marked as one.
			used := make([]bool, s.slots)
			for slot := 0; slot < sc.N; slot++ {
				used[slot] = true
			}
			freshPerEpoch := make(map[int]int)
			fresh, requested, sybils := 0, 0, 0
			for cycle := 1; cycle <= sc.Cycles; cycle++ {
				for _, ev := range sc.Events {
					if ev.Kind == KindJoin && ev.activeAt(cycle, sc.Cycles) {
						requested += ev.resolveCount(sc.N)
					}
				}
				for _, a := range sc.Adversaries {
					if a.Behavior == BehaviorSybilFlood && a.activeAt(cycle, sc.Cycles) {
						requested += a.Rate
					}
				}
				for _, a := range byCycle[cycle] {
					if a.op == "join" && !used[a.slot] {
						used[a.slot] = true
						fresh++
						freshPerEpoch[(cycle-1)/sc.EpochLen]++
						if a.sybil >= 0 {
							sybils++
						}
					}
				}
			}
			if cap := sc.Defense.JoinCap; cap > 0 {
				for epoch, n := range freshPerEpoch {
					if n > cap {
						t.Errorf("epoch %d admitted %d joins, cap %d", epoch, n, cap)
					}
				}
			}
			if refused := s.joinsRefused.Load(); int64(requested-fresh) != refused {
				t.Errorf("%d joins requested, %d landed, %d refusals counted", requested, fresh, refused)
			}
			if s.adv != nil && sybils != int(s.adv.sybilN.Load()) {
				t.Errorf("%d sybil joins landed, schedule marked %d", sybils, s.adv.sybilN.Load())
			}

			// Cycles in which exactly one structural kind fires show that
			// kind's signature.
			for cycle := 1; cycle <= sc.Cycles; cycle++ {
				kinds, sybil := structuralKinds(sc, cycle)
				acts := byCycle[cycle]
				if len(kinds) != 1 || sybil {
					continue
				}
				switch kinds[0] {
				case KindCrash:
					for i, a := range acts {
						if a.op != "crash" || len(a.stack) != len(acts[0].stack)+i {
							t.Fatalf("cycle %d: crash event produced %v", cycle, acts)
						}
					}
				case KindChurn:
					// crash v, join v, crash w, join w, …: the slot is
					// reused at once and the crash stack never moves.
					if len(acts)%2 != 0 {
						t.Fatalf("cycle %d: churn produced %v", cycle, acts)
					}
					for i := 0; i < len(acts); i += 2 {
						c, j := acts[i], acts[i+1]
						if c.op != "crash" || j.op != "join" || c.slot != j.slot ||
							!slices.Equal(c.stack, acts[0].stack) || !slices.Equal(j.stack, acts[0].stack) {
							t.Fatalf("cycle %d: churn produced %v", cycle, acts)
						}
					}
				case KindRestart:
					// Newest crashed slot first.
					before := stacks[cycle]
					for i, a := range acts {
						if a.op != "join" || i >= len(before) || a.slot != before[len(before)-1-i] {
							t.Fatalf("cycle %d: restart produced %v from the crash stack %v", cycle, acts, before)
						}
					}
				case KindJoin:
					for _, a := range acts {
						if a.op != "join" {
							t.Fatalf("cycle %d: join event produced %v", cycle, acts)
						}
					}
				}
			}

			// A partition splits once, at At, and heals — actively — at
			// Until + 1 or at the next explicit heal; a heal with no
			// partition active is passed on as inactive.
			var splits, heals []action
			for _, a := range f.trace {
				switch a.op {
				case "split":
					splits = append(splits, a)
				case "heal":
					heals = append(heals, a)
				}
			}
			var wantSplits, wantHeals []string
			on, until := false, 0
			for cycle := 1; cycle <= sc.Cycles; cycle++ {
				if on && until > 0 && cycle > until {
					wantHeals = append(wantHeals, fmt.Sprint(cycle, true))
					on = false
				}
				for _, ev := range sc.Events {
					switch {
					case ev.Kind == KindPartition && cycle == ev.At:
						wantSplits = append(wantSplits, fmt.Sprint(cycle))
						on, until = true, ev.Until
					case ev.Kind == KindHeal && ev.activeAt(cycle, sc.Cycles):
						wantHeals = append(wantHeals, fmt.Sprint(cycle, on))
						on = false
					}
				}
			}
			var gotSplits, gotHeals []string
			for _, a := range splits {
				gotSplits = append(gotSplits, fmt.Sprint(a.cycle))
			}
			for _, a := range heals {
				gotHeals = append(gotHeals, fmt.Sprint(a.cycle)+" "+a.arg)
			}
			if !slices.Equal(gotSplits, wantSplits) || !slices.Equal(gotHeals, wantHeals) {
				t.Errorf("splits at %v (want %v), heals at %v (want %v)", gotSplits, wantSplits, gotHeals, wantHeals)
			}
		})
	}
}

// TestScriptEveryKindExact pins the synthetic script's numbers, so the
// generic rules above cannot all pass on an interpreter that does nothing.
func TestScriptEveryKindExact(t *testing.T) {
	sc := everyKind()
	s, f, _ := play(sc, 7)
	count := func(op string, from, to int) (n int) {
		for _, a := range f.trace {
			if a.op == op && a.cycle >= from && a.cycle <= to {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		what     string
		op       string
		from, to int
		want     int
	}{
		{"crash wave", "crash", 2, 2, 5},
		{"churn kills", "crash", 3, 5, 6},
		{"churn replacements", "join", 3, 5, 6},
		{"join wave under a cap of 6", "join", 6, 6, 6},
		{"restarts", "join", 7, 7, 2},
		{"sybil joins under the cap", "join", 31, 33, 6},
		{"splits", "split", 1, 40, 2},
		{"heals", "heal", 1, 40, 3},
	} {
		if got := count(tc.op, tc.from, tc.to); got != tc.want {
			t.Errorf("%s: %d %s actions in cycles %d-%d, want %d", tc.what, got, tc.op, tc.from, tc.to, tc.want)
		}
	}
	// 10 joins asked with 6 admitted, then 9 sybil joins with 6 admitted.
	if got := s.joinsRefused.Load(); got != 7 {
		t.Errorf("refusals = %d, want 7", got)
	}
	// Five crashed, two restarted: three slots remain for later restarts.
	if got := len(s.alloc.crashed); got != 3 {
		t.Errorf("crash stack holds %d slots at the end, want 3", got)
	}
	if got := len(f.liveSlots()); got != 40-5+6+2+6 {
		t.Errorf("final live population %d, want %d", got, 40-5+6+2+6)
	}
	// A fleet that cannot delay is named once, however long the burst.
	if !s.delayWarned {
		t.Error("delay burst on a fleet that cannot inject latency went unreported")
	}
}

// fakeCore is a simEngine that records what the script's sim backend
// does to it: liveness, the exchange veto, the loss rate and overlay
// reseeds. recFleet draws the victims, so RandomAlive only has to name a
// live slot.
type fakeCore struct {
	alive   []bool
	filter  func(i, j int) bool
	loss    float64
	reseeds int
}

func (c *fakeCore) AliveCount() (n int) {
	for _, a := range c.alive {
		if a {
			n++
		}
	}
	return n
}
func (c *fakeCore) Alive(node int) bool                     { return c.alive[node] }
func (c *fakeCore) RandomAlive() int                        { return slices.Index(c.alive, true) }
func (c *fakeCore) Kill(node int)                           { c.alive[node] = false }
func (c *fakeCore) Replace(node int)                        { c.alive[node] = true }
func (c *fakeCore) SetExchangeFilter(f func(i, j int) bool) { c.filter = f }
func (c *fakeCore) SetMessageLoss(p float64)                { c.loss = p }
func (c *fakeCore) ReseedOverlay(int)                       { c.reseeds++ }

// TestScriptBackendsAgree drives the two real backends — the simulator's
// and the supervisor's, on a real in-memory fleet — with
// the same script and the same live-slot picks: the script must ask both
// for the same actions, and after every cycle both must hold the same
// fleet: who is alive (and, on the supervisor, a node on exactly those
// slots), whether and how it is split, what the loss rate is. A heal with
// no partition active performs no bridge picks on either.
func TestScriptBackendsAgree(t *testing.T) {
	for _, sc := range testScripts(t) {
		t.Run(sc.Name, func(t *testing.T) {
			slots := sc.MaxSlots()

			core := &fakeCore{alive: make([]bool, slots)}
			simScript := newScript(sc, slots, stats.NewRNG(sc.Seed), newAdvSchedule(sc, slots), nil)
			onSim := newRecFleet(simScript, 7)
			onSim.inner = simFleet{e: core, rng: simScript.rng}

			sup := newSupervisor(context.Background(), sc, FleetOptions{CycleLen: 25 * time.Millisecond}, "test", newMemNet)
			defer sup.stop()
			if err := sup.init(); err != nil {
				t.Fatal(err)
			}
			if err := sup.start(); err != nil {
				t.Fatal(err)
			}
			onSup := newRecFleet(sup.script, 7)
			onSup.inner = sup
			for slot := 0; slot < sc.N; slot++ {
				core.alive[slot] = true
			}

			for cycle := 1; cycle <= sc.Cycles; cycle++ {
				onSim.cycle, onSup.cycle = cycle, cycle
				simRNG, supRNG := *simScript.rng, *sup.script.rng
				reseeds, bridged := core.reseeds, onSup.healDraws

				simScript.step(cycle, onSim)
				sup.cycleNow.Store(int64(cycle))
				sup.script.step(cycle, onSup)
				if sup.err != nil {
					t.Fatal(sup.err)
				}

				if a, b := traceStrings(onSim.trace), traceStrings(onSup.trace); !slices.Equal(a, b) {
					t.Fatalf("cycle %d: the script asked the two backends for different actions:\n sim: %q\n sup: %q",
						cycle, a[max(0, len(a)-8):], b[max(0, len(b)-8):])
				}
				if !slices.Equal(core.alive, sup.roster.alive) || !slices.Equal(core.alive, onSim.alive) {
					t.Fatalf("cycle %d: backends disagree on who is alive", cycle)
				}
				for slot, n := range sup.nodes {
					if (n.node != nil) != sup.roster.alive[slot] {
						t.Fatalf("cycle %d: slot %d has node %v, roster alive %t", cycle, slot, n.node, sup.roster.alive[slot])
					}
				}
				if core.loss != sup.filter.Loss() {
					t.Fatalf("cycle %d: loss %g on sim, %g on the supervisor", cycle, core.loss, sup.filter.Loss())
				}
				if (core.filter != nil) != sup.script.part.on || simScript.part.on != sup.script.part.on {
					t.Fatalf("cycle %d: backends disagree on whether the fleet is split", cycle)
				}
				// The supervisor's filter drops exactly the pairs of live
				// slots its script puts in different components, joiners
				// of this cycle included.
				live := sup.roster.liveSlots()
				part := sup.script.part
				for x, i := range live {
					for _, j := range live[x+1:] {
						split := part.on && part.groupOf[i] != part.groupOf[j]
						if drop := sup.filter.DropInbound(sup.roster.addr[i], sup.roster.addr[j]); drop != split {
							t.Fatalf("cycle %d: slots %d,%d: split %t, supervisor drops %t", cycle, i, j, split, drop)
						}
					}
				}
				for _, a := range onSim.trace {
					if a.cycle != cycle || a.op != "heal" {
						continue
					}
					if a.arg == "true" && (core.reseeds == reseeds || onSup.healDraws == bridged) {
						t.Fatalf("cycle %d: active heal without bridges (sim reseeds %d, supervisor bridge picks %d)",
							cycle, core.reseeds-reseeds, onSup.healDraws-bridged)
					}
					if a.arg == "false" && (core.reseeds != reseeds || onSup.healDraws != bridged) {
						t.Fatalf("cycle %d: inactive heal picked bridges", cycle)
					}
				}
				// With no joiner to seed and no partition to draw or bridge,
				// neither backend touches the script RNG — an inactive heal
				// included.
				idle := !sup.script.part.on && core.reseeds == reseeds
				for _, a := range onSim.trace {
					idle = idle && (a.cycle != cycle || (a.op != "join" && a.op != "split"))
				}
				if idle && (*simScript.rng != simRNG || *sup.script.rng != supRNG) {
					t.Fatalf("cycle %d: script RNG advanced with nothing random to decide", cycle)
				}
			}
		})
	}
}

// TestScriptSplitMatchesVeto: the supervisor's filter and the simulator's
// exchange veto describe the same split, and a dead slot's address stays
// out of the filter's components.
func TestScriptSplitMatchesVeto(t *testing.T) {
	groupOf := []int{0, 1, 1, 0, 1, 0}
	core := &fakeCore{alive: []bool{true, true, true, true, false, true}}
	simFleet{e: core}.split(groupOf)

	sc := Scenario{Name: "split", N: 6, Cycles: 1}.WithDefaults()
	sup := newSupervisor(context.Background(), sc, FleetOptions{}, "test", newMemNet)
	for slot, a := range core.alive {
		sup.roster.alive[slot] = a
		sup.roster.addr[slot] = fmt.Sprint("a", slot)
	}
	sup.split(groupOf)
	for i := range groupOf {
		for j := range groupOf {
			ai, aj := fmt.Sprint("a", i), fmt.Sprint("a", j)
			if !core.alive[i] || !core.alive[j] {
				if sup.filter.DropOutbound(ai, aj) {
					t.Fatalf("slots %d,%d: the dead slot's address is in a component", i, j)
				}
				continue
			}
			if sup.filter.DropOutbound(ai, aj) == core.filter(i, j) {
				t.Fatalf("slots %d,%d: supervisor drops %t, veto allows %t", i, j, sup.filter.DropOutbound(ai, aj), core.filter(i, j))
			}
		}
	}
}
