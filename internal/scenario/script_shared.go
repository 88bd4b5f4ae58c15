package scenario

import (
	"log/slog"
	"sync/atomic"
	"time"

	"antientropy/internal/stats"
)

// This file is the scenario script interpreter. Every executor runs the
// same script value: it owns each decision a scripted intervention needs
// — which cycle an event fires in, how many nodes it touches, which slot a
// join takes, how a partition slices the fleet, when it heals, whether the
// join cap admits one more identity — and calls a fleet to perform it.
// Two fleets exist: the simulation engine (simFleet) and
// the supervisor of a fleet of real agent nodes (supervisor, which serves
// the live and the udp executor alike). Both perform each action the
// moment the script calls, so "cycle 40: crash 10 %" is the same
// intervention on every executor by construction.

// fleet performs what the script decides.
type fleet interface {
	// aliveCount is the current live population.
	aliveCount() int
	// pickAlive draws a uniformly random live slot.
	pickAlive() int
	// crash kills the slot's node without warning.
	crash(slot int)
	// joinAs brings the slot up as a brand-new identity performing the
	// §4.2 join. sybil >= 0 names the adversary entry controlling it (the
	// script has already marked the slot hostile); -1 is an honest joiner.
	joinAs(slot, sybil int)
	// split installs a partition: slots talk only within their component.
	split(groupOf []int)
	// heal removes the partition and, when one was active, re-introduces
	// the components to each other out of band (see bridgeContacts).
	heal(groupOf []int, wasActive bool)
	// setLoss sets the per-message drop probability for the cycle.
	setLoss(p float64)
	// setDelay sets the one-way delivery latency bounds for the cycle and
	// reports whether the fleet can inject latency at all.
	setDelay(min, max time.Duration) bool
}

// script interprets one scenario's event list, cycle by cycle. The rules
// it settles for every executor:
//
//   - crash and churn never take the last node: both stop while
//     aliveCount() > 1 fails, since a fleet of one has nobody to seed a
//     replacement from;
//   - churn reuses the slot it just freed and leaves the crash stack
//     untouched; restart pops the newest crashed slot; join takes vacant
//     slots first, then crashed ones;
//   - honest and sybil joins draw on one epoch-scoped budget
//     (Defense.JoinCap), and every refusal is counted;
//   - a partition fires once, at its At cycle, and heals at Until + 1 or
//     at an explicit heal, whichever comes first;
//   - loss and delay bursts reach every fleet every cycle; a fleet that
//     cannot inject latency (simulation engines, UDP muxes) is named
//     once on the Logger and the burst is otherwise ignored.
//
// The founding fleet is not the script's business, but its rule is stated
// here with the others: founders bootstrap from bootstrapSubset of the
// address list on every real fleet.
type script struct {
	sc    Scenario
	slots int
	// rng is the script RNG: partition components here, and whatever
	// random picks a fleet needs to perform an action (bridges, seeds) —
	// except the simulator's victims, which its engine draws.
	rng    *stats.RNG
	adv    *advSchedule
	logger *slog.Logger

	alloc slotAllocator
	part  partitionState

	// Epoch-scoped join budget; joinsRefused is atomic because telemetry
	// scrapes read it concurrently.
	joinEpoch      int
	joinsThisEpoch int
	joinsRefused   atomic.Int64

	delayWarned bool
}

func newScript(sc Scenario, slots int, rng *stats.RNG, adv *advSchedule, logger *slog.Logger) *script {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &script{
		sc: sc, slots: slots, rng: rng, adv: adv, logger: logger,
		alloc: slotAllocator{nextJoin: sc.N, capacity: slots},
	}
}

// step runs the script for one cycle against the fleet.
func (s *script) step(cycle int, f fleet) {
	if epoch := (cycle - 1) / s.sc.EpochLen; epoch != s.joinEpoch {
		s.joinEpoch, s.joinsThisEpoch = epoch, 0
	}
	if s.part.expired(cycle) {
		s.heal(f)
	}
	f.setLoss(s.sc.effectiveLoss(cycle))
	if min, max := s.sc.effectiveDelay(cycle); !f.setDelay(min, max) && max > 0 && !s.delayWarned {
		s.delayWarned = true
		s.logger.Warn("executor cannot inject latency: delay events ignored", "scenario", s.sc.Name)
	}
	for _, ev := range s.sc.Events {
		if !ev.activeAt(cycle, s.sc.Cycles) {
			continue
		}
		switch ev.Kind {
		case KindCrash:
			count := ev.resolveCount(f.aliveCount())
			for k := 0; k < count && f.aliveCount() > 1; k++ {
				victim := f.pickAlive()
				f.crash(victim)
				s.alloc.pushCrashed(victim)
			}
		case KindChurn:
			count := ev.resolveCount(f.aliveCount())
			for k := 0; k < count && f.aliveCount() > 1; k++ {
				victim := f.pickAlive()
				f.crash(victim)
				f.joinAs(victim, -1) // same slot, brand-new identity
			}
		case KindJoin:
			s.join(f, ev.resolveCount(s.sc.N), -1)
		case KindRestart:
			count := ev.resolveCount(f.aliveCount())
			for k := 0; k < count; k++ {
				slot, ok := s.alloc.popCrashed()
				if !ok {
					break
				}
				f.joinAs(slot, -1)
			}
		case KindPartition:
			// Fire once at At: activeAt also matches the [At, Until]
			// auto-heal window, and re-splitting every cycle would
			// re-randomize the components, leaking state across the
			// partition. Every slot gets a component, not just the live
			// ones, so a node joining mid-partition lands on one side.
			if cycle == ev.At {
				s.part.activate(partitionComponents(s.rng, s.slots, ev.Groups), ev.Until)
				f.split(s.part.groupOf)
			}
		case KindHeal:
			s.heal(f)
		}
	}
	s.sybilJoins(cycle, f)
}

// sybilJoins lands the active sybil-flood adversaries' identities —
// ordinary joins as far as the protocol can tell, throttled by the join
// cap exactly as a flash crowd is.
func (s *script) sybilJoins(cycle int, f fleet) {
	if s.adv == nil {
		return
	}
	for ai, a := range s.sc.Adversaries {
		if a.Behavior == BehaviorSybilFlood && a.activeAt(cycle, s.sc.Cycles) {
			s.join(f, a.Rate, ai)
		}
	}
}

// admitJoin applies the defense's epoch-scoped join cap. The cap cannot
// tell an honest joiner from an attacker — that is the point of the sybil
// attack — so both draw on one budget.
func (s *script) admitJoin() bool {
	if cap := s.sc.Defense.JoinCap; cap > 0 && s.joinsThisEpoch >= cap {
		s.joinsRefused.Add(1)
		return false
	}
	s.joinsThisEpoch++
	return true
}

// join lands up to count fresh identities. sybil >= 0 marks each slot
// hostile before the fleet builds its node, so the value a sybil reports
// is the attacker's from its first epoch on.
func (s *script) join(f fleet, count, sybil int) {
	for k := 0; k < count; k++ {
		if !s.admitJoin() {
			continue
		}
		slot, ok := s.alloc.takeJoinSlot()
		if !ok {
			return
		}
		if sybil >= 0 {
			s.adv.markSybil(slot, sybil)
		}
		f.joinAs(slot, sybil)
	}
}

func (s *script) heal(f fleet) {
	f.heal(s.part.groupOf, s.part.clear())
}

// effectiveLoss resolves the message-loss rate for a cycle: the baseline
// unless a loss burst is active (the latest active event wins).
func (s Scenario) effectiveLoss(cycle int) float64 {
	loss := s.MessageLoss
	for _, ev := range s.Events {
		if ev.Kind != KindLoss {
			continue
		}
		if from, to := ev.window(s.Cycles); cycle >= from && cycle <= to {
			loss = ev.Rate
		}
	}
	return loss
}

// effectiveDelay resolves the one-way latency bounds for a cycle: zero
// unless a delay burst is active (the latest active event wins).
func (s Scenario) effectiveDelay(cycle int) (min, max time.Duration) {
	for _, ev := range s.Events {
		if ev.Kind != KindDelay {
			continue
		}
		if from, to := ev.window(s.Cycles); cycle >= from && cycle <= to {
			min = time.Duration(ev.MinDelayMs) * time.Millisecond
			max = time.Duration(ev.MaxDelayMs) * time.Millisecond
		}
	}
	return min, max
}

// partitionComponents assigns every slot to a partition component by the
// event's relative weights. Assigning all slots — not just the live
// ones — puts nodes that join mid-partition into a component too,
// exactly as a joiner lands on one side of a real split.
func partitionComponents(rng *stats.RNG, slots int, weights []float64) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	perm := make([]int, slots)
	rng.Perm(perm)
	groupOf := make([]int, slots)
	start := 0
	acc := 0.0
	for g, w := range weights {
		acc += w
		end := int(acc / total * float64(slots))
		if g == len(weights)-1 {
			end = slots
		}
		for _, slot := range perm[start:end] {
			groupOf[slot] = g
		}
		start = end
	}
	return groupOf
}

// partitionState tracks the active scripted partition.
type partitionState struct {
	groupOf []int
	on      bool
	until   int
}

// activate installs a component assignment (with the event's auto-heal
// bound, 0 = until an explicit heal).
func (p *partitionState) activate(groupOf []int, until int) {
	p.groupOf, p.on, p.until = groupOf, true, until
}

// expired reports whether the auto-heal window has passed.
func (p *partitionState) expired(cycle int) bool {
	return p.on && p.until > 0 && cycle > p.until
}

// clear ends the partition, reporting whether one was active.
func (p *partitionState) clear() bool {
	on := p.on
	p.on, p.until = false, 0
	return on
}

// slotAllocator hands out node slots for joins — vacant slots first,
// then crashed ones, newest first — and tracks the crash stack restart
// events pop from.
type slotAllocator struct {
	// nextJoin is the first never-used slot; capacity bounds it.
	nextJoin int
	capacity int
	// crashed collects slots available for restart events.
	crashed []int
}

// pushCrashed records a slot as dead and available for restarts.
func (a *slotAllocator) pushCrashed(slot int) { a.crashed = append(a.crashed, slot) }

// popCrashed hands back the most recently crashed slot.
func (a *slotAllocator) popCrashed() (int, bool) {
	if len(a.crashed) == 0 {
		return 0, false
	}
	slot := a.crashed[len(a.crashed)-1]
	a.crashed = a.crashed[:len(a.crashed)-1]
	return slot, true
}

// takeJoinSlot hands out a vacant slot, falling back to crashed ones.
func (a *slotAllocator) takeJoinSlot() (int, bool) {
	if a.nextJoin < a.capacity {
		slot := a.nextJoin
		a.nextJoin++
		return slot, true
	}
	return a.popCrashed()
}

// fleetRoster is the supervisor's picture of a real fleet: which slot is
// alive, and at which transport address.
type fleetRoster struct {
	addr  []string
	alive []bool
}

func newFleetRoster(slots int) *fleetRoster {
	return &fleetRoster{addr: make([]string, slots), alive: make([]bool, slots)}
}

func (r *fleetRoster) aliveCount() int {
	count := 0
	for _, a := range r.alive {
		if a {
			count++
		}
	}
	return count
}

func (r *fleetRoster) liveSlots() []int {
	live := make([]int, 0, len(r.alive))
	for i, a := range r.alive {
		if a {
			live = append(live, i)
		}
	}
	return live
}

func (r *fleetRoster) randomAlive(rng *stats.RNG) int {
	live := r.liveSlots()
	return live[rng.Intn(len(live))]
}

// seedAddrs samples up to n live contact addresses.
func (r *fleetRoster) seedAddrs(rng *stats.RNG, n int) []string {
	live := r.liveSlots()
	if len(live) == 0 {
		return nil
	}
	seeds := make([]string, 0, n)
	for k := 0; k < n; k++ {
		seeds = append(seeds, r.addr[live[rng.Intn(len(live))]])
	}
	return seeds
}

// slotContacts hands one slot fresh out-of-band contact addresses.
type slotContacts struct {
	slot  int
	addrs []string
}

// bridgeContacts picks the post-heal rendezvous refresh: a partition
// longer than the cache lifetime ages every cross-component descriptor
// out of the NEWSCAST views, so gossip alone can never remerge the
// overlay. Real deployments re-learn peers out-of-band (seed lists,
// DNS); model that by handing a few bridge slots per component fresh
// contacts from the other components — epidemic gossip spreads the
// bridges from there.
func bridgeContacts(rng *stats.RNG, r *fleetRoster, groupOf []int) []slotContacts {
	byGroup := make(map[int][]int)
	groups := 0
	for _, slot := range r.liveSlots() {
		g := groupOf[slot]
		byGroup[g] = append(byGroup[g], slot)
		if g+1 > groups {
			groups = g + 1
		}
	}
	const bridgesPerGroup, contactsPerBridge = 4, 3
	var out []slotContacts
	// Iterate components in id order: ranging over the map directly
	// would consume the script RNG in Go's randomized map order, breaking
	// repeat-run determinism of the picks.
	for g := 0; g < groups; g++ {
		members := byGroup[g]
		if len(members) == 0 {
			continue
		}
		var others []int
		for og := 0; og < groups; og++ {
			if og != g {
				others = append(others, byGroup[og]...)
			}
		}
		if len(others) == 0 {
			continue
		}
		for b := 0; b < bridgesPerGroup && b < len(members); b++ {
			bridge := members[rng.Intn(len(members))]
			contacts := make([]string, 0, contactsPerBridge)
			for c := 0; c < contactsPerBridge; c++ {
				contacts = append(contacts, r.addr[others[rng.Intn(len(others))]])
			}
			out = append(out, slotContacts{slot: bridge, addrs: contacts})
		}
	}
	return out
}
