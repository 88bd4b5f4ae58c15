package agent

import (
	"sync"
	"time"

	"antientropy/internal/obs"
)

// scheduler is the active thread of Figure 1 for every node of the
// process: one goroutine and one timer serve a min-heap holding one entry
// per started node, keyed by the earlier of the node's next cycle and —
// while an exchange is still outstanding after initiate returned — that
// exchange's deadline. A due node is popped, run with the scheduler lock
// released, and pushed back one δ after the time it was due, so cycles do
// not drift. The goroutine starts with the first node and exits when the
// heap empties.
//
// One wake serves every entry within its lead of being due, and the lead
// follows how the node's last exchange ended. A node whose exchange
// finished inside Send — the mem network delivered request and reply
// inline, and initiate returned no deadline — is queued with a δ/16 lead:
// at worst such a cycle starts δ/16 early, which Figure 1's one exchange
// per δ does not notice, and an exchange done inside Send leaves no node
// busy for a bunched initiation to meet. A node whose exchange was still
// outstanding (the UDP mux, a mem network with latency, a silent peer)
// keeps a δ/64 cycle lead, because bunched initiations on sockets raise
// busy refusals; a cycle that sent no request leaves the lead as it was.
// An expiry is queued δ/64 late (RequestTimeout/64 if that is less) and so
// never runs early. A cycle served early runs at the time it is served:
// a node enters an epoch only once the wall clock has, so Config.Value is
// never sampled before the epoch begins, and an inline fleet still
// crosses epoch edges with no timeout and no stale drop
// (TestInlineFleetCrossesEpochEdges). At 500 inline nodes this turns 500
// timer wake-ups per δ into ~16 that run ~32 cycles each. The inline
// lead against live-mem's cpu_us_per_op (2 vCPUs, one 20 s run each,
// indicative only):
//
//	δ/64   δ/32   δ/16   δ/8
//	22.8   17.4   15.9   15.3 µs
//
// Past δ/16 the curve is flat while the early start keeps growing.
//
// Everything a node runs here — Config.Value at an epoch restart, the
// peer's handler when the transport delivers inline — delays the nodes
// queued behind it; tickLag records by how much. One heap is enough: a
// 3 000-node slice on one mux at δ = 150 ms starts its cycles with a p99
// lateness ≤ 2.5 ms (BenchmarkSchedulerWorkerSlice), so it is not sharded.
type scheduler struct {
	mu   sync.Mutex
	heap []schedEntry
	// running reports that a run goroutine exists; current is the node it
	// is running with mu released (nil between nodes), idle, on mu, wakes
	// a remove waiting for current to change.
	running bool
	current *Node
	idle    sync.Cond
	// wake tells a sleeping run goroutine that the heap's minimum moved
	// earlier. Capacity 1: one pending token re-evaluates everything.
	wake chan struct{}
	// lag is the distribution of how late cycles started, in seconds.
	lag *obs.Histogram
	// wakes counts the run goroutine's returns from sleep, on mu.
	wakes int64
}

// schedEntry is one heap slot. due is on the scheduler's own clock,
// nanoseconds since schedBase, monotonic; the entry may be served from
// due-lead on.
type schedEntry struct {
	due, lead int64
	node      *Node
}

// nodeSchedule is the scheduler's per-node state, guarded by sched.mu.
type nodeSchedule struct {
	// slot is the node's index in the heap, -1 while it is not queued
	// (never started, removed, or being run).
	slot int
	// nextCycle is when the next δ cycle is due; deadline, when not zero,
	// is when the outstanding exchange expires.
	nextCycle, deadline int64
	// inline reports that the last exchange the node started completed
	// inside Send, which earns its next cycle the longer lead.
	inline bool
	// removed is set by remove: the node is not pushed again.
	removed bool
}

// sched is the process's one scheduler, like book its one address book.
var sched = newScheduler()

// schedBase anchors the scheduler's clock.
var schedBase = time.Now()

func newScheduler() *scheduler {
	// The round-trip buckets fit lateness too: a healthy loop sits in the
	// first (≤ 0.5 ms), and the tens of milliseconds where lateness starts
	// to cost convergence (δ/8) are resolved.
	s := &scheduler{wake: make(chan struct{}, 1), lag: obs.NewHistogram(obs.RTTBuckets)}
	s.idle.L = &s.mu
	return s
}

func schedClock(t time.Time) int64 { return int64(t.Sub(schedBase)) }

// expiryFirst reports whether the node's deadline comes before its next
// cycle.
func (ns *nodeSchedule) expiryFirst() bool {
	return ns.deadline != 0 && ns.deadline <= ns.nextCycle
}

// Leads, as fractions of δ: see the type's comment.
const (
	inlineLead      = 16
	outstandingLead = 64
)

// queue pushes a node at whichever of its next cycle and its deadline
// comes first.
func (s *scheduler) queue(n *Node) {
	delta := n.cfg.Schedule.CycleLen
	if !n.sched.expiryFirst() {
		lead := int64(delta / outstandingLead)
		if n.sched.inline {
			lead = int64(delta / inlineLead)
		}
		s.push(schedEntry{due: n.sched.nextCycle, lead: lead, node: n})
		return
	}
	lead := int64(min(delta/outstandingLead, n.cfg.RequestTimeout/outstandingLead))
	s.push(schedEntry{due: n.sched.deadline + lead, lead: lead, node: n})
}

// add queues a node whose first cycle is due at first. A node already
// removed (Stop or its context won the race) stays out.
func (s *scheduler) add(n *Node, first time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n.sched.removed {
		return
	}
	n.sched.nextCycle = schedClock(first)
	s.queue(n)
	if !s.running {
		s.running = true
		go s.run()
	} else if n.sched.slot == 0 {
		s.kick()
	}
}

// remove takes a node off the heap for good and, if the node is being run
// at this moment, returns only after that run ended: no cycle or expiry
// of the node starts once remove has returned. It must not be called from
// within the node's own cycle.
func (s *scheduler) remove(n *Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n.sched.removed = true
	if n.sched.slot >= 0 {
		s.removeAt(n.sched.slot)
		if len(s.heap) == 0 {
			s.kick() // the run goroutine has nothing left to sleep for
		}
	}
	for s.current == n {
		s.idle.Wait()
	}
}

// size reports the number of nodes the scheduler serves.
func (s *scheduler) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.heap)
	if s.current != nil {
		n++
	}
	return n
}

func (s *scheduler) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// run is the scheduler goroutine.
func (s *scheduler) run() {
	timer := time.NewTimer(time.Hour) // re-armed before every sleep
	defer timer.Stop()
	s.mu.Lock()
	for len(s.heap) > 0 {
		now := time.Now()
		t := schedClock(now)
		top := s.heap[0]
		if wait := top.due - t; wait > top.lead {
			s.mu.Unlock()
			timer.Reset(time.Duration(wait))
			select {
			case <-timer.C:
			case <-s.wake:
				timer.Stop()
			}
			s.mu.Lock()
			s.wakes++
			continue
		}
		s.removeAt(0)
		s.serve(top.node, now, t)
	}
	s.running = false
	s.mu.Unlock()
}

// serve runs one due node — its expiry if that is what came due, its
// cycle otherwise — and queues it again. Called with mu held and the node
// off the heap; mu is released while the node runs.
func (s *scheduler) serve(n *Node, now time.Time, t int64) {
	ns := &n.sched
	expiry := ns.expiryFirst()
	due := ns.nextCycle
	s.current = n
	s.mu.Unlock()

	var deadline int64
	started := false
	if expiry {
		n.expire(now)
	} else {
		s.lag.Observe(max(0, time.Duration(t-due).Seconds()))
		n.advanceEpoch(now)
		var d time.Time
		if d, started = n.initiate(now); !d.IsZero() {
			deadline = schedClock(d)
		}
	}

	s.mu.Lock()
	s.current = nil
	s.idle.Broadcast()
	if ns.removed {
		return
	}
	ns.deadline = deadline
	if !expiry {
		if started {
			// A cycle that sent no request — membership gossip, idling
			// past γ, an empty view — says nothing of the transport.
			ns.inline = deadline == 0
		}
		// One δ after the time the cycle was due, not after the time it
		// ran. A loop that fell behind by whole cycles skips them, as a
		// ticker would, and keeps the phase.
		delta := int64(n.cfg.Schedule.CycleLen)
		ns.nextCycle += delta
		if behind := t - ns.nextCycle; behind >= 0 {
			ns.nextCycle += (behind/delta + 1) * delta
		}
	}
	s.queue(n)
}

// push, removeAt, up and down are container/heap written out for
// schedEntry: the interface version boxes every entry it pushes or pops,
// two allocations per cycle.
func (s *scheduler) push(e schedEntry) {
	s.heap = append(s.heap, e)
	s.up(len(s.heap) - 1)
}

func (s *scheduler) removeAt(i int) {
	last := len(s.heap) - 1
	s.heap[i].node.sched.slot = -1
	if i != last {
		s.heap[i] = s.heap[last]
	}
	s.heap[last] = schedEntry{} // the heap keeps no node alive
	s.heap = s.heap[:last]
	if i != last {
		s.down(i)
		s.up(i)
	}
}

func (s *scheduler) up(i int) {
	e := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].due <= e.due {
			break
		}
		s.heap[i] = s.heap[parent]
		s.heap[i].node.sched.slot = i
		i = parent
	}
	s.heap[i] = e
	e.node.sched.slot = i
}

func (s *scheduler) down(i int) {
	e := s.heap[i]
	for {
		child := 2*i + 1
		if child >= len(s.heap) {
			break
		}
		if r := child + 1; r < len(s.heap) && s.heap[r].due < s.heap[child].due {
			child = r
		}
		if e.due <= s.heap[child].due {
			break
		}
		s.heap[i] = s.heap[child]
		s.heap[i].node.sched.slot = i
		i = child
	}
	s.heap[i] = e
	e.node.sched.slot = i
}
