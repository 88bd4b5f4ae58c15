package transport

import (
	"math/rand"
	"sync"
	"time"
)

// UDPFilter is the drop policy of both transports: a process-local packet
// filter that decides, by group partition, custom predicate and loss
// probability, which datagrams a network loses. On a UDPMux it is the
// userspace stand-in for the iptables drop rules a root supervisor would
// install; a MemNetwork applies the same filter to every send, so one
// scripted partition or loss burst reaches either wire through the same
// rules. Install it with UDPMux.SetFilter or MemNetwork.SetFilter; every
// endpoint counts what it lost to it (FilterDrops).
//
// Deterministic rules (partition groups, the predicate) are evaluated on
// both the outbound and the inbound path of a mux, so a partition holds
// even while a rule update is still propagating to the other end. The
// in-memory network has one hop and checks the outbound path only. The
// probabilistic loss rule fires on the outbound path only — applying it
// on both sides would square the delivery probability.
//
// A UDPFilter is safe for concurrent use; the zero value is unusable, use
// NewUDPFilter.
type UDPFilter struct {
	mu     sync.Mutex
	rng    *rand.Rand
	loss   float64
	groups map[string]int
	pred   func(local, peer string) bool
}

// NewUDPFilter creates an empty (all-pass) filter. seed drives the loss
// randomness; 0 picks a time seed.
func NewUDPFilter(seed int64) *UDPFilter {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &UDPFilter{rng: rand.New(rand.NewSource(seed))}
}

// SetLoss changes the outbound datagram loss probability (clamped to
// [0, 1]).
func (f *UDPFilter) SetLoss(p float64) {
	switch {
	case p < 0:
		p = 0
	case p > 1:
		p = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loss = p
}

// Loss returns the outbound datagram loss probability.
func (f *UDPFilter) Loss() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.loss
}

// PartitionGroups splits the network into groups: datagrams between
// addresses assigned to different groups are dropped, exactly as a
// network partition loses them. Addresses missing from the map are
// unrestricted. The assignment replaces any previous group partition; the
// map is copied.
func (f *UDPFilter) PartitionGroups(groups map[string]int) {
	cp := make(map[string]int, len(groups))
	for addr, g := range groups {
		cp[addr] = g
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.groups = cp
}

// AssignGroup places one address into a partition group, creating the
// group partition if none is active (nodes joining mid-partition).
func (f *UDPFilter) AssignGroup(addr string, group int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.groups == nil {
		f.groups = make(map[string]int)
	}
	f.groups[addr] = group
}

// HealGroups removes the group partition: all groups can talk again.
func (f *UDPFilter) HealGroups() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.groups = nil
}

// SetDrop installs a custom drop predicate evaluated on both paths with
// (local address, peer address); nil removes it. It composes with the
// group partition: a datagram is dropped when either rule matches. A
// mux's inbound check passes the receiver as local, so a predicate that
// should act alike on both transports is symmetric in its arguments.
func (f *UDPFilter) SetDrop(pred func(local, peer string) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pred = pred
}

// dropDeterministic evaluates the group and predicate rules.
func (f *UDPFilter) dropDeterministic(local, peer string) bool {
	if f.groups != nil {
		gl, okl := f.groups[local]
		gp, okp := f.groups[peer]
		if okl && okp && gl != gp {
			return true
		}
	}
	return f.pred != nil && f.pred(local, peer)
}

// DropOutbound reports whether a datagram from local to peer should be
// dropped before it reaches the socket (deterministic rules + loss).
func (f *UDPFilter) DropOutbound(local, peer string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dropDeterministic(local, peer) {
		return true
	}
	return f.loss > 0 && f.rng.Float64() < f.loss
}

// DropInbound reports whether a datagram received by local from peer
// should be discarded (deterministic rules only; loss is sender-side).
func (f *UDPFilter) DropInbound(local, peer string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropDeterministic(local, peer)
}
