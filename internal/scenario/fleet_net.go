package scenario

import (
	"fmt"
	"math/rand/v2"
	"time"

	"antientropy/internal/agent"
	"antientropy/internal/core"
	"antientropy/internal/obs"
	"antientropy/internal/overlay"
	"antientropy/internal/transport"
)

// nodeEndpoint is the transport attachment a fleet slot runs on.
type nodeEndpoint interface {
	transport.Endpoint
	QueueDrops() int64
	FilterDrops() int64
}

// fleetNet is the network a fleet's endpoints attach to. The scripted
// drop rules live in the fleet's filter, which the network applies;
// transport.MemNetwork and transport.UDPMux already offer the telemetry
// under the same names, and the adapters below add what differs.
type fleetNet interface {
	QueueDepthHighWatermark() int64
	BatchSizes() obs.HistSnapshot

	endpoint() (nodeEndpoint, error)
	// setLatency sets the one-way delivery delay bounds and reports
	// whether the network can inject latency at all.
	setLatency(min, max time.Duration) bool
	close()
}

// netBuilder builds a fleet's network around the fleet's filter. Its
// endpoints queue nothing once their nodes start, so their inbound
// buffers keep the transport's default size.
type netBuilder func(sc Scenario, filter *transport.UDPFilter) (fleetNet, error)

// socketNet is the udp fleet's network: one batched UDP mux on loopback,
// which spreads the endpoints over its own sockets (endpoint id mod
// sockets), every endpoint behind the fleet's filter — the userspace
// stand-in for the iptables rules a privileged supervisor would install.
// It cannot delay a datagram.
type socketNet struct{ *transport.UDPMux }

// fleetReadBuffer is the SO_RCVBUF of each of the mux's sockets, which
// carry the inbound traffic of a whole fleet (the kernel caps it at
// net.core.rmem_max). At the 208 KiB default, partition-heal at 10⁴
// nodes on the two sockets of a 2-vCPU machine read ρ 0.41 against the
// simulator's 0.35; at 4 MiB it reads 0.35.
const fleetReadBuffer = 4 << 20

func newSocketNet(_ Scenario, filter *transport.UDPFilter) (fleetNet, error) {
	mux, err := transport.NewUDPMux(transport.UDPMuxConfig{ReadBuffer: fleetReadBuffer})
	if err != nil {
		return nil, err
	}
	mux.SetFilter(filter)
	return socketNet{mux}, nil
}

func (n socketNet) endpoint() (nodeEndpoint, error) {
	ep, err := n.UDPMux.Endpoint()
	if err != nil {
		return nil, err
	}
	return ep, nil
}
func (n socketNet) setLatency(_, _ time.Duration) bool { return false }
func (n socketNet) close()                             { _ = n.UDPMux.Close() }

// memNet is the live fleet's network: the in-memory transport, which
// delays datagrams itself and loses them through the fleet's filter.
type memNet struct{ *transport.MemNetwork }

func newMemNet(sc Scenario, filter *transport.UDPFilter) (fleetNet, error) {
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: int64(sc.Seed) + 1})
	net.SetFilter(filter)
	return memNet{net}, nil
}

func (n memNet) endpoint() (nodeEndpoint, error) { return n.MemNetwork.Endpoint(), nil }
func (n memNet) setLatency(min, max time.Duration) bool {
	n.SetLatency(min, max)
	return true
}
func (n memNet) close() { n.Close() }

// bootstrapSubset deterministically samples one node's founding contacts
// from the fleet address list. Seeding every node with the whole fleet is
// quadratic in fleet size — each node interns every address only to keep
// cache-size descriptors — and at 10⁴ nodes that alone blows the start
// barrier. A random subset a few times the cache size produces the same
// random out-degree-c overlay the paper assumes (§4). Small fleets pass
// through unchanged, so CI-scale divergence comparisons are unaffected.
// seen is the caller's scratch set, cleared here: one map serves a whole
// founding instead of one per node.
func bootstrapSubset(all []string, seed uint64, slot int, seen map[int]struct{}) []string {
	want := 4 * overlay.DefaultCacheSize
	if len(all) <= want+1 {
		return all
	}
	rng := rand.New(rand.NewPCG(seed, uint64(slot)*0x9e3779b97f4a7c15+0x6c62272e07bb0142))
	out := make([]string, 0, want)
	clear(seen)
	for len(out) < want {
		i := rng.IntN(len(all))
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		out = append(out, all[i])
	}
	return out
}

// newNode builds (but does not start) the agent on a slot's endpoint —
// the one place a scenario fleet's node is configured. Slot-based
// adversary wiring happens here, so a Byzantine slot that churns stays
// Byzantine, mirroring the simulator's slot-indexed schedule.
func (d *supervisor) newNode(slot int, seeds, bootstrap []string) (*agent.Node, error) {
	node, err := agent.New(agent.Config{
		Endpoint:     d.nodes[slot].ep,
		Schedule:     d.sched,
		Function:     core.Average,
		Value:        func() float64 { return restartValue(d.adv, d.prog, slot, int(d.cycleNow.Load())) },
		Seeds:        seeds,
		Bootstrap:    bootstrap,
		Seed:         d.sc.Seed + uint64(slot)*0x9e3779b97f4a7c15 + 1,
		Logger:       d.opts.Logger,
		RTT:          d.rtt,
		Trace:        d.opts.Trace,
		MaxViewBytes: d.sc.ViewCapBytes,
		Adversary:    d.adv.wireHook(slot, &d.cycleNow),
		Combiner:     d.combiner,
		CombinerK:    d.sc.Defense.Samples,
	})
	if err != nil {
		return nil, fmt.Errorf("building node %d: %w", slot, err)
	}
	return node, nil
}
