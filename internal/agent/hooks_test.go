package agent

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"antientropy/internal/core"
	"antientropy/internal/transport"
	"antientropy/internal/wire"
)

// storedValue is the push-style value path (cmd/aggnode -stdin): a
// Config.Value supplier that returns the latest value stored into it.
type storedValue struct{ bits atomic.Uint64 }

func (s *storedValue) store(v float64) { s.bits.Store(math.Float64bits(v)) }
func (s *storedValue) load() float64   { return math.Float64frombits(s.bits.Load()) }

// TestSetValueTakesEffectNextEpoch: a value stored mid-epoch must not
// disturb the running instance, and the fleet must converge to the new
// mean once the next epoch has sampled the updated value.
func TestSetValueTakesEffectNextEpoch(t *testing.T) {
	var local storedValue
	local.store(10)
	nodes, _ := launchSuppliedCluster(t, 8, testSchedule(), func(int) func() float64 { return local.load })
	// Wait for the first sealed output at the old value.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if out := nodes[0].Snapshot().LastOutput; out.OK {
			if out.Value < 9.9 || out.Value > 10.1 {
				t.Fatalf("pre-update output %g, want ≈ 10", out.Value)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no epoch output before update")
		}
		time.Sleep(10 * time.Millisecond)
	}
	local.store(40)
	// Within a few epochs every node must seal an output at the new mean.
	deadline = time.Now().Add(3 * time.Second)
	for {
		if out := nodes[0].Snapshot().LastOutput; out.OK && out.Value > 39 && out.Value < 41 {
			return
		}
		if time.Now().After(deadline) {
			out := nodes[0].Snapshot().LastOutput
			t.Fatalf("fleet never converged to updated value; last output %+v", out)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSetValueOverridesConfigValue: a restart samples the latest value
// stored into the node's supplier, not the one it started with.
func TestSetValueOverridesConfigValue(t *testing.T) {
	var local storedValue
	local.store(5)
	nodes, _ := launchSuppliedCluster(t, 3, testSchedule(), func(int) func() float64 { return local.load })
	local.store(6)
	local.store(7)
	nodes[0].mu.Lock()
	nodes[0].resetStateLocked()
	got := nodes[0].scalar
	nodes[0].mu.Unlock()
	if got != 7 {
		t.Fatalf("restart sampled %g, want the latest stored value 7", got)
	}
}

// TestSnapshotConsistency: Snapshot must agree with the individual
// accessors and carry the newest sealed output.
func TestSnapshotConsistency(t *testing.T) {
	nodes, _ := launchCluster(t, 4, testSchedule(), func(i int) float64 { return 3 })
	deadline := time.Now().Add(3 * time.Second)
	for {
		s := nodes[0].Snapshot()
		if s.HasOutput {
			if !s.Participating {
				t.Fatal("founding node not participating in snapshot")
			}
			if !s.OK {
				t.Fatal("snapshot has output but no usable estimate")
			}
			if s.LastOutput.Epoch >= s.Epoch {
				t.Fatalf("sealed output epoch %d not before current epoch %d",
					s.LastOutput.Epoch, s.Epoch)
			}
			if s.LastOutput.Value < 2.9 || s.LastOutput.Value > 3.1 {
				t.Fatalf("sealed output %g, want ≈ 3", s.LastOutput.Value)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot never reported a sealed output")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdversaryReplaysSealedOutputs drives a node's epochs by hand under
// a replay hook with lag 2 that reads the outputs the node hands it: the
// payload must stay honest until the node has sealed two outputs, then
// carry the output sealed two epochs back — its value and its epoch tag.
func TestAdversaryReplaysSealedOutputs(t *testing.T) {
	const lag = 2
	net := transport.NewMemNetwork(transport.MemNetworkConfig{Seed: 1})
	defer net.Close()
	start := time.Now()
	var local storedValue
	local.store(10)
	node, err := New(Config{
		Endpoint: net.Endpoint(),
		Schedule: core.Schedule{Start: start, Delta: time.Hour, CycleLen: time.Hour, Gamma: 1 << 20},
		Value:    local.load,
		Seed:     1,
		Logger:   quietLogger(),
		Adversary: func(_ uint64, _ float64, outputs []Output) (float64, uint64, bool) {
			if len(outputs) < lag {
				return 0, 0, false
			}
			out := outputs[len(outputs)-lag]
			return out.Value, out.Epoch, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer node.Stop()
	payload := func() wire.Payload {
		node.lock()
		defer node.unlock()
		return node.payloadLocked(1, 1, start)
	}
	// Epoch e restarts from the local value 10·(e+1) and seals it, so the
	// output of epoch e reads 10·(e+1).
	for e := uint64(0); e <= 3; e++ {
		if e > 0 {
			local.store(float64(10 * (e + 1)))
			node.advanceEpoch(start.Add(time.Duration(e) * time.Hour))
		}
		// By epoch e the node has sealed e outputs.
		wantValue, wantEpoch := float64(10*(e+1)), e // honest
		if e >= lag {
			wantValue, wantEpoch = float64(10*(e-lag+1)), e-lag
		}
		if p := payload(); p.Scalar != wantValue || p.Epoch != wantEpoch {
			t.Fatalf("epoch %d, %d sealed: payload reports %g in epoch %d, want %g in epoch %d",
				e, len(node.Outputs()), p.Scalar, p.Epoch, wantValue, wantEpoch)
		}
	}
	if got := node.Metrics().AdversaryLies; got != 2 {
		t.Fatalf("%d lies counted, want 2 (epochs 2 and 3)", got)
	}
}
