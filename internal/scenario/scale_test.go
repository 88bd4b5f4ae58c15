//go:build scale

package scenario

import (
	"context"
	"testing"
	"time"

	"antientropy/internal/obs"
)

// TestUDPPartitionHeal10k is the scale gate, kept out of tier-1 by its
// build tag (go test -tags scale -run 10k ./internal/scenario): 10⁴ nodes
// across four UDP muxes in one process (2 500 endpoints per socket set)
// run partition-heal to cycle 55, past the heal at cycle 40, with every
// scripted crash, join, split and heal applied by the supervisor the
// moment the script decides it. The run must complete, its divergence
// from the simulator's run of the same script must cover every cycle, the
// fleet must contract variance within a quarter of the simulator's
// convergence factor, and every datagram the muxes accepted must decode
// (mux framing and the exchange codec at full fan-in):
// agg_decode_errors_total reads 0. Cycles are 400ms: on 2 vCPUs, 100ms
// cycles starve the fleet (ρ 0.86 against the simulator's 0.35) and 250ms
// ones read 0.40; founding the fleet takes about 0.3s of the first cycle.
func TestUDPPartitionHeal10k(t *testing.T) {
	sc, err := ByName("partition-heal")
	if err != nil {
		t.Fatal(err)
	}
	sc.N, sc.Cycles = 10_000, 55
	reg := obs.NewRegistry()
	start := time.Now()
	res, err := RunUDP(context.Background(), sc, FleetOptions{Workers: 4, CycleLen: 400 * time.Millisecond, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("udp run of %d nodes took %v", sc.N, time.Since(start).Round(time.Millisecond))
	sim, err := RunSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	d := Diverge(sim, res)
	t.Log(d)
	if d.Cycles != sc.Cycles+1 {
		t.Errorf("divergence covers %d cycles, want %d", d.Cycles, sc.Cycles+1)
	}
	if !(d.RhoB <= 1.25*d.RhoA) {
		t.Errorf("udp convergence factor %.3f, want at most 1.25 × the simulator's %.3f", d.RhoB, d.RhoA)
	}
	if n, ok := seriesValue(scrape(reg), "agg_decode_errors_total"); !ok || n != 0 {
		t.Errorf("agg_decode_errors_total = %g (exported: %v), want 0", n, ok)
	}
}
