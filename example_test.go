package antientropy_test

import (
	"fmt"
	"math"
	"slices"

	"antientropy"
)

// ExampleSimulate runs the basic AVERAGE protocol of §3: 1 000 nodes,
// each holding its index, agree on the global average in 30 cycles.
func ExampleSimulate() {
	engine, err := antientropy.Simulate(antientropy.SimConfig{
		N:       1000,
		Cycles:  30,
		Seed:    1,
		Fn:      antientropy.Average,
		Init:    func(node int) float64 { return float64(node) },
		Overlay: antientropy.RandomOverlay(20),
	})
	if err != nil {
		panic(err)
	}
	m := engine.ParticipantMoments()
	converged := m.Max()-m.Min() < 0.001
	fmt.Printf("mean %.4f, all nodes agree: %v\n", m.Mean(), converged)
	// Output:
	// mean 499.5000, all nodes agree: true
}

// ExampleSimulate_count estimates the network size with the COUNT
// protocol (§5): one leader starts with 1, everyone else with 0, and
// every node ends up with 1/N.
func ExampleSimulate_count() {
	engine, err := antientropy.Simulate(antientropy.SimConfig{
		N:       5000,
		Cycles:  30,
		Seed:    2,
		Dim:     1,
		Leaders: []int{0},
		Overlay: antientropy.NewscastOverlay(30),
	})
	if err != nil {
		panic(err)
	}
	sizes := engine.SizeMoments()
	fmt.Printf("estimated size %.0f (true 5000)\n", sizes.Mean())
	// Output:
	// estimated size 5000 (true 5000)
}

// ExampleSimulate_countUnderChurn estimates the network size while 1 %
// of the nodes are replaced every cycle (the Figure 6b setting). Twenty
// concurrent COUNT instances, each led by one node, keep the estimate
// near the true size, which churn leaves constant; the nodes that joined
// during the epoch wait for the next one, so only the surviving
// participants report.
func ExampleSimulate_countUnderChurn() {
	const n, instances = 5000, 20
	leaders := make([]int, instances)
	for d := range leaders {
		leaders[d] = d * (n / instances)
	}
	engine, err := antientropy.Simulate(antientropy.SimConfig{
		N:        n,
		Cycles:   30,
		Seed:     7,
		Dim:      instances,
		Leaders:  leaders,
		Overlay:  antientropy.NewscastOverlay(30),
		Failures: []antientropy.FailureModel{antientropy.Churn{PerCycle: n / 100}},
	})
	if err != nil {
		panic(err)
	}
	sizes := engine.SizeMoments()
	fmt.Printf("estimated size %.0f (true %d) at %d surviving participants\n", sizes.Mean(), n, sizes.N())
	// Output:
	// estimated size 4841 (true 5000) at 3721 surviving participants
}

// ExampleSimulateSum composes the SUM aggregate from an averaging
// instance and a COUNT instance, as §5 prescribes.
func ExampleSimulateSum() {
	res, err := antientropy.SimulateSum(antientropy.DerivedConfig{
		N:       2000,
		Cycles:  30,
		Seed:    3,
		Values:  func(node int) float64 { return 2 }, // true sum 4000
		Overlay: antientropy.RandomOverlay(20),
		Leader:  0,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("estimated sum %.0f\n", res.Estimates.Mean())
	// Output:
	// estimated sum 4000
}

// ExampleSimulateVariance composes the other §5 aggregates beside SUM:
// VARIANCE = E[x²] − E[x]² from two averaging instances, and PRODUCT =
// (geometric mean)^N from a geometric-mean instance and a COUNT
// instance. The product of 2 000 values is far beyond float64, so it is
// shown in log space.
func ExampleSimulateVariance() {
	const n = 2000
	values := func(node int) float64 { return 1 + float64(node%7)/4 }
	var sum, sumSq, logProduct float64
	for i := range n {
		sum += values(i)
		sumSq += values(i) * values(i)
		logProduct += math.Log(values(i))
	}
	overlay := antientropy.NewscastOverlay(30)
	variance, err := antientropy.SimulateVariance(antientropy.DerivedConfig{
		N: n, Cycles: 30, Seed: 4, Values: values, Overlay: overlay, Leader: 0,
	})
	if err != nil {
		panic(err)
	}
	gm, err := antientropy.Simulate(antientropy.SimConfig{
		N: n, Cycles: 30, Seed: 5, Fn: antientropy.GeometricMean, Init: values, Overlay: overlay,
	})
	if err != nil {
		panic(err)
	}
	count, err := antientropy.Simulate(antientropy.SimConfig{
		N: n, Cycles: 30, Seed: 6, Dim: 1, Leaders: []int{0}, Overlay: overlay,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("variance %.4f (true %.4f)\n", variance.Estimates.Mean(), sumSq/n-(sum/n)*(sum/n))
	fmt.Printf("product  e^%.1f (true e^%.1f)\n",
		count.SizeMoments().Mean()*math.Log(gm.ParticipantMoments().Mean()), logProduct)
	// Output:
	// variance 0.2498 (true 0.2498)
	// product  e^1030.3 (true e^1030.3)
}

// Example_loadBalance is the paper's §1 motivating application. Knowing
// the global average load lets every node decide locally when to stop
// transferring load. Phase 1 gives every node an estimate of the average
// through gossip; in phase 2 an overloaded node splits its load with a
// random lighter peer until it sits within 5 % of its own estimate — no
// coordinator anywhere, and the total load is conserved.
func Example_loadBalance() {
	const n, tolerance = 5000, 0.05
	// Skewed initial loads: 10 % of the nodes hold most of the work.
	loads := make([]float64, n)
	rng := antientropy.NewRNG(99)
	for i := range loads {
		if rng.Float64() < 0.1 {
			loads[i] = 90 + 20*rng.Float64()
		} else {
			loads[i] = 1 + 2*rng.Float64()
		}
	}
	total := 0.0
	for _, l := range loads {
		total += l
	}
	fmt.Printf("average load %.3f, initial range [%.1f, %.1f]\n", total/n, slices.Min(loads), slices.Max(loads))

	engine, err := antientropy.Simulate(antientropy.SimConfig{
		N:       n,
		Cycles:  30,
		Seed:    1,
		Fn:      antientropy.Average,
		Init:    func(i int) float64 { return loads[i] },
		Overlay: antientropy.NewscastOverlay(30),
	})
	if err != nil {
		panic(err)
	}
	estimates := make([]float64, n)
	engine.ForEachParticipant(func(node int, v float64) { estimates[node] = v })

	peers := antientropy.NewRNG(2)
	rounds := 0
	for moved := true; moved && rounds < 60; rounds++ {
		moved = false
		for i := range loads {
			if loads[i] <= estimates[i]*(1+tolerance) {
				continue // balanced: a purely local decision
			}
			if j := peers.Intn(n); j != i && loads[j] < loads[i] {
				loads[i], loads[j] = (loads[i]+loads[j])/2, (loads[i]+loads[j])/2
				moved = true
			}
		}
	}
	after := 0.0
	for _, l := range loads {
		after += l
	}
	fmt.Printf("after %d rounds: range [%.3f, %.3f], total load conserved: %v\n",
		rounds, slices.Min(loads), slices.Max(loads), math.Abs(after-total) < 1e-6*total)
	// Output:
	// average load 12.817, initial range [1.0, 110.0]
	// after 18 rounds: range [1.004, 13.458], total load conserved: true
}

// ExampleCombine applies the §7.3 multi-instance combiner: the ⌊t/3⌋
// lowest and highest of t concurrent estimates are discarded before
// averaging, which removes the outlier here entirely.
func ExampleCombine() {
	estimates := []float64{98000, 101000, 99000, 2500000, 100000, 102000}
	robust, err := antientropy.Combine(estimates)
	if err != nil {
		panic(err)
	}
	fmt.Printf("combined estimate %.0f\n", robust)
	// Output:
	// combined estimate 100500
}

// ExampleRunExperiment regenerates a (scaled-down) paper figure.
func ExampleRunExperiment() {
	res, err := antientropy.RunExperiment("fig2", antientropy.ExperimentOptions{
		N:    1000,
		Reps: 2,
	})
	if err != nil {
		panic(err)
	}
	last := res.Series[0].Points[len(res.Series[0].Points)-1]
	fmt.Printf("%s: %d series, final %s point at cycle %.0f\n",
		res.ID, len(res.Series), res.Series[0].Label, last.X)
	// Output:
	// fig2: 2 series, final Minimum point at cycle 30
}
