// Package antientropy is a Go implementation of the robust, proactive
// gossip aggregation protocols of Montresor, Jelasity & Babaoglu,
// "Robust Aggregation Protocols for Large-Scale Overlay Networks"
// (DSN 2004) — push-pull anti-entropy averaging with epochs, automatic
// restart, the multi-leader COUNT protocol, derived aggregates (SUM,
// PRODUCT, VARIANCE, network size), NEWSCAST membership, and the
// multi-instance robustness scheme.
//
// The package is a facade over the implementation packages:
//
//   - Simulation: Simulate runs the cycle-driven engine used to reproduce
//     every figure of the paper (see Experiments / RunExperiment).
//   - Deployment: NewNode runs a live node — active/passive goroutine
//     pair, real timeouts, epochs, joins — over an in-memory network
//     (NewMemNetwork) or UDP (an endpoint of NewUDPMux).
//
// # Quick start (simulation)
//
//	engine, err := antientropy.Simulate(antientropy.SimConfig{
//	    N:       1000,
//	    Cycles:  30,
//	    Seed:    1,
//	    Fn:      antientropy.Average,
//	    Init:    func(node int) float64 { return float64(node) },
//	    Overlay: antientropy.NewscastOverlay(30),
//	})
//	m := engine.ParticipantMoments()
//	fmt.Println(m.Mean(), m.Variance()) // ≈ 499.5, ≈ 0
//
// # Quick start (live nodes)
//
//	net := antientropy.NewMemNetwork(antientropy.MemNetworkConfig{})
//	node, err := antientropy.NewNode(antientropy.NodeConfig{
//	    Endpoint: net.Endpoint(),
//	    Schedule: antientropy.Schedule{Start: anchor, Delta: 30 * time.Second,
//	        CycleLen: time.Second, Gamma: 30},
//	    Value:    readLocalLoad,
//	})
//	err = node.Start(ctx)
//	...
//	estimate, ok := node.Estimate()
package antientropy

import (
	"context"
	"io"
	"log/slog"

	"antientropy/internal/agent"
	"antientropy/internal/core"
	"antientropy/internal/experiments"
	"antientropy/internal/obs"
	"antientropy/internal/overlay"
	"antientropy/internal/scenario"
	"antientropy/internal/serve"
	"antientropy/internal/sim"
	"antientropy/internal/stats"
	"antientropy/internal/topology"
	"antientropy/internal/transport"
)

// Aggregation functions (paper §3, §5).
type (
	// Function is a scalar aggregate: an elementary symmetric exchange
	// rule plus metadata.
	Function = core.Function
	// UpdateFunc is the elementary exchange step UPDATE(a, b).
	UpdateFunc = core.UpdateFunc
	// MapState is the COUNT protocol's leader → estimate map.
	MapState = core.MapState
	// LeaderID identifies a COUNT instance.
	LeaderID = core.LeaderID
)

// The scalar aggregates shipped with the library.
var (
	// Average computes the arithmetic mean (paper §3).
	Average = core.Average
	// Min propagates the global minimum (paper §5).
	Min = core.Min
	// Max propagates the global maximum (paper §5).
	Max = core.Max
	// GeometricMean converges to the geometric mean (paper §5).
	GeometricMean = core.GeometricMean
)

// FunctionByName resolves a scalar aggregate ("average", "min", "max",
// "geometric-mean").
func FunctionByName(name string) (Function, error) { return core.FunctionByName(name) }

// Derived aggregates (paper §5).
var (
	// SizeFromAverage converts a COUNT estimate into a network size.
	SizeFromAverage = core.SizeFromAverage
	// SumFromAverage composes SUM = average × size.
	SumFromAverage = core.SumFromAverage
	// VarianceFromMoments composes VARIANCE = E[x²] − E[x]².
	VarianceFromMoments = core.VarianceFromMoments
	// ProductFromGeometricMean composes PRODUCT = gm^N.
	ProductFromGeometricMean = core.ProductFromGeometricMean
	// Combine is the §7.3 multi-instance trimmed-mean combiner.
	Combine = core.Combine
)

// Pluggable combiners — the merge-policy half of the defense API.
type (
	// Combiner reduces a set of estimate samples to one value: the
	// pluggable merge policy shared by the §7.3 multi-instance
	// combination and the per-exchange defended merge (MergeGuard).
	Combiner = core.Combiner
	// CombinerMean is the undefended arithmetic-mean combiner.
	CombinerMean = core.Mean
	// CombinerClampedMean clamps samples into [Min, Max] then averages.
	CombinerClampedMean = core.ClampedMean
	// CombinerMedianOfK is the outlier-rejecting median combiner.
	CombinerMedianOfK = core.MedianOfK
	// CombinerTrimmedMean is the paper's §7.3 trimmed mean.
	CombinerTrimmedMean = core.TrimmedMean
	// MergeGuard applies a Combiner to the pairwise push-pull merge over
	// a window of recent peer samples.
	MergeGuard = core.MergeGuard
)

// CombinerByName resolves a combiner name ("mean", "clamped-mean",
// "median-of-k", "trimmed-mean"); clamp bounds apply to "clamped-mean".
func CombinerByName(name string, clampMin, clampMax float64) (Combiner, error) {
	return core.CombinerByName(name, clampMin, clampMax)
}

// NewMergeGuard builds a defended-merge guard over n node slots with a
// per-merge sample budget of k (k < 2 selects core.DefaultMergeK).
func NewMergeGuard(c Combiner, k, n int) *MergeGuard { return core.NewMergeGuard(c, k, n) }

// Simulation API (the paper's PeerSim-equivalent substrate).
type (
	// SimConfig configures one simulation run. Shards > 1 splits the node
	// space into that many shards run across the cores (for 10⁵–10⁶-node
	// runs); results are bit-deterministic per (seed, shard count) and
	// statistically equivalent across shard counts.
	SimConfig = sim.Config
	// SimEngine is a running/finished simulation.
	SimEngine = sim.Engine
	// OverlayBuilder selects the overlay for a simulation run.
	OverlayBuilder = sim.OverlaySpec
	// FailureModel injects crashes/churn at cycle starts.
	FailureModel = sim.FailureModel
	// Moments is a streaming mean/variance/min/max accumulator.
	Moments = stats.Moments
	// RNG is the deterministic generator used throughout.
	RNG = stats.RNG
)

// Failure models of §6/§7.
type (
	// CrashFraction crashes a proportion P_f of live nodes per cycle.
	CrashFraction = sim.CrashFraction
	// SuddenDeath crashes a fraction of the network at one cycle.
	SuddenDeath = sim.SuddenDeath
	// Churn substitutes a fixed number of nodes per cycle.
	Churn = sim.Churn
	// CrashCount crashes a fixed number of nodes per cycle.
	CrashCount = sim.CrashCount
)

// Simulate validates cfg and runs all configured cycles.
func Simulate(cfg SimConfig) (*SimEngine, error) { return sim.Run(cfg) }

// Derived aggregates composed from concurrent protocol instances (§5).
type (
	// DerivedConfig parameterizes a composed aggregate simulation.
	DerivedConfig = sim.DerivedConfig
	// DerivedResult carries per-node combined estimates.
	DerivedResult = sim.DerivedResult
)

// SimulateSum estimates Σ values = average × network size (§5). A node
// that holds no COUNT mass yet (early in the epoch, far from the leader)
// has no finite size estimate and is left out of the result's Estimates.
func SimulateSum(cfg DerivedConfig) (*DerivedResult, error) { return sim.RunSum(cfg) }

// SimulateVariance estimates Var(values) = E[x²] − E[x]² (§5).
func SimulateVariance(cfg DerivedConfig) (*DerivedResult, error) { return sim.RunVariance(cfg) }

// NewRNG returns a deterministic random generator.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// Overlay builders.

// NewscastOverlay runs the NEWSCAST membership protocol with cache size c
// inside the simulation (paper §4.4).
func NewscastOverlay(c int) OverlayBuilder { return sim.Newscast(c) }

// RandomOverlay is a random graph where each node knows `degree` peers.
func RandomOverlay(degree int) OverlayBuilder { return experiments.RandomTopology(degree).Overlay }

// CompleteOverlay is the static fully connected overlay.
func CompleteOverlay() OverlayBuilder { return experiments.CompleteTopology().Overlay }

// CompleteLiveOverlay is fully connected over the *live* membership
// (crashed nodes vanish from everyone's neighbor sets).
func CompleteLiveOverlay() OverlayBuilder { return sim.CompleteLive() }

// WattsStrogatzOverlay is a small-world overlay with rewiring probability
// beta and even lattice degree k.
func WattsStrogatzOverlay(k int, beta float64) OverlayBuilder {
	return sim.Static(func(n int, rng *stats.RNG) (topology.Graph, error) {
		return topology.NewWattsStrogatz(n, k, beta, rng)
	})
}

// ScaleFreeOverlay is a Barabási–Albert preferential-attachment overlay
// with m edges per new node.
func ScaleFreeOverlay(m int) OverlayBuilder {
	return sim.Static(func(n int, rng *stats.RNG) (topology.Graph, error) {
		return topology.NewBarabasiAlbert(n, m, rng)
	})
}

// RegularOverlay is a random simple k-regular undirected overlay — the
// strictest reading of the paper's "regular degree of 20".
func RegularOverlay(k int) OverlayBuilder {
	return sim.Static(func(n int, rng *stats.RNG) (topology.Graph, error) {
		return topology.NewKRegular(n, k, rng)
	})
}

// Init helpers for SimConfig.Init.
var (
	// PeakInit gives one node `total` and everyone else 0 (paper §3).
	PeakInit = sim.PeakInit
	// ConstInit gives every node the same value.
	ConstInit = sim.ConstInit
	// UniformInit draws values uniformly from [lo, hi).
	UniformInit = sim.UniformInit
	// LinearInit assigns node i the value i.
	LinearInit = sim.LinearInit
)

// Live deployment API (paper §4 practical protocol).
type (
	// NodeConfig configures a live aggregation node.
	NodeConfig = agent.Config
	// Node is a running aggregation participant.
	Node = agent.Node
	// NodeMetrics counts a live node's protocol events.
	NodeMetrics = agent.Metrics
	// EpochOutput is one completed epoch's result.
	EpochOutput = agent.Output
	// Schedule fixes δ, Δ and γ (paper §4.1).
	Schedule = core.Schedule
	// Mode selects scalar aggregation or COUNT.
	Mode = agent.Mode
)

// Node modes.
const (
	// ModeScalar runs one scalar aggregate per epoch.
	ModeScalar = agent.ModeScalar
	// ModeCount estimates the network size (paper §5).
	ModeCount = agent.ModeCount
)

// NewNode validates cfg and builds a live node (start with Node.Start).
func NewNode(cfg NodeConfig) (*Node, error) { return agent.New(cfg) }

// Live telemetry (metrics registry, Prometheus export, exchange traces).
type (
	// MetricsRegistry names and exports a set of zero-allocation metric
	// instruments in the Prometheus text format.
	MetricsRegistry = obs.Registry
	// MetricsHistogram is a fixed-bucket histogram instrument.
	MetricsHistogram = obs.Histogram
	// TraceRing is a bounded ring of exchange-lifecycle trace events.
	TraceRing = obs.TraceRing
	// TraceEvent is one structured exchange-lifecycle event.
	TraceEvent = obs.TraceEvent
	// Timeline is the per-cycle flight recorder: a bounded ring of fleet
	// snapshots served at /debug/timeline.
	Timeline = obs.Timeline
	// TimelineEntry is one cycle's fleet state: what the health rules
	// read and the flight recorder keeps.
	TimelineEntry = obs.TimelineEntry
	// Health evaluates the fleet health rules once per cycle, exporting
	// agg_alerts_total / agg_alert_active and logging transitions.
	Health = obs.Health
	// TelemetryServer serves /metrics, /debug/trace, /debug/timeline and
	// /debug/pprof.
	TelemetryServer = obs.Server
)

// RTTBuckets are the default histogram bounds (seconds) for exchange
// round-trip latency.
var RTTBuckets = obs.RTTBuckets

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTraceRing builds a ring retaining the newest capacity exchange
// trace events.
func NewTraceRing(capacity int) *TraceRing { return obs.NewTraceRing(capacity) }

// NewTimeline builds a flight recorder retaining the newest capacity
// per-cycle snapshots.
func NewTimeline(capacity int) *Timeline { return obs.NewTimeline(capacity) }

// NewHealth builds a health-rule engine, registering its alert metric
// families on reg (may be nil) and logging fire/clear events to log (nil:
// discard).
func NewHealth(reg *MetricsRegistry, log *slog.Logger) *Health { return obs.NewHealth(reg, log) }

// ServeTelemetry starts the telemetry HTTP server on addr, exposing reg
// on /metrics, trace (may be nil) on /debug/trace, timeline (may be
// nil) on /debug/timeline and the runtime profiles on /debug/pprof/.
// Close the returned server to stop it.
func ServeTelemetry(addr string, reg *MetricsRegistry, trace *TraceRing, timeline *Timeline) (*TelemetryServer, error) {
	return obs.Serve(addr, reg, trace, timeline)
}

// Aggregation-as-a-service layer (cmd/aggd): a registry of named
// aggregation instances — each an embedded fleet of live nodes — served
// over a versioned HTTP JSON API with per-tenant token-bucket admission
// control.
type (
	// ServeRegistry owns a daemon's live aggregation instances.
	ServeRegistry = serve.Registry
	// ServeRegistryConfig tunes a ServeRegistry.
	ServeRegistryConfig = serve.RegistryConfig
	// ServeInstance is one named, long-running hosted aggregate.
	ServeInstance = serve.Instance
	// ServeInstanceConfig describes one instance (mirrors the POST
	// /v1/instances body).
	ServeInstanceConfig = serve.InstanceConfig
	// ServeEstimate is the serving snapshot of one instance: estimate,
	// epoch, generation and the spread-derived confidence.
	ServeEstimate = serve.Estimate
	// ServeLimits are the static creation bounds (instance and fleet caps).
	ServeLimits = serve.Limits
	// ServeAPI is the versioned /v1 HTTP JSON handler.
	ServeAPI = serve.API
	// ServeAPIConfig wires a ServeAPI.
	ServeAPIConfig = serve.APIConfig
	// ServeTenant is one API client population: name, key, limit.
	ServeTenant = serve.Tenant
	// ServeTenants resolves API keys to tenants.
	ServeTenants = serve.Tenants
	// ServeLimiter is per-tenant token-bucket admission control.
	ServeLimiter = serve.Limiter
	// ServeLimit is one tenant's token-bucket parameters.
	ServeLimit = serve.Limit
	// ServeMetrics is the agg_serve_* instrument set.
	ServeMetrics = serve.Metrics
)

// NewServeRegistry builds an empty instance registry.
func NewServeRegistry(cfg ServeRegistryConfig) *ServeRegistry { return serve.NewRegistry(cfg) }

// NewServeAPI builds the /v1 HTTP handler over a registry.
func NewServeAPI(cfg ServeAPIConfig) *ServeAPI { return serve.NewAPI(cfg) }

// NewServeTenants builds an API-key resolver. An empty list yields open
// single-user mode (every request admitted as the tenant "default").
func NewServeTenants(list []ServeTenant) (*ServeTenants, error) { return serve.NewTenants(list) }

// NewServeLimiter builds an empty admission limiter; seed it with
// ServeLimiter.SetLimit per tenant.
func NewServeLimiter() *ServeLimiter { return serve.NewLimiter() }

// NewServeMetrics registers the agg_serve_* families on reg (nil reg
// returns a no-op recorder).
func NewServeMetrics(reg *MetricsRegistry) *ServeMetrics { return serve.NewMetrics(reg) }

// RegisterNodeMetrics exposes aggregated node protocol counters on reg
// under the canonical agg_* names; snap is called at scrape time and
// returns the (summed) NodeMetrics of the population the process hosts.
func RegisterNodeMetrics(reg *MetricsRegistry, snap func() NodeMetrics) {
	agent.RegisterMetrics(reg, snap)
}

// Transports.
type (
	// Endpoint is a node's transport attachment.
	Endpoint = transport.Endpoint
	// MemNetwork is an in-memory datagram network with latency injection;
	// it loses datagrams through a UDPFilter (MemNetwork.SetFilter).
	MemNetwork = transport.MemNetwork
	// MemNetworkConfig tunes the simulated network conditions.
	MemNetworkConfig = transport.MemNetworkConfig
	// UDPMux is a shared batched UDP datagram layer: many virtual
	// endpoints on a small fixed socket set with one pooled reader set.
	UDPMux = transport.UDPMux
	// UDPMuxConfig tunes a UDPMux (socket count, batch size, queues).
	UDPMuxConfig = transport.UDPMuxConfig
	// MuxEndpoint is one virtual endpoint of a UDPMux.
	MuxEndpoint = transport.MuxEndpoint
	// UDPFilter is the drop policy of both networks — group partitions,
	// a custom predicate and a loss probability — installed with
	// MemNetwork.SetFilter or UDPMux.SetFilter.
	UDPFilter = transport.UDPFilter
)

// NewMemNetwork creates an in-memory network.
func NewMemNetwork(cfg MemNetworkConfig) *MemNetwork { return transport.NewMemNetwork(cfg) }

// NewMemFleet opens n endpoints on an in-memory network and returns them
// together with their address list — the shared bootstrap contact set a
// founding deployment passes to every node. It replaces the
// endpoint-and-address collection loop every in-process deployment used
// to hand-roll before seeding the membership layer.
func NewMemFleet(net *MemNetwork, n int) ([]Endpoint, []string) {
	endpoints := make([]Endpoint, n)
	addrs := make([]string, n)
	for i := range endpoints {
		ep := net.Endpoint()
		endpoints[i] = ep
		addrs[i] = ep.Addr()
	}
	return endpoints, addrs
}

// ParseAddrList splits a comma-separated contact list ("a:1, b:2") into
// the address slice NodeConfig.Bootstrap/Seeds take, trimming blanks.
func ParseAddrList(s string) []string { return overlay.SplitAddrList(s) }

// NewUDPMux opens a shared batched UDP layer. Endpoints created from it
// (UDPMux.Endpoint) are drop-in NodeConfig.Endpoint values: all nodes of
// the process then share the mux's sockets and reader goroutines, with
// recvmmsg/sendmmsg batching on Linux. A single node on a fixed port is a
// mux of one: UDPMuxConfig{Listen: "host:7000"} and one Endpoint, at
// "host:7000#0".
func NewUDPMux(cfg UDPMuxConfig) (*UDPMux, error) { return transport.NewUDPMux(cfg) }

// NewUDPFilter creates an all-pass drop-rule filter; seed drives its loss
// draws (0 picks a time seed).
func NewUDPFilter(seed int64) *UDPFilter { return transport.NewUDPFilter(seed) }

// Experiment harness (reproduces every figure of the paper).
type (
	// Experiment is a registered paper figure or ablation.
	Experiment = experiments.Runner
	// ExperimentOptions scale an experiment (N, repetitions, seed).
	ExperimentOptions = experiments.Options
	// ExperimentResult is a regenerated figure.
	ExperimentResult = experiments.Result
)

// Experiments lists every registered experiment (fig2 … fig8b plus
// ablations and scenario-based figures), sorted by id.
func Experiments() []Experiment { return experiments.Registry() }

// Declarative scenario engine: scripted churn, partitions, loss/delay
// bursts and value dynamics driving both the simulator and the live
// runtime (see cmd/aggscen).
type (
	// Scenario is one declarative run description (JSON-loadable).
	Scenario = scenario.Scenario
	// ScenarioEvent is one timed intervention of a scenario.
	ScenarioEvent = scenario.Event
	// ScenarioRun is one executed scenario with per-cycle metrics.
	ScenarioRun = scenario.RunResult
	// ScenarioCycle is one cycle's metrics row.
	ScenarioCycle = scenario.CycleMetrics
	// ScenarioSimOptions tune the simulator executor (engine selection,
	// shard count, overlay override).
	ScenarioSimOptions = scenario.SimOptions
	// ScenarioFleetOptions tune the fleet executors: one supervisor on
	// the in-memory transport (RunScenarioLive) or on one UDP mux
	// (RunScenarioUDP), in this process.
	ScenarioFleetOptions = scenario.FleetOptions
	// ScenarioDivergence summarizes how two executions of one scenario
	// differ cycle by cycle.
	ScenarioDivergence = scenario.Divergence
)

// Engine names for ScenarioSimOptions.Engine (and, with the same
// spelling, ExperimentOptions.Engine).
const (
	// ScenarioEngineSerial runs the simulation engine with one shard.
	ScenarioEngineSerial = scenario.EngineSerial
	// ScenarioEngineSharded runs it with ScenarioSimOptions.Shards shards
	// across the cores.
	ScenarioEngineSharded = scenario.EngineSharded
	// ScenarioEngineAuto selects by network size: sharded at
	// AutoEngineThreshold node slots and above, serial below.
	ScenarioEngineAuto = scenario.EngineAuto
)

// AutoEngineThreshold is the network size at or above which engine
// auto-selection shards a run.
const AutoEngineThreshold = scenario.AutoEngineThreshold

// ScenarioCSVHeader is the column row of the scenario metric CSV stream.
const ScenarioCSVHeader = scenario.CSVHeader

// CannedScenarios returns the standard scenario library (steady churn,
// flash crowd, correlated crash, partition-and-heal, loss burst, value
// drift, rolling restart).
func CannedScenarios() []Scenario { return scenario.Canned() }

// ScenarioByName finds a canned scenario.
func ScenarioByName(name string) (Scenario, error) { return scenario.ByName(name) }

// LoadScenario reads and validates one JSON scenario.
func LoadScenario(r io.Reader) (Scenario, error) { return scenario.Load(r) }

// RunScenarioSimWith executes a scenario on the selected simulation
// engine: ScenarioEngineSerial or ScenarioEngineSharded with a shard
// count (deterministic per seed + shard count).
func RunScenarioSimWith(sc Scenario, opts ScenarioSimOptions) (*ScenarioRun, error) {
	return scenario.RunSimWith(sc, opts)
}

// DivergeScenarioRuns computes the per-cycle divergence of two runs of
// the same scenario — typically one simulator run and one live-fleet
// run, whose metric streams share the CSV schema and the scripted value
// signal.
func DivergeScenarioRuns(a, b *ScenarioRun) ScenarioDivergence { return scenario.Diverge(a, b) }

// RunScenarioLive executes a scenario against a fleet of live nodes over
// the in-memory transport: the supervisor of RunScenarioUDP on the
// in-memory network, so nodes are built, crashed, joined and sampled by
// the same code on either wire.
func RunScenarioLive(ctx context.Context, sc Scenario, opts ScenarioFleetOptions) (*ScenarioRun, error) {
	return scenario.RunLive(ctx, sc, opts)
}

// RunScenarioUDP executes a scenario against a fleet of live nodes on
// real UDP loopback sockets, their endpoints on one in-process UDP mux.
// The supervisor performs each scripted action on the fleet the moment
// the script decides it and injects partitions and loss through the
// drop-rule filter the mux applies (see transport.UDPFilter).
func RunScenarioUDP(ctx context.Context, sc Scenario, opts ScenarioFleetOptions) (*ScenarioRun, error) {
	return scenario.RunUDP(ctx, sc, opts)
}

// ScenarioSchemaVersion is the current scenario JSON schema version.
// Version 2 added the adversary/defense section; version-1 documents
// still load but may not declare adversaries.
const ScenarioSchemaVersion = scenario.SchemaVersion

// Adversary model: scripted Byzantine behaviors, the defense
// configuration countering them, and the honest-twin bias report
// quantifying an attack's impact.
type (
	// ScenarioAdversary is one scripted Byzantine behavior of a
	// scenario (inject-extreme, lie-estimate, replay-stale,
	// sybil-flood).
	ScenarioAdversary = scenario.Adversary
	// ScenarioAdversaryBehavior names an adversary behavior.
	ScenarioAdversaryBehavior = scenario.Behavior
	// ScenarioDefense configures the countermeasures of a scenario:
	// the merge combiner (with clamp bounds and sample window) and the
	// epoch-scoped join cap.
	ScenarioDefense = scenario.Defense
	// ScenarioDecodeError is the typed error strict scenario decoding
	// returns on unknown fields or malformed JSON.
	ScenarioDecodeError = scenario.DecodeError
	// ScenarioTwinResult bundles an attacked run, its honest twin and
	// the bias report between them.
	ScenarioTwinResult = scenario.TwinResult
)

// Adversary behaviors for ScenarioAdversary.Behavior.
const (
	// ScenarioBehaviorInjectExtreme makes Byzantine nodes restart each
	// epoch with a huge local value.
	ScenarioBehaviorInjectExtreme = scenario.BehaviorInjectExtreme
	// ScenarioBehaviorLieEstimate makes Byzantine nodes lie about
	// their estimate on the wire (fixed value or amplified).
	ScenarioBehaviorLieEstimate = scenario.BehaviorLieEstimate
	// ScenarioBehaviorReplayStale makes Byzantine nodes replay a prior
	// epoch's estimate and epoch tag.
	ScenarioBehaviorReplayStale = scenario.BehaviorReplayStale
	// ScenarioBehaviorSybilFlood joins waves of attacker-controlled
	// identities each cycle.
	ScenarioBehaviorSybilFlood = scenario.BehaviorSybilFlood
)

// RunScenarioSimWithTwin executes the scenario twice on the selected
// simulation engine — once with adversaries stripped (the honest twin),
// once as scripted — and reports the induced estimate bias. The twin
// shares the seed, so the bias isolates the attack's effect.
func RunScenarioSimWithTwin(sc Scenario, opts ScenarioSimOptions) (*ScenarioTwinResult, error) {
	return scenario.RunSimWithTwin(sc, opts)
}

// RunExperiment regenerates one figure by id.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentResult, error) {
	r, err := experiments.Lookup(id)
	if err != nil {
		return nil, err
	}
	return r.Run(opts)
}
