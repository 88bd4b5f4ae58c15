// Package serve is the aggregation-as-a-service layer: a registry of
// named, long-lived aggregation instances that clients create, feed
// values into and query over a versioned HTTP JSON API (cmd/aggd),
// with per-tenant token-bucket admission control and agg_serve_*
// telemetry on the shared obs registry.
//
// Each instance embeds a fleet of live agent.Nodes gossiping the
// paper's practical protocol (§4) over an in-memory transport: fed
// values become the nodes' local values at the next epoch restart
// (§4.1), the converged per-epoch estimate is what the API serves, and
// epoch restarts surface as API-visible generation numbers so clients
// can detect re-convergence after an update. The protocol underneath is
// exactly the one the simulators and the scenario executors run — the
// serving layer adds only lifecycle, admission and naming.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"antientropy/internal/agent"
	"antientropy/internal/core"
	"antientropy/internal/stats"
	"antientropy/internal/transport"
	"antientropy/internal/wire"
)

// Aggregation functions an instance can host.
const (
	// FuncAverage serves the arithmetic mean of the fed values (§3).
	FuncAverage = "average"
	// FuncCount serves a network-size estimate of the instance's own
	// fleet via the multi-leader COUNT protocol (§5) — the liveness
	// canary: its estimate should track the fleet size.
	FuncCount = "count"
	// FuncSum serves Σ values, derived as AVERAGE × value count (§5).
	FuncSum = "sum"
	// FuncVariance serves Var(values) = E[x²] − E[x]², derived from two
	// concurrent AVERAGE fleets over x and x² (§5).
	FuncVariance = "variance"
)

// Functions lists the supported instance functions.
func Functions() []string {
	return []string{FuncAverage, FuncCount, FuncSum, FuncVariance}
}

// Transport names the wire the embedded fleets gossip over.
//
// Deprecated: every fleet runs on its own in-memory network; the type
// remains for RegistryConfig.Transport.
type Transport string

// TransportMem is the in-memory datagram network every fleet runs on.
//
// Deprecated: it is the only fleet wire; setting it changes nothing.
const TransportMem Transport = "mem"

// InstanceConfig describes one aggregation instance. JSON tags match
// the POST /v1/instances request body.
type InstanceConfig struct {
	// Name identifies the instance; unique within the registry.
	Name string `json:"name"`
	// Function is one of Functions() (default average).
	Function string `json:"function"`
	// FleetSize is the number of embedded protocol nodes (default 16).
	FleetSize int `json:"fleet_size,omitempty"`
	// EpochMS is the epoch length Δ in milliseconds (default 1000):
	// how often the instance restarts and re-samples fed values.
	EpochMS int `json:"epoch_ms,omitempty"`
	// CycleMS is the gossip cycle length δ in milliseconds (default
	// EpochMS/20, minimum 10): γ = EpochMS/CycleMS cycles run per epoch.
	CycleMS int `json:"cycle_ms,omitempty"`
	// CacheSize is the NEWSCAST cache capacity (default 30, at most
	// wire.MaxDescriptors−1 = 127: what a membership frame carries
	// beside the node's own descriptor).
	CacheSize int `json:"cache_size,omitempty"`
	// Combiner selects the fleet's per-exchange merge policy (one of
	// core.CombinerNames; empty keeps the classical push-pull mean) —
	// the defense API for untrusted feeders: "median-of-k" outvotes a
	// single outlier per merge, "clamped-mean" bounds every peer report.
	Combiner string `json:"combiner,omitempty"`
	// ClampMin/ClampMax bound admissible peer reports; both are required
	// by (and only valid with) the "clamped-mean" combiner, and must
	// satisfy clamp_min < clamp_max. Pointers distinguish "unset" from a
	// legitimate zero bound.
	ClampMin *float64 `json:"clamp_min,omitempty"`
	ClampMax *float64 `json:"clamp_max,omitempty"`
}

// Limits bound what the registry accepts — the static half of
// admission control (the Limiter is the rate half).
type Limits struct {
	// MaxInstances caps live instances (0 = 64).
	MaxInstances int
	// MaxFleet caps FleetSize per instance (0 = 256).
	MaxFleet int
}

func (l *Limits) withDefaults() {
	if l.MaxInstances <= 0 {
		l.MaxInstances = 64
	}
	if l.MaxFleet <= 0 {
		l.MaxFleet = 256
	}
}

// Registry errors, mapped onto HTTP statuses by the API layer.
var (
	// ErrExists reports a duplicate instance name (409).
	ErrExists = errors.New("serve: instance already exists")
	// ErrNotFound reports an unknown instance name (404).
	ErrNotFound = errors.New("serve: no such instance")
	// ErrClosed reports a registry shut down by Close (503).
	ErrClosed = errors.New("serve: registry closed")
	// ErrLimit reports a refused creation: the instance cap is reached
	// or the fleet size exceeds the per-instance bound (429/400).
	ErrLimit = errors.New("serve: admission limit")
)

// Registry owns the live instances of one daemon. All methods are safe
// for concurrent use.
type Registry struct {
	limits Limits
	logger *slog.Logger

	mu        sync.Mutex
	instances map[string]*Instance
	closed    bool
}

// RegistryConfig tunes a Registry.
type RegistryConfig struct {
	// Transport is ignored.
	//
	// Deprecated: every fleet runs on its own in-memory network.
	Transport Transport
	// Limits bound instance creation.
	Limits Limits
	// Logger receives lifecycle events (default slog.Default).
	Logger *slog.Logger
}

// NewRegistry builds an empty instance registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	cfg.Limits.withDefaults()
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Registry{
		limits:    cfg.Limits,
		logger:    cfg.Logger,
		instances: make(map[string]*Instance),
	}
}

// validateName enforces DNS-label-ish instance names: they appear in
// URLs and as metric label values.
func validateName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("serve: instance name must be 1-64 characters")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return fmt.Errorf("serve: instance name %q: only [a-z0-9_-] allowed", name)
		}
	}
	return nil
}

// normalize validates cfg and fills defaults.
func (r *Registry) normalize(cfg *InstanceConfig) error {
	if err := validateName(cfg.Name); err != nil {
		return err
	}
	switch cfg.Function {
	case "":
		cfg.Function = FuncAverage
	case FuncAverage, FuncCount, FuncSum, FuncVariance:
	default:
		return fmt.Errorf("serve: unknown function %q (want one of %v)", cfg.Function, Functions())
	}
	if cfg.FleetSize <= 0 {
		cfg.FleetSize = 16
	}
	if cfg.FleetSize > r.limits.MaxFleet {
		return fmt.Errorf("%w: fleet size %d exceeds the per-instance cap %d",
			ErrLimit, cfg.FleetSize, r.limits.MaxFleet)
	}
	if cfg.EpochMS <= 0 {
		cfg.EpochMS = 1000
	}
	if cfg.CycleMS <= 0 {
		cfg.CycleMS = cfg.EpochMS / 20
	}
	if cfg.CycleMS < 10 {
		cfg.CycleMS = 10
	}
	if cfg.CycleMS > cfg.EpochMS {
		cfg.CycleMS = cfg.EpochMS
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 30
	}
	if cfg.CacheSize > wire.MaxDescriptors-1 {
		return fmt.Errorf("serve: cache size %d exceeds %d, the most a membership frame carries beside the node's own descriptor",
			cfg.CacheSize, wire.MaxDescriptors-1)
	}
	switch cfg.Combiner {
	case "", core.CombinerMean, core.CombinerMedianOfK, core.CombinerTrimmedMean:
		if cfg.ClampMin != nil || cfg.ClampMax != nil {
			return fmt.Errorf("serve: clamp_min/clamp_max require combiner %q", core.CombinerClampedMean)
		}
	case core.CombinerClampedMean:
		if cfg.ClampMin == nil || cfg.ClampMax == nil {
			return fmt.Errorf("serve: combiner %q needs both clamp_min and clamp_max", core.CombinerClampedMean)
		}
		if _, err := core.CombinerByName(cfg.Combiner, *cfg.ClampMin, *cfg.ClampMax); err != nil {
			return err
		}
	default:
		return fmt.Errorf("serve: unknown combiner %q (want one of %v)", cfg.Combiner, core.CombinerNames())
	}
	return nil
}

// combiner resolves the instance's configured merge policy (nil = the
// classical push-pull mean). Call on a normalized config.
func (cfg *InstanceConfig) combiner() core.Combiner {
	if cfg.Combiner == "" {
		return nil
	}
	var lo, hi float64
	if cfg.ClampMin != nil {
		lo = *cfg.ClampMin
	}
	if cfg.ClampMax != nil {
		hi = *cfg.ClampMax
	}
	c, err := core.CombinerByName(cfg.Combiner, lo, hi)
	if err != nil {
		return nil // unreachable on a normalized config
	}
	return c
}

// Create builds, starts and registers a new instance owned by tenant.
func (r *Registry) Create(cfg InstanceConfig, tenant string) (*Instance, error) {
	if err := r.normalize(&cfg); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := r.instances[cfg.Name]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrExists, cfg.Name)
	}
	if len(r.instances) >= r.limits.MaxInstances {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %d instances live, cap %d",
			ErrLimit, len(r.instances), r.limits.MaxInstances)
	}
	// Reserve the name before the (slow) fleet launch so two concurrent
	// creations of one name cannot both build fleets.
	r.instances[cfg.Name] = nil
	r.mu.Unlock()

	inst, err := newInstance(cfg, tenant, r.logger)
	r.mu.Lock()
	if err != nil {
		delete(r.instances, cfg.Name)
		r.mu.Unlock()
		return nil, err
	}
	if r.closed {
		delete(r.instances, cfg.Name)
		r.mu.Unlock()
		inst.stop()
		return nil, ErrClosed
	}
	r.instances[cfg.Name] = inst
	r.mu.Unlock()
	r.logger.Info("instance created", "instance", cfg.Name, "tenant", tenant,
		"function", cfg.Function, "fleet", cfg.FleetSize)
	return inst, nil
}

// Get returns the named live instance.
func (r *Registry) Get(name string) (*Instance, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst, ok := r.instances[name]
	if !ok || inst == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return inst, nil
}

// Delete tears the named instance down, releasing its fleet, endpoints
// and goroutines before returning.
func (r *Registry) Delete(name string) error {
	r.mu.Lock()
	inst, ok := r.instances[name]
	if !ok || inst == nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(r.instances, name)
	r.mu.Unlock()
	inst.stop()
	r.logger.Info("instance deleted", "instance", name)
	return nil
}

// List returns the live instances sorted by name.
func (r *Registry) List() []*Instance {
	r.mu.Lock()
	out := make([]*Instance, 0, len(r.instances))
	for _, inst := range r.instances {
		if inst != nil {
			out = append(out, inst)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].cfg.Name < out[j].cfg.Name })
	return out
}

// Len reports the number of live instances.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, inst := range r.instances {
		if inst != nil {
			n++
		}
	}
	return n
}

// Close tears down every instance and refuses further creations — the
// daemon's drain path.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	insts := make([]*Instance, 0, len(r.instances))
	for name, inst := range r.instances {
		if inst != nil {
			insts = append(insts, inst)
		}
		delete(r.instances, name)
	}
	r.mu.Unlock()
	for _, inst := range insts {
		inst.stop()
	}
}

// fleet is one embedded set of protocol nodes plus the network it owns.
// An instance has one fleet (average/count/sum) or two (variance: x and
// x²).
type fleet struct {
	nodes []*agent.Node
	mem   *transport.MemNetwork
}

func (f *fleet) stop() {
	for _, n := range f.nodes {
		_ = n.Stop()
	}
	f.mem.Close()
}

// Instance is one named, long-running aggregate: an embedded protocol
// fleet, the client-fed value store, and the derived serving state.
type Instance struct {
	cfg       InstanceConfig
	tenant    string
	schedule  core.Schedule
	createdAt time.Time
	primary   *fleet
	squared   *fleet // variance only: the E[x²] fleet
	cancel    context.CancelFunc

	// vals is the fed-value store; pos maps positional slot i to its
	// index in vals, keys a named slot to its.
	mu       sync.RWMutex
	vals     []float64
	pos      []int
	keys     map[string]int
	lastFeed time.Time

	// sum is the fleet summary Estimate reads, retaken by the first read
	// that finds it a tenth of a cycle old or from an earlier generation.
	sumMu sync.Mutex
	sum   fleetSummary
}

// fleetSummary is one reduction of every node snapshot of an instance's
// fleets, stamped with when it was taken and in which generation.
type fleetSummary struct {
	at  time.Time
	gen uint64
	// The primary fleet's moments (fleetMoments).
	mean, spread float64
	reporting    int
	epoch        uint64
	newestOut    time.Time
	// The E[x²] fleet's moments; variance only.
	mean2, spread2 float64
	reporting2     int
}

// newInstance builds and starts the instance's fleet(s).
func newInstance(cfg InstanceConfig, tenant string, logger *slog.Logger) (*Instance, error) {
	now := time.Now()
	cycle := time.Duration(cfg.CycleMS) * time.Millisecond
	gamma := cfg.EpochMS / cfg.CycleMS
	if gamma < 1 {
		gamma = 1
	}
	inst := &Instance{
		cfg:    cfg,
		tenant: tenant,
		schedule: core.Schedule{
			// Anchored at creation: epoch 0 starts immediately and every
			// node of the fleet shares the schedule, so restarts (and the
			// generation numbers derived from them) line up.
			Start:    now,
			Delta:    time.Duration(gamma) * cycle,
			CycleLen: cycle,
			Gamma:    gamma,
		},
		createdAt: now,
		keys:      make(map[string]int),
	}
	ctx, cancel := context.WithCancel(context.Background())
	inst.cancel = cancel
	// Node debug chatter stays out of the daemon log: fleets are an
	// implementation detail of the instance.
	quiet := logger
	if quiet == nil {
		quiet = slog.Default()
	}
	quiet = slog.New(quiet.Handler()).With("instance", cfg.Name)

	var err error
	inst.primary, err = inst.launchFleet(ctx, quiet, func(i int) func() float64 {
		if cfg.Function == FuncCount {
			return nil
		}
		return func() float64 { return inst.slotValue(i, false) }
	})
	if err != nil {
		cancel()
		return nil, err
	}
	if cfg.Function == FuncVariance {
		inst.squared, err = inst.launchFleet(ctx, quiet, func(i int) func() float64 {
			return func() float64 { return inst.slotValue(i, true) }
		})
		if err != nil {
			cancel()
			inst.primary.stop()
			return nil, err
		}
	}
	return inst, nil
}

// launchFleet opens one in-memory network, builds FleetSize founding
// nodes on it and starts them. value(i) supplies node i's value source;
// nil selects ModeCount.
func (in *Instance) launchFleet(ctx context.Context, logger *slog.Logger, value func(i int) func() float64) (*fleet, error) {
	f := &fleet{mem: transport.NewMemNetwork(transport.MemNetworkConfig{QueueLen: 256})}
	n := in.cfg.FleetSize
	endpoints := make([]*transport.MemEndpoint, n)
	addrs := make([]string, n)
	for i := range endpoints {
		endpoints[i] = f.mem.Endpoint()
		addrs[i] = endpoints[i].Addr()
	}
	for i := range endpoints {
		cfg := agent.Config{
			Endpoint:  endpoints[i],
			Schedule:  in.schedule,
			CacheSize: in.cfg.CacheSize,
			Bootstrap: addrs,
			Seed:      uint64(i + 1),
			Logger:    logger,
		}
		if v := value(i); v != nil {
			cfg.Mode = agent.ModeScalar
			cfg.Function = core.Average
			cfg.Value = v
			cfg.Combiner = in.cfg.combiner()
		} else {
			cfg.Mode = agent.ModeCount
			cfg.Concurrency = 4
			cfg.InitialSizeGuess = float64(n)
		}
		node, err := agent.New(cfg)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, node)
		if err := node.Start(ctx); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// stop releases every fleet, endpoint and goroutine of the instance.
func (in *Instance) stop() {
	in.cancel()
	in.primary.stop()
	if in.squared != nil {
		in.squared.stop()
	}
}

// Config returns the instance's normalized configuration.
func (in *Instance) Config() InstanceConfig { return in.cfg }

// Tenant returns the creating tenant's name.
func (in *Instance) Tenant() string { return in.tenant }

// CreatedAt returns the creation time (= the schedule anchor).
func (in *Instance) CreatedAt() time.Time { return in.createdAt }

// slotValue maps fed values onto fleet node i (squared selects the x²
// assignment of the variance fleet). Values are dealt round-robin
// across the fleet; node 0 additionally absorbs the rounding residue
// so the fleet mean equals the fed mean (or fed mean of squares)
// exactly even when the fleet size is not a multiple of the value
// count. With no values fed yet every node holds 0.
func (in *Instance) slotValue(i int, squared bool) float64 {
	in.mu.RLock()
	defer in.mu.RUnlock()
	k := len(in.vals)
	if k == 0 {
		return 0
	}
	f := func(v float64) float64 {
		if squared {
			return v * v
		}
		return v
	}
	base := f(in.vals[i%k])
	if i != 0 {
		return base
	}
	n := in.cfg.FleetSize
	var sum, assigned float64
	for j, v := range in.vals {
		fv := f(v)
		sum += fv
		c := n / k
		if j < n%k {
			c++
		}
		assigned += float64(c) * fv
	}
	return base + (float64(n)*sum/float64(k) - assigned)
}

// Feed applies one value update: values sets positional slots 0..len-1,
// slots upserts named slots, reset clears the store first. Positional
// and named slots share one store in the order they were first fed, and
// a positional index never lands on a named slot; the new names of one
// update take their places in sorted key order. The update is sampled by
// every fleet node at the next epoch restart (§4.1) — the returned
// generation is the one whose successor will reflect it.
func (in *Instance) Feed(values []float64, slots map[string]float64, reset bool) (slotCount int, gen uint64) {
	now := time.Now()
	in.mu.Lock()
	if reset {
		in.vals = in.vals[:0]
		in.pos = in.pos[:0]
		in.keys = make(map[string]int)
	}
	for i, v := range values {
		if i == len(in.pos) {
			in.pos = append(in.pos, len(in.vals))
			in.vals = append(in.vals, 0)
		}
		in.vals[in.pos[i]] = v
	}
	var fresh []string
	for key, v := range slots {
		if idx, ok := in.keys[key]; ok {
			in.vals[idx] = v
		} else {
			fresh = append(fresh, key)
		}
	}
	slices.Sort(fresh)
	for _, key := range fresh {
		in.keys[key] = len(in.vals)
		in.vals = append(in.vals, slots[key])
	}
	in.lastFeed = now
	slotCount = len(in.vals)
	in.mu.Unlock()
	return slotCount, in.generationAt(now)
}

// Slots reports the current fed-value count.
func (in *Instance) Slots() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.vals)
}

// generationAt maps wall-clock time to the API-visible generation
// number: whole epoch restarts since creation. Generation g's values
// were sampled at the start of epoch g; a feed during generation g is
// first reflected by generation g+1 — clients detect re-convergence by
// watching the generation advance past the one their feed returned.
func (in *Instance) generationAt(t time.Time) uint64 {
	return in.schedule.EpochAt(t)
}

// Estimate is the serving snapshot of one instance.
type Estimate struct {
	Name     string `json:"name"`
	Function string `json:"function"`
	// Estimate is the fleet's current converged (or converging) value;
	// OK is false while no node holds a usable estimate yet.
	Estimate float64 `json:"estimate"`
	OK       bool    `json:"ok"`
	// Epoch is the fleet's protocol epoch, Generation the epochs-since-
	// creation counter clients use to detect re-convergence.
	Epoch      uint64 `json:"epoch"`
	Generation uint64 `json:"generation"`
	// RelSpread is the dispersion of per-node estimates relative to
	// their mean — the paper's variance-reduction measure applied as a
	// convergence signal, 0 while no node reports (OK false);
	// Confidence is 1 bounded away by the spread, and Converged reports
	// spread below the serving threshold.
	RelSpread  float64 `json:"rel_spread"`
	Confidence float64 `json:"confidence"`
	Converged  bool    `json:"converged"`
	// Nodes is the fleet size, Reporting how many nodes contributed a
	// usable estimate, Slots the fed-value count.
	Nodes     int `json:"nodes"`
	Reporting int `json:"reporting"`
	Slots     int `json:"slots"`
	// FeedLagSeconds is how long the newest feed waited (or has been
	// waiting) for an epoch restart to sample it; StalenessSeconds is
	// the age of the newest sealed epoch output.
	FeedLagSeconds   float64 `json:"feed_lag_seconds"`
	StalenessSeconds float64 `json:"staleness_seconds"`
}

// convergedSpread is the RelSpread below which an estimate is served
// as converged: well inside the paper's post-γ variance-reduction
// plateau, loose enough for small fleets' COUNT jitter.
const convergedSpread = 0.02

// fleetMoments reads every node snapshot of a fleet and reduces the
// reporting nodes' estimates through stats.Moments, whose spread stays
// exact where raw sums Σx, Σx² cancel once the fleet has converged far
// below its mean. With no node reporting there is no spread to measure,
// and it is 0: JSON has no +Inf, and reporting is what says the estimate
// is missing.
func fleetMoments(f *fleet) (mean, spread float64, reporting int, epoch uint64, newestOut time.Time) {
	var est stats.Moments
	for _, n := range f.nodes {
		s := n.Snapshot()
		if s.Epoch > epoch {
			epoch = s.Epoch
		}
		if s.HasOutput && s.LastOutput.At.After(newestOut) {
			newestOut = s.LastOutput.At
		}
		if s.OK {
			est.Add(s.Estimate)
		}
	}
	if est.N() == 0 {
		return 0, 0, 0, epoch, newestOut
	}
	spread = math.Sqrt(est.PopVariance()) / max(math.Abs(est.Mean()), 1e-9)
	return est.Mean(), spread, est.N(), epoch, newestOut
}

// summary returns the instance's fleet summary for a read at now, in
// generation gen, retaking it when it is a tenth of a cycle old or was
// taken in an earlier generation. A node's estimate moves about twice
// per cycle, so the summary trails the nodes by under δ/10 and never
// reaches back across an epoch restart; reads in between lock no node.
func (in *Instance) summary(now time.Time, gen uint64) fleetSummary {
	in.sumMu.Lock()
	defer in.sumMu.Unlock()
	s := &in.sum
	if s.gen < gen || now.Sub(s.at) >= in.schedule.CycleLen/10 {
		s.at, s.gen = now, gen
		s.mean, s.spread, s.reporting, s.epoch, s.newestOut = fleetMoments(in.primary)
		if in.squared != nil {
			s.mean2, s.spread2, s.reporting2, _, _ = fleetMoments(in.squared)
		}
	}
	return *s
}

// Estimate computes the instance's serving snapshot. Its fleet part
// (estimate, spread, reporting, epoch and the newest output staleness is
// measured from) comes from a fleet summary taken less than δ/10 before
// the call and in no earlier generation than the one it reports;
// generation, slots, feed lag and staleness are computed at the call.
func (in *Instance) Estimate() Estimate {
	now := time.Now()
	gen := in.generationAt(now)
	s := in.summary(now, gen)
	est := Estimate{
		Name:       in.cfg.Name,
		Function:   in.cfg.Function,
		Estimate:   s.mean,
		OK:         s.reporting > 0,
		Epoch:      s.epoch,
		Generation: gen,
		RelSpread:  s.spread,
		Nodes:      in.cfg.FleetSize,
		Reporting:  s.reporting,
		Slots:      in.Slots(),
	}
	switch in.cfg.Function {
	case FuncSum:
		est.Estimate = core.SumFromAverage(s.mean, float64(est.Slots))
	case FuncVariance:
		est.Estimate = core.VarianceFromMoments(s.mean, s.mean2)
		if s.spread2 > est.RelSpread {
			est.RelSpread = s.spread2
		}
		if s.reporting2 == 0 {
			est.OK = false
		}
	}
	if est.OK {
		est.Converged = est.RelSpread <= convergedSpread
		est.Confidence = 1 / (1 + est.RelSpread)
	}
	in.mu.RLock()
	lastFeed := in.lastFeed
	in.mu.RUnlock()
	if !lastFeed.IsZero() {
		// A feed is sampled at the first epoch restart after it; until
		// then the lag is still growing.
		sampled := in.schedule.StartOf(in.schedule.EpochAt(lastFeed) + 1)
		if now.Before(sampled) {
			est.FeedLagSeconds = now.Sub(lastFeed).Seconds()
		} else {
			est.FeedLagSeconds = sampled.Sub(lastFeed).Seconds()
		}
	}
	switch {
	case !s.newestOut.IsZero():
		est.StalenessSeconds = now.Sub(s.newestOut).Seconds()
	default:
		est.StalenessSeconds = now.Sub(in.createdAt).Seconds()
	}
	return est
}
