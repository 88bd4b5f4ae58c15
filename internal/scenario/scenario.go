// Package scenario is the declarative adversarial-workload engine of the
// library: a Scenario scripts timed events over a run — churn waves,
// correlated crashes, flash-crowd joins, network partitions and heals,
// message-loss and delay bursts, and value dynamics that move the tracked
// aggregate while the protocol runs.
//
// One Scenario drives three executors against the same script:
//
//   - RunSim executes it on the deterministic cycle-driven engine of
//     internal/sim (partitions enforced via the engine's exchange filter,
//     epoch restarts via Engine.Restart),
//   - RunLive executes it on a fleet of real internal/agent nodes over the
//     in-memory transport, and RunUDP on the same fleet over one UDP mux
//     on loopback. One supervisor runs both: it performs each scripted
//     action on the fleet the moment the script decides it, and injects
//     partitions and loss through the transport.UDPFilter that the
//     fleet's network applies.
//
// All emit the same per-cycle metrics (estimate mean/spread/error,
// message counts, live-node count), so simulator predictions can be
// compared directly against live-runtime behaviour. A standard library of
// canned scenarios lives in Canned; cmd/aggscen lists, runs and compares
// them.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"antientropy/internal/agent"
	"antientropy/internal/core"
)

// SchemaVersion is the current scenario JSON schema version. Version 1
// is the original DSL (events only); version 2 adds the adversary and
// defense sections. Files without a version field decode as the current
// version; files declaring a newer version are rejected.
const SchemaVersion = 2

// DecodeError is the typed error strict scenario decoding returns: an
// unknown field (a typo that would otherwise silently no-op), malformed
// JSON, or an unsupported schema version.
type DecodeError struct {
	// Reason classifies the failure: "unknown-field", "syntax" or
	// "version".
	Reason string
	// Err is the underlying decoder error, when any.
	Err error
}

// Error describes the decode failure.
func (e *DecodeError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("scenario: strict decode (%s)", e.Reason)
	}
	return fmt.Sprintf("scenario: strict decode (%s): %v", e.Reason, e.Err)
}

// Unwrap exposes the underlying decoder error.
func (e *DecodeError) Unwrap() error { return e.Err }

// Kind names a scenario event type.
type Kind string

// Event kinds.
const (
	// KindCrash kills Count nodes (or Fraction of the live ones) without
	// replacement. One-shot at At unless Every/Until extend it.
	KindCrash Kind = "crash"
	// KindChurn substitutes Count nodes (or Fraction of the live ones)
	// with brand-new identities every active cycle, keeping the size
	// constant while the composition changes (§4.2 joiners sit out the
	// running epoch). Durative: defaults to the whole run from At.
	KindChurn Kind = "churn"
	// KindJoin adds Count fresh nodes (or Fraction of the initial N).
	// Joiners participate from the next epoch. One-shot at At unless
	// Every/Until extend it.
	KindJoin Kind = "join"
	// KindRestart revives Count previously crashed slots as brand-new
	// joiners. One-shot at At unless Every/Until extend it.
	KindRestart Kind = "restart"
	// KindPartition splits the live network into len(Groups) components
	// with the given relative sizes; exchanges across components are
	// dropped. Active until a KindHeal event (or Until, when set).
	KindPartition Kind = "partition"
	// KindHeal removes the active partition.
	KindHeal Kind = "heal"
	// KindLoss overrides the per-message loss probability with Rate
	// during [At, Until] (Until 0 = to the end of the run).
	KindLoss Kind = "loss"
	// KindDelay raises one-way delivery latency to [MinDelayMs,
	// MaxDelayMs] during [At, Until]. Only the live executor can inject
	// it: the cycle-driven simulator has no notion of sub-cycle time and
	// the udp executor no userspace latency on a real socket; both log
	// once that they ignore it.
	KindDelay Kind = "delay"
	// KindValueStep adds Delta to every node's local value from At on.
	KindValueStep Kind = "value-step"
	// KindValueRamp linearly drifts every node's local value by Delta in
	// total across [At, Until].
	KindValueRamp Kind = "value-ramp"
	// KindValueOscillate adds Amplitude·sin(2π·(cycle−At)/Period) to every
	// node's local value while active (Until 0 = to the end of the run).
	KindValueOscillate Kind = "value-oscillate"
)

// Event is one timed intervention of a scenario. Which fields are
// meaningful depends on Kind; Validate rejects nonsensical combinations.
type Event struct {
	// Kind selects the intervention.
	Kind Kind `json:"kind"`
	// At is the first cycle (1-based) the event applies.
	At int `json:"at"`
	// Until is the last cycle (inclusive) for durative events; 0 means
	// "one-shot" for discrete kinds (crash, join, restart) and "until the
	// end of the run" for durative ones (churn, loss, delay, oscillate).
	Until int `json:"until,omitempty"`
	// Every spaces repeated firings of discrete kinds within [At, Until]
	// (e.g. a crash wave every 5 cycles). Implies Until = end of run when
	// Until is 0.
	Every int `json:"every,omitempty"`
	// Count is the absolute number of nodes affected (crash/churn/join/
	// restart).
	Count int `json:"count,omitempty"`
	// Fraction expresses Count relative to the live population (crash,
	// churn) or the initial size (join). Ignored when Count is set.
	Fraction float64 `json:"fraction,omitempty"`
	// Groups are the relative component sizes of a partition; they are
	// normalized, so [1, 1] is an even split.
	Groups []float64 `json:"groups,omitempty"`
	// Rate is the message-loss probability of a KindLoss burst.
	Rate float64 `json:"rate,omitempty"`
	// Delta is the total value change of a step or ramp.
	Delta float64 `json:"delta,omitempty"`
	// Amplitude and Period parameterize a value oscillation.
	Amplitude float64 `json:"amplitude,omitempty"`
	Period    int     `json:"period,omitempty"`
	// MinDelayMs and MaxDelayMs bound a delay burst (live executor).
	MinDelayMs int `json:"minDelayMs,omitempty"`
	MaxDelayMs int `json:"maxDelayMs,omitempty"`
}

// durative reports whether the event spans a window by default.
func (ev Event) durative() bool {
	switch ev.Kind {
	case KindChurn, KindLoss, KindDelay, KindValueOscillate, KindValueRamp:
		return true
	default:
		return false
	}
}

// window resolves the event's active cycle range within a run of the
// given total length.
func (ev Event) window(total int) (from, to int) {
	from = ev.At
	to = ev.Until
	if to == 0 {
		if ev.durative() || ev.Every > 0 {
			to = total
		} else {
			to = ev.At
		}
	}
	return from, to
}

// activeAt reports whether the event fires at the given cycle.
func (ev Event) activeAt(cycle, total int) bool {
	from, to := ev.window(total)
	if cycle < from || cycle > to {
		return false
	}
	if ev.Every > 1 && (cycle-from)%ev.Every != 0 {
		return false
	}
	return true
}

// ValueSpec describes the distribution nodes draw their local values
// from, both at initialization and whenever a fresh identity joins.
type ValueSpec struct {
	// Kind selects the distribution: "const" (every node = Value),
	// "uniform" (uniform in [Lo, Hi)), "linear" (node i = i), or "peak"
	// (node 0 = Value, everyone else 0 — the paper's hardest case).
	// Default: "uniform" over [0, 100).
	Kind string `json:"kind,omitempty"`
	// Value is the constant (Kind "const") or the peak total (Kind
	// "peak").
	Value float64 `json:"value,omitempty"`
	// Lo and Hi bound the uniform distribution.
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
}

// Behavior names a typed Byzantine behavior of the adversary section.
type Behavior string

// Adversary behaviors (schema version 2).
const (
	// BehaviorInjectExtreme makes Byzantine nodes report huge local
	// values (Value; NaN/Inf are screened to a huge finite default), the
	// value-poisoning attack on AVERAGE: the extreme mass diffuses into
	// every honest estimate.
	BehaviorInjectExtreme Behavior = "inject-extreme"
	// BehaviorLieEstimate makes Byzantine nodes answer exchanges with a
	// fixed (Value) or amplified (Amplify × honest) estimate while their
	// local state stays honest — wire-level lying, invisible to the
	// liar's own trajectory.
	BehaviorLieEstimate Behavior = "lie-estimate"
	// BehaviorReplayStale makes Byzantine nodes answer with the estimate
	// they sealed Lag epochs ago — on the live executors the node's own
	// retained output, with its epoch tag — a replay attack the
	// epoch-synchronization rules (§4.3) already blunt on the live path.
	// A node answers honestly until it has sealed Lag outputs.
	BehaviorReplayStale Behavior = "replay-stale"
	// BehaviorSybilFlood joins Rate attacker-controlled nodes per active
	// cycle, each reporting Value — mass dilution through fake
	// identities, countered by the defense section's epoch-scoped join
	// cap.
	BehaviorSybilFlood Behavior = "sybil-flood"
)

// Adversary is one scheduled Byzantine condition: during [At, Until] a
// deterministic set of nodes (Count, or Fraction of the initial
// population, chosen once per run from the scenario seed) exhibits the
// typed Behavior. Which fields are meaningful depends on Behavior;
// Validate rejects nonsensical combinations. Requires schema version 2.
type Adversary struct {
	// Behavior selects the attack.
	Behavior Behavior `json:"behavior"`
	// At is the first cycle (1-based) the attack is active; 0 means 1.
	At int `json:"at,omitempty"`
	// Until is the last active cycle (inclusive); 0 means the end of the
	// run.
	Until int `json:"until,omitempty"`
	// Count is the absolute number of Byzantine nodes; Fraction
	// expresses it relative to the initial population when Count is 0.
	// Not used by sybil-flood (which creates its own nodes).
	Count    int     `json:"count,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	// Value is the reported scalar: the injected local value
	// (inject-extreme, default 1e12), the fixed lie (lie-estimate, when
	// Amplify is 0) or the sybil nodes' local value (sybil-flood,
	// default 0).
	Value float64 `json:"value,omitempty"`
	// Amplify, when non-zero, makes lie-estimate report Amplify × the
	// honest estimate instead of the fixed Value.
	Amplify float64 `json:"amplify,omitempty"`
	// Lag is how many epochs back replay-stale answers from (default 1,
	// at most agent.MaxOutputs = 16, the epoch outputs a node keeps).
	Lag int `json:"lag,omitempty"`
	// Rate is the sybil-flood join rate in attacker nodes per active
	// cycle.
	Rate int `json:"rate,omitempty"`
}

// window resolves the adversary's active cycle range within a run of
// the given total length.
func (a Adversary) window(total int) (from, to int) {
	from, to = a.At, a.Until
	if from < 1 {
		from = 1
	}
	if to == 0 {
		to = total
	}
	return from, to
}

// activeAt reports whether the adversary is active at the given cycle.
func (a Adversary) activeAt(cycle, total int) bool {
	from, to := a.window(total)
	return cycle >= from && cycle <= to
}

// Defense configures the cheap countermeasures paired with the
// adversary section: a pluggable merge combiner (value clamping,
// outlier rejection by median vote) and an epoch-scoped join cap.
// Requires schema version 2.
type Defense struct {
	// Combiner selects the merge policy: "mean" (undefended baseline),
	// "clamped-mean" (requires ClampMin < ClampMax), "median-of-k" or
	// "trimmed-mean". Empty keeps the classical hardcoded push-pull
	// merge.
	Combiner string `json:"combiner,omitempty"`
	// ClampMin and ClampMax bound admissible peer-reported estimates for
	// the clamped-mean combiner.
	ClampMin float64 `json:"clampMin,omitempty"`
	ClampMax float64 `json:"clampMax,omitempty"`
	// Samples is k, the per-merge sample budget of the combiner window
	// (local + current peer + k−2 recent peers). 0 selects
	// core.DefaultMergeK.
	Samples int `json:"samples,omitempty"`
	// JoinCap caps accepted joins per epoch (0 = unlimited) — the
	// sybil-flood countermeasure. Honest and attacker joins count
	// alike; over-cap joins are refused and counted.
	JoinCap int `json:"joinCap,omitempty"`
}

// Enabled reports whether the defense changes anything.
func (d Defense) Enabled() bool { return d.Combiner != "" || d.JoinCap > 0 }

// combiner resolves the configured core.Combiner (nil when Combiner is
// empty). Call on a validated scenario.
func (d Defense) combiner() (core.Combiner, error) {
	if d.Combiner == "" {
		return nil, nil
	}
	return core.CombinerByName(d.Combiner, d.ClampMin, d.ClampMax)
}

// Scenario is one declarative run description, loadable from JSON.
type Scenario struct {
	// Version is the schema version (0 = current; see SchemaVersion).
	Version int `json:"version,omitempty"`
	// Name identifies the scenario (aggscen -run NAME).
	Name string `json:"name"`
	// Description summarizes what the scenario exercises.
	Description string `json:"description,omitempty"`
	// N is the initial network size.
	N int `json:"n"`
	// Cycles is the total run length.
	Cycles int `json:"cycles"`
	// EpochLen is γ, the number of cycles per epoch: at every epoch
	// boundary the protocol restarts from the current local values
	// (§4.1) and waiting joiners become participants (§4.2). Default 30.
	EpochLen int `json:"epochLen,omitempty"`
	// Seed drives all scenario randomness (victim picks, group
	// assignment, value draws). Default 1.
	Seed uint64 `json:"seed,omitempty"`
	// Values describes the local-value distribution.
	Values ValueSpec `json:"values,omitempty"`
	// MessageLoss is the baseline per-message drop probability; KindLoss
	// events override it while active.
	MessageLoss float64 `json:"messageLoss,omitempty"`
	// LinkFailure is the baseline per-exchange drop probability P_d
	// (simulator executor only).
	LinkFailure float64 `json:"linkFailure,omitempty"`
	// ViewCapBytes caps the encoded piggybacked membership view per
	// exchange datagram, in bytes (0 = unlimited). The overlay tolerates
	// partial views (§4): a frame keeps the freshest descriptors that fit.
	// Live executors only; the cycle-driven simulator has no wire.
	ViewCapBytes int `json:"viewCapBytes,omitempty"`
	// Events are the scripted interventions, applied in order each cycle.
	Events []Event `json:"events,omitempty"`
	// Adversaries are the scheduled Byzantine conditions (version 2).
	Adversaries []Adversary `json:"adversaries,omitempty"`
	// Defense configures the countermeasures (version 2).
	Defense Defense `json:"defense,omitempty"`
}

// WithDefaults returns a copy with unset optional fields filled in.
func (s Scenario) WithDefaults() Scenario {
	if s.Version == 0 {
		s.Version = SchemaVersion
	}
	if s.EpochLen <= 0 {
		s.EpochLen = 30
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Values.Kind == "" {
		s.Values = ValueSpec{Kind: "uniform", Lo: 0, Hi: 100}
	}
	for i := range s.Adversaries {
		a := &s.Adversaries[i]
		if a.At < 1 {
			a.At = 1
		}
		switch a.Behavior {
		case BehaviorInjectExtreme:
			if a.Value == 0 || math.IsNaN(a.Value) || math.IsInf(a.Value, 0) {
				// "NaN-adjacent": huge but finite, so the undefended merge
				// arithmetic stays well-defined while the bias is massive.
				a.Value = 1e12
			}
		case BehaviorReplayStale:
			if a.Lag < 1 {
				a.Lag = 1
			}
		}
	}
	return s
}

// HasAdversary reports whether any adversary is configured.
func (s Scenario) HasAdversary() bool { return len(s.Adversaries) > 0 }

// HonestTwin returns the adversary-stripped copy of the scenario: same
// name, seed, events and defense, no Byzantine behavior. Running both
// with the same seed and engine isolates the attack's estimate bias
// (see Bias).
func (s Scenario) HonestTwin() Scenario {
	s.Adversaries = nil
	return s
}

// Validate reports the first configuration error, if any. Call on the
// WithDefaults form.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return errors.New("scenario: name is required")
	}
	if s.N < 2 {
		return fmt.Errorf("scenario %s: need at least 2 nodes, got %d", s.Name, s.N)
	}
	if s.Cycles < 1 {
		return fmt.Errorf("scenario %s: need at least 1 cycle, got %d", s.Name, s.Cycles)
	}
	if s.EpochLen < 1 {
		return fmt.Errorf("scenario %s: epoch length must be positive, got %d", s.Name, s.EpochLen)
	}
	if s.MessageLoss < 0 || s.MessageLoss >= 1 {
		return fmt.Errorf("scenario %s: message loss %g not in [0, 1)", s.Name, s.MessageLoss)
	}
	if s.ViewCapBytes < 0 {
		return fmt.Errorf("scenario %s: view cap %d bytes is negative", s.Name, s.ViewCapBytes)
	}
	if s.LinkFailure < 0 || s.LinkFailure >= 1 {
		return fmt.Errorf("scenario %s: link failure %g not in [0, 1)", s.Name, s.LinkFailure)
	}
	switch s.Values.Kind {
	case "const", "linear", "peak":
	case "uniform":
		if s.Values.Hi <= s.Values.Lo {
			return fmt.Errorf("scenario %s: uniform values need lo < hi", s.Name)
		}
	default:
		return fmt.Errorf("scenario %s: unknown value distribution %q", s.Name, s.Values.Kind)
	}
	for i, ev := range s.Events {
		if err := s.validateEvent(ev); err != nil {
			return fmt.Errorf("scenario %s: event %d: %w", s.Name, i, err)
		}
	}
	if s.Version < 1 || s.Version > SchemaVersion {
		return fmt.Errorf("scenario %s: schema version %d not in [1, %d]", s.Name, s.Version, SchemaVersion)
	}
	if s.Version < 2 && (len(s.Adversaries) > 0 || s.Defense.Enabled()) {
		return fmt.Errorf("scenario %s: adversary and defense sections require schema version 2", s.Name)
	}
	for i, a := range s.Adversaries {
		if err := s.validateAdversary(a); err != nil {
			return fmt.Errorf("scenario %s: adversary %d: %w", s.Name, i, err)
		}
	}
	if err := s.validateDefense(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.MaxSlots() > slotLimit {
		return fmt.Errorf("scenario %s: nodes, joins and sybils need more than %d node slots", s.Name, slotLimit)
	}
	return nil
}

func (s Scenario) validateAdversary(a Adversary) error {
	if a.At > s.Cycles {
		return fmt.Errorf("%s at cycle %d outside run of %d cycles", a.Behavior, a.At, s.Cycles)
	}
	if a.Until != 0 && a.Until < a.At {
		return fmt.Errorf("%s until %d before at %d", a.Behavior, a.Until, a.At)
	}
	if a.Count < 0 || a.Fraction < 0 || a.Fraction > 1 {
		return fmt.Errorf("%s needs count >= 0 and fraction in [0, 1]", a.Behavior)
	}
	switch a.Behavior {
	case BehaviorInjectExtreme, BehaviorLieEstimate, BehaviorReplayStale:
		if a.Count == 0 && a.Fraction <= 0 {
			return fmt.Errorf("%s needs count or fraction", a.Behavior)
		}
		if a.Behavior == BehaviorLieEstimate && a.Value == 0 && a.Amplify == 0 {
			return errors.New("lie-estimate needs value or amplify")
		}
		if a.Behavior == BehaviorReplayStale && (a.Lag < 1 || a.Lag > agent.MaxOutputs) {
			return fmt.Errorf("replay-stale needs lag in [1, %d], the epoch outputs a node keeps; got %d", agent.MaxOutputs, a.Lag)
		}
	case BehaviorSybilFlood:
		if a.Rate < 1 {
			return errors.New("sybil-flood needs rate >= 1")
		}
	default:
		return fmt.Errorf("unknown adversary behavior %q", a.Behavior)
	}
	return nil
}

func (s Scenario) validateDefense() error {
	d := s.Defense
	if d.Samples < 0 {
		return fmt.Errorf("defense samples %d is negative", d.Samples)
	}
	if d.JoinCap < 0 {
		return fmt.Errorf("defense join cap %d is negative", d.JoinCap)
	}
	if _, err := d.combiner(); err != nil {
		return fmt.Errorf("defense: %w", err)
	}
	return nil
}

func (s Scenario) validateEvent(ev Event) error {
	if ev.At < 1 || ev.At > s.Cycles {
		return fmt.Errorf("%s at cycle %d outside run of %d cycles", ev.Kind, ev.At, s.Cycles)
	}
	if ev.Until != 0 && ev.Until < ev.At {
		return fmt.Errorf("%s until %d before at %d", ev.Kind, ev.Until, ev.At)
	}
	if ev.Every < 0 || ev.Count < 0 {
		return fmt.Errorf("%s has negative every/count", ev.Kind)
	}
	switch ev.Kind {
	case KindCrash, KindChurn, KindJoin, KindRestart:
		if ev.Count == 0 && ev.Fraction <= 0 {
			return fmt.Errorf("%s needs count or fraction", ev.Kind)
		}
		if ev.Fraction < 0 || ev.Fraction > 1 {
			return fmt.Errorf("%s fraction %g not in [0, 1]", ev.Kind, ev.Fraction)
		}
	case KindPartition:
		if len(ev.Groups) < 2 {
			return fmt.Errorf("partition needs at least 2 groups, got %d", len(ev.Groups))
		}
		for _, w := range ev.Groups {
			if w <= 0 {
				return errors.New("partition group weights must be positive")
			}
		}
	case KindHeal:
	case KindLoss:
		if ev.Rate < 0 || ev.Rate >= 1 {
			return fmt.Errorf("loss rate %g not in [0, 1)", ev.Rate)
		}
	case KindDelay:
		if ev.MinDelayMs < 0 || ev.MaxDelayMs < ev.MinDelayMs {
			return errors.New("delay needs 0 <= minDelayMs <= maxDelayMs")
		}
	case KindValueStep, KindValueRamp:
		if ev.Delta == 0 {
			return fmt.Errorf("%s needs a non-zero delta", ev.Kind)
		}
	case KindValueOscillate:
		if ev.Amplitude == 0 || ev.Period < 2 {
			return errors.New("value-oscillate needs amplitude and period >= 2")
		}
	default:
		return fmt.Errorf("unknown event kind %q", ev.Kind)
	}
	return nil
}

// slotLimit bounds a scenario's node-slot total, far above the paper's
// 10⁶ nodes: every executor allocates slot-indexed state before the run,
// so a larger total is a malformed script, not a bigger run.
const slotLimit = 1 << 23

// MaxSlots returns the node-slot capacity the scenario needs: the initial
// size plus every join the script can perform, counted exactly as the
// script resolves them. The sum saturates at slotLimit+1, which Validate
// rejects, so no count or window can overflow it.
func (s Scenario) MaxSlots() int {
	slots := min(s.N, slotLimit+1)
	add := func(count, times int) {
		if count <= 0 || times <= 0 {
			return
		}
		if count > (slotLimit+1-slots)/times {
			slots = slotLimit + 1
			return
		}
		slots += count * times
	}
	for _, ev := range s.Events {
		if ev.Kind != KindJoin {
			continue
		}
		from, to := ev.window(s.Cycles)
		firings := 1
		if to > from {
			firings = (to-from)/max(ev.Every, 1) + 1
		}
		add(ev.resolveCount(s.N), firings)
	}
	for _, a := range s.Adversaries {
		if a.Behavior == BehaviorSybilFlood {
			from, to := a.window(s.Cycles)
			add(a.Rate, to-from+1)
		}
	}
	return slots
}

// resolveCount turns an event's Count/Fraction into an absolute node
// count against the given base population. Fractions round to nearest
// so that rescaling a scenario to a small N (aggscen -n) cannot silently
// truncate an event to nothing — "1% churn" at N=50 still churns a node
// every cycle rather than none.
func (ev Event) resolveCount(base int) int {
	if ev.Count > 0 {
		return ev.Count
	}
	return int(math.Round(ev.Fraction * float64(base)))
}

// Load reads one JSON scenario with strict (version 2) decoding:
// unknown fields anywhere in the document are a *DecodeError, not a
// silent no-op.
func Load(r io.Reader) (Scenario, error) {
	var s Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, decodeError(err)
	}
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// LoadJSON parses one JSON scenario from a byte slice with the same
// strict decoding as Load. (Before schema version 2 this path used a
// plain json.Unmarshal, so a typoed field name silently no-oped.)
func LoadJSON(data []byte) (Scenario, error) {
	return Load(bytes.NewReader(data))
}

// decodeError classifies a json decoder failure into the typed
// DecodeError strict loading returns.
func decodeError(err error) error {
	reason := "syntax"
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn), errors.As(err, &typ):
	default:
		// encoding/json reports unknown fields as a plain errorString
		// ("json: unknown field ..."), so everything that is not a syntax
		// or type error is classified by its message.
		if s := err.Error(); len(s) >= 19 && s[:19] == "json: unknown field" {
			reason = "unknown-field"
		}
	}
	return &DecodeError{Reason: reason, Err: err}
}

// JSON renders the scenario as indented JSON.
func (s Scenario) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
