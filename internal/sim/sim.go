// Package sim is the synchronous protocol-execution engine underlying all
// fairness experiments. It follows the model the paper works in (Canetti's
// synchronous MPC model with guaranteed termination):
//
//   - Parties are deterministic machines advanced in lockstep rounds and
//     connected by bilateral secure channels plus an authenticated
//     broadcast channel.
//   - The adversary is rushing: in every round it observes the honest
//     parties' messages to corrupted parties (and all broadcasts) before
//     choosing the corrupted parties' own messages.
//   - Corruption is adaptive: before any round the adversary may corrupt
//     further parties, receiving their full internal state (the machine
//     object itself).
//   - Protocols may begin with a hybrid setup phase (the paper's
//     F-hybrid model): an ideal functionality computes per-party private
//     outputs from the (possibly substituted) inputs; the adversary sees
//     the corrupted parties' setup outputs and may abort the setup,
//     modeling an abort of the unfair SFE protocol Π_GMW of phase 1.
//
// Every run is driven by a single seed, making experiments reproducible.
package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
)

// PartyID identifies a party, 1-based as in the paper (p1, p2, …, pn).
type PartyID int

// Broadcast is the pseudo-recipient for broadcast messages.
const Broadcast PartyID = 0

// Value is a protocol input or output. Implementations use comparable
// types (integers, strings, small structs); equality is checked with
// reflect.DeepEqual.
type Value any

// ValuesEqual compares two values structurally.
func ValuesEqual(a, b Value) bool { return reflect.DeepEqual(a, b) }

// Message is a round message. To == Broadcast delivers to every party and
// is visible to the adversary.
type Message struct {
	From    PartyID
	To      PartyID
	Payload any
}

// Party is one protocol machine. The engine calls Round for r = 1..R+1
// where R is the protocol's NumRounds: the extra final call delivers the
// last round's messages so the machine can finalize its output (it should
// send nothing then). A missing expected message models an abort by the
// sender; machines must handle empty inboxes per their protocol's spec.
//
// Machines must draw all randomness during construction (in NewParty):
// Round must be deterministic given the machine state and inbox, so that
// Clone yields an independent machine (clones must not share live RNG
// state with the original).
type Party interface {
	// Round consumes the messages delivered this round and returns the
	// messages to send. Errors are protocol-implementation defects, not
	// adversarial events. The returned slice may be machine-owned
	// scratch, valid only until the machine's next Round call: the
	// engine (and well-behaved adversaries) copy the messages out
	// immediately.
	Round(round int, inbox []Message) ([]Message, error)
	// Output returns the machine's final output; ok=false means ⊥.
	Output() (Value, bool)
	// Clone deep-copies the machine, enabling adversarial lookahead
	// ("would this party output if everyone else went silent?").
	Clone() Party
}

// Protocol describes a protocol to the engine.
type Protocol interface {
	// Name identifies the protocol in traces and reports.
	Name() string
	// NumParties returns n.
	NumParties() int
	// NumRounds returns the number of message rounds after setup.
	NumRounds() int
	// Func is the ideal function the protocol evaluates (single global
	// output, wlog, as in the paper).
	Func(inputs []Value) Value
	// DefaultInput is the value honest parties substitute for a party
	// that aborted (the paper's "default value").
	DefaultInput(id PartyID) Value
	// Setup runs the hybrid phase on the effective inputs, returning one
	// private output per party (index id-1), or nil if the protocol has
	// no hybrid. A protocol may return n+1 values; the extra last value
	// is hidden audit state recorded in the trace (never shown to any
	// party or the adversary). Errors are defects, not adversarial
	// aborts.
	Setup(inputs []Value, rng *rand.Rand) ([]Value, error)
	// NewParty builds party id's machine. setupOut is its private setup
	// output (nil without a hybrid); setupAborted tells the machine the
	// hybrid phase was aborted by the adversary.
	NewParty(id PartyID, input Value, setupOut Value, setupAborted bool, rng *rand.Rand) (Party, error)
}

// AdvContext gives the adversary its (worst-case environment) knowledge:
// in RPD the environment colludes with the attacker, so lower-bound
// strategies may know all inputs and the true output.
type AdvContext struct {
	Protocol   Protocol
	Inputs     []Value
	TrueOutput Value
	RNG        *rand.Rand
}

// Adversary is an attack strategy. Implementations live in package
// adversary; the zero-corruption "honest" strategy is in this package for
// engine tests.
type Adversary interface {
	// Reset prepares the strategy for a fresh run.
	Reset(ctx *AdvContext)
	// InitialCorruptions is the statically corrupted set.
	InitialCorruptions() []PartyID
	// SubstituteInput lets the adversary replace a corrupted party's
	// input before the hybrid setup runs.
	SubstituteInput(id PartyID, orig Value) Value
	// ObserveSetup shows the corrupted parties' setup outputs; returning
	// true aborts the setup phase (aborting Π_GMW).
	ObserveSetup(outputs map[PartyID]Value) bool
	// CorruptBefore may name additional parties to corrupt before the
	// given message round (adaptive corruption).
	CorruptBefore(round int) []PartyID
	// OnCorrupt hands over a newly corrupted party's machine and its
	// private setup output. machine is nil when corruption happens
	// before machines exist (initial corruption).
	OnCorrupt(id PartyID, machine Party, setupOut Value)
	// Act is the rushing step of a message round. inboxes carries the
	// messages delivered to each corrupted party this round (sent in the
	// previous round); rushed contains the honest messages addressed to
	// corrupted parties plus all honest broadcasts *of this round*,
	// which the rushing adversary sees before committing its own. The
	// return value is the corrupted parties' messages for this round.
	Act(round int, inboxes map[PartyID][]Message, rushed []Message) []Message
	// Learned reports whether the adversary's view determined the
	// evaluation output, and the value it learned. The engine verifies
	// the claim against the expected output before trusting it.
	Learned() (Value, bool)
}

// InputExtractor is an optional adversary capability: claiming to have
// extracted an honest party's private input (a privacy breach). The
// engine verifies the claim against the party's true input.
type InputExtractor interface {
	ExtractedInput() (PartyID, Value, bool)
}

// AdversaryCloner is an optional Adversary capability: producing an
// independent strategy with the same configuration but no shared mutable
// state, so the parallel estimator can hand one copy to each worker.
// Because Reset runs before every simulation, a clone only needs to
// reproduce the strategy's configuration (targets, stop rounds, wrapped
// sub-strategies), never its per-run state. CloneAdversary may return nil
// to signal that this particular instance cannot be cloned (e.g. a mixer
// wrapping a non-cloneable strategy).
type AdversaryCloner interface {
	CloneAdversary() Adversary
}

// CloneAdversary returns an independent copy of adv if the strategy
// supports cloning, and reports whether it does. Callers that receive
// ok=false must not share adv across goroutines and should fall back to
// sequential execution.
func CloneAdversary(adv Adversary) (Adversary, bool) {
	c, ok := adv.(AdversaryCloner)
	if !ok {
		return nil, false
	}
	clone := c.CloneAdversary()
	if clone == nil {
		return nil, false
	}
	return clone, true
}

// ReusableParty is an optional Party capability for the estimation hot
// path: Reinit re-initializes the machine in place for a new run of the
// same protocol, sparing the allocation of a fresh machine. A
// successful Reinit must leave the machine observably indistinguishable
// from one freshly built by Protocol.NewParty with the same arguments.
// Returning false declines (wrong setup-output shape, incompatible
// parameters); the backend then falls back to NewParty, so declining is
// always safe.
type ReusableParty interface {
	Reinit(id PartyID, input Value, setupOut Value, setupAborted bool, rng *rand.Rand) bool
}

// PartyCopier is an optional Party capability: CopyFrom overwrites the
// receiver with a deep copy of src, so lookahead strategies can reuse
// one clone machine per party instead of allocating a fresh clone per
// inspection. It returns false when src's concrete type is not the
// receiver's; callers then fall back to Clone. The same independence
// contract as Clone applies: after CopyFrom the receiver must share no
// mutable state with src.
type PartyCopier interface {
	CopyFrom(src Party) bool
}

// ScratchSetupProtocol is an optional Protocol capability for the
// estimation hot path: NewSetupScratch returns a setup evaluator that
// the engine uses in place of Protocol.Setup for every run of one
// Execution. The evaluator may reuse internal buffers — the engine
// treats the returned slice and its values as valid only until the next
// setup call on the same Execution (parties copy what they keep, and
// adversaries may hold setup outputs only for the duration of the run).
// It must be semantically identical to Setup: same outputs, same
// randomness consumption, same errors.
type ScratchSetupProtocol interface {
	NewSetupScratch() func(inputs []Value, rng *rand.Rand) ([]Value, error)
}

// AuditedParty is an optional Party capability: exposing protocol-
// internal audit data (e.g. "last iteration with a valid share") that the
// trace records for honest parties. Audit data never reaches the
// adversary; it exists so a LearnedAuditor can reconstruct ideal-world
// events that the message transcript alone cannot pin down.
type AuditedParty interface {
	AuditInfo() Value
}

// OutcomeAudit is a protocol-issued override of the trace's default
// event bookkeeping (see OutcomeAuditor).
type OutcomeAudit struct {
	// Learned: the adversary's view genuinely determined the output.
	Learned bool
	// LearnedValue is the learned output when Learned.
	LearnedValue Value
	// Delivered: every honest party received a simulatable output (the
	// real one, or the default-input evaluation).
	Delivered bool
	// RandomReplaced: an honest output was replaced by a draw from the
	// F_sfe^$ distribution (the randomized-abort event of Appendix C.2).
	RandomReplaced bool
}

// OutcomeAuditor is an optional Protocol capability overriding the
// engine's default value-equality bookkeeping with hybrid-internal
// knowledge. The Gordon–Katz protocols need it twice over: an adversary
// aborting before the switch round i* may hold a value that coincides
// with the real output without having learned anything, and for small-
// range functions an honest party's random replacement may coincide with
// the real or defaulted output without being a delivery. AuditOutcome
// inspects the finished trace (including SetupAudit and HonestAudits).
type OutcomeAuditor interface {
	AuditOutcome(tr *Trace) OutcomeAudit
}

// SetupAbortPolicy is an optional Protocol capability restricting the
// adversary's power to abort the hybrid setup. Robust honest-majority
// hybrids (e.g. the fully secure Π_GMW^{1/2} of Lemma 17) guarantee
// output delivery below their corruption threshold, so an abort request
// from a small coalition simply has no effect.
type SetupAbortPolicy interface {
	// SetupAbortable reports whether a coalition of the given size can
	// abort the setup phase.
	SetupAbortable(corrupted int) bool
}

// OutputRecord is one honest party's final output.
type OutputRecord struct {
	Value Value
	OK    bool // false = ⊥
}

// FailStopInfo records one fail-stop abort: an honest party that stopped
// participating because of an unrecoverable infrastructure failure (a
// crashed client, an exhausted reconnect budget). The engine degrades
// the failure into the model's abort adversary — the party falls silent
// and surviving honest parties substitute its default input — so the
// fairness machinery prices real faults exactly like adversarial aborts
// instead of erroring out.
type FailStopInfo struct {
	// Round is the wire round the failure was detected in (0 = during
	// the setup phase).
	Round int
	// Cause is a canonical, deterministic description of the failure
	// ("connection lost; no resume within 150ms", …).
	Cause string
}

// Trace records everything the fairness classifier needs about one run.
type Trace struct {
	ProtocolName string
	// Inputs are the environment-chosen inputs; EffectiveInputs reflect
	// adversarial substitution of corrupted parties' inputs at setup.
	Inputs          []Value
	EffectiveInputs []Value
	// ExpectedOutput is the output the ideal functionality would deliver
	// given the effective inputs (or, after a setup abort, the honest
	// inputs with defaults substituted for corrupted parties).
	ExpectedOutput Value
	// DefaultedOutput is f on the honest inputs with the protocol's
	// default inputs substituted for every corrupted party: the output an
	// honest party computes locally after detecting a mid-protocol abort
	// (the paper's "takes a default value as the input of the corrupted
	// party"). Delivering it corresponds to the simulator sending the
	// default input to the functionality — event E01.
	DefaultedOutput Value
	// HybridOutput is f on the inputs the hybrid setup actually ran on
	// (the effective inputs before any abort-triggered default
	// substitution) — the value an adversary could have learned from the
	// hybrid even if it subsequently aborted the setup.
	HybridOutput Value
	// SetupAudit is the hidden audit state a Setup may emit (the n+1-th
	// return value); nil otherwise.
	SetupAudit Value
	// Audit is the protocol's OutcomeAudit override, when the protocol
	// implements OutcomeAuditor; nil otherwise.
	Audit *OutcomeAudit
	// HonestAudits collects AuditInfo() from honest machines that
	// implement AuditedParty.
	HonestAudits  map[PartyID]Value
	SetupAborted  bool
	Corrupted     map[PartyID]bool
	HonestOutputs map[PartyID]OutputRecord
	// FailStops records parties converted into fail-stop aborts by
	// infrastructure failures (nil when none occurred). Fail-stopped
	// parties are neither corrupted nor honest: they produce no output,
	// and the classifier counts them as abort-adversary corruptions.
	FailStops map[PartyID]FailStopInfo
	// AdvLearned is the engine-verified flag that the adversary's view
	// determined the output; AdvValue is the learned value.
	AdvLearned bool
	AdvValue   Value
	// PrivacyBreach is set when the adversary demonstrably extracted an
	// honest party's input (claim verified against the true input).
	PrivacyBreach bool
	// BreachedParty is the victim when PrivacyBreach is set.
	BreachedParty PartyID
	// RoundsRun counts executed message rounds (including the finalize
	// call).
	RoundsRun int
}

// NumCorrupted returns t, the corruption count.
func (tr *Trace) NumCorrupted() int { return len(tr.Corrupted) }

// FailStopped reports whether party id fail-stopped during the run.
func (tr *Trace) FailStopped(id PartyID) bool {
	_, ok := tr.FailStops[id]
	return ok
}

// NumDeviating returns the number of parties that deviated from the
// protocol: corrupted by the adversary or fail-stopped by an
// infrastructure failure. This is the effective t the fail-stop-to-abort
// degradation prices runs with — a crashed party is indistinguishable
// from a corrupted party that aborted at the same round.
func (tr *Trace) NumDeviating() int {
	n := len(tr.Corrupted)
	for id := range tr.FailStops {
		if !tr.Corrupted[id] {
			n++
		}
	}
	return n
}

// AllHonestDelivered reports whether every honest party produced a
// simulatable output: either all got the expected output, or all got the
// defaulted output (the local re-computation after a detected abort).
// With no honest parties it is vacuously true.
func (tr *Trace) AllHonestDelivered() bool {
	if tr.Audit != nil {
		return tr.Audit.Delivered
	}
	expected, defaulted := true, true
	for _, rec := range tr.HonestOutputs {
		if !rec.OK {
			return false
		}
		if !ValuesEqual(rec.Value, tr.ExpectedOutput) {
			expected = false
		}
		if !ValuesEqual(rec.Value, tr.DefaultedOutput) {
			defaulted = false
		}
	}
	return expected || defaulted
}

// AnyHonestWrong reports whether some honest party output a non-⊥ value
// that is neither the expected nor the defaulted output — a correctness
// violation (possible only for the Gordon–Katz-style protocols).
func (tr *Trace) AnyHonestWrong() bool {
	if tr.Audit != nil {
		return tr.Audit.RandomReplaced
	}
	for _, rec := range tr.HonestOutputs {
		if rec.OK && !ValuesEqual(rec.Value, tr.ExpectedOutput) &&
			!ValuesEqual(rec.Value, tr.DefaultedOutput) {
			return true
		}
	}
	return false
}

// Errors returned by Run.
var (
	ErrInputCount = errors.New("sim: wrong number of inputs")
	ErrBadParty   = errors.New("sim: corruption of unknown party")
)

// Run executes one protocol instance against the adversary with the given
// seed and returns the trace. It is a thin wrapper over the stepwise
// Execution engine (NewExecution → SetupPhase → Step → Finalize); callers
// that need per-round control or the engine's event stream use Execution
// and Observer directly.
func Run(proto Protocol, inputs []Value, adv Adversary, seed int64) (*Trace, error) {
	return RunObserved(proto, inputs, adv, seed)
}

// RunObserved is Run with the engine's event stream fanned out to the
// given observers (see the ordering contract on Observer).
func RunObserved(proto Protocol, inputs []Value, adv Adversary, seed int64, obs ...Observer) (*Trace, error) {
	e, err := NewExecution(proto, inputs, adv, seed, obs...)
	if err != nil {
		return nil, err
	}
	if err := e.SetupPhase(); err != nil {
		return nil, err
	}
	for r := 1; r <= e.TotalRounds(); r++ {
		if err := e.Step(r); err != nil {
			return nil, err
		}
	}
	return e.Finalize()
}

func sortStableBySender(ms []Message) {
	slices.SortStableFunc(ms, func(a, b Message) int { return int(a.From) - int(b.From) })
}
