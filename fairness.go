// Package fairness is a Go implementation of utility-based protocol
// fairness from "How Fair is Your Protocol? A Utility-based Approach to
// Protocol Optimality" (Garay, Katz, Tackmann, Zikas — PODC 2015).
//
// The library provides:
//
//   - a synchronous protocol-execution engine with rushing, adaptively
//     corrupting adversaries and hybrid setup phases (sub-package
//     internal/sim, surfaced here through type aliases);
//   - the paper's utility machinery: payoff vectors ~γ over the fairness
//     events E00/E01/E10/E11, Monte-Carlo estimation of the attacker
//     utility u_A(Π, A), the relative-fairness relation, optimal and
//     utility-balanced fairness, and corruption costs;
//   - the paper's protocols: the contract-signing pair Π1/Π2, the
//     optimally fair ΠOpt-2SFE and ΠOpt-nSFE, the honest-majority
//     Π_GMW^{1/2}, the Lemma 18 and Π0 separation protocols, and the
//     Gordon–Katz 1/p-secure protocols with the leaky Π̃;
//   - an attack-strategy library including the proof-optimal
//     lock-and-abort adversaries; and
//   - the experiment harness regenerating every theorem/lemma of the
//     paper as a paper-vs-measured table (cmd/fairness).
//
// Quick start — measure how fair a protocol is:
//
//	gamma := fairness.StandardPayoff()
//	proto := fairness.NewOptimalTwoParty(fairness.Swap())
//	report, err := fairness.EstimateUtility(proto,
//	    fairness.NewAgen(), gamma, sampler, 2000, 1)
//	// report.Utility ≈ (γ10+γ11)/2 — the Theorem 3/4 optimum.
package fairness

import (
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/protocols/contract"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/protocols/multiparty"
	"repro/internal/protocols/twoparty"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/sim/trace"
	"repro/internal/stats"
)

// Core model types.
type (
	// Payoff is the vector ~γ = (γ00, γ01, γ10, γ11).
	Payoff = core.Payoff
	// Event is one of the fairness events E00/E01/E10/E11.
	Event = core.Event
	// Outcome is the ideal-world interpretation of one execution.
	Outcome = core.Outcome
	// UtilityReport summarizes a Monte-Carlo utility estimation.
	UtilityReport = core.UtilityReport
	// SupReport is the result of a sup-utility search.
	SupReport = core.SupReport
	// NamedAdversary pairs a strategy with a label.
	NamedAdversary = core.NamedAdversary
	// StrategySpace is a lazily enumerable strategy space — the domain
	// of the Definition 1 sup as SupUtilitySpace and the best-response
	// search engine see it.
	StrategySpace = core.StrategySpace
	// SliceSpace adapts an eager []NamedAdversary to StrategySpace.
	SliceSpace = core.SliceSpace
	// BoundedSpace is a StrategySpace with static per-strategy utility
	// upper bounds for branch-and-bound pruning.
	BoundedSpace = core.BoundedSpace
	// InputSampler draws one input vector per run (the environment Z).
	InputSampler = core.InputSampler
	// InputSamplerInto is the allocation-free InputSampler variant used
	// with WithSamplerInto.
	InputSamplerInto = core.InputSamplerInto
	// EstimatorOption configures EstimateUtility / SupUtility
	// (parallelism, observers, in-place sampler). Options tune
	// scheduling and instrumentation only — the estimate is a pure
	// function of (runs, seed).
	EstimatorOption = core.Option
	// ObserverFactory builds one engine observer per estimation run.
	ObserverFactory = core.ObserverFactory
	// SupObserverFactory builds per-run observers keyed by strategy label.
	SupObserverFactory = core.SupObserverFactory
	// Relation orders two protocols under Definition 1.
	Relation = core.Relation
	// PerTUtilities holds best t-adversary utilities for t = 1..n−1.
	PerTUtilities = core.PerTUtilities
	// CostFn is a symmetric corruption-cost function.
	CostFn = core.CostFn
	// Estimate is a Monte-Carlo mean with confidence interval.
	Estimate = stats.Estimate
)

// Engine types.
type (
	// Protocol is a synchronous protocol runnable by the engine.
	Protocol = sim.Protocol
	// Party is one protocol machine.
	Party = sim.Party
	// Adversary is an attack strategy.
	Adversary = sim.Adversary
	// AdversaryCloner is the optional capability the parallel estimator
	// uses to give each worker an independent strategy copy.
	AdversaryCloner = sim.AdversaryCloner
	// Message is a round message.
	Message = sim.Message
	// PartyID identifies a party (1-based).
	PartyID = sim.PartyID
	// Value is a protocol input or output.
	Value = sim.Value
	// Trace records one execution.
	Trace = sim.Trace
	// Passive is the no-corruption adversary.
	Passive = sim.Passive
	// OutputRecord is one party's final output (value, ⊥ flag).
	OutputRecord = sim.OutputRecord
	// Observer receives the engine's event stream during an execution.
	Observer = sim.Observer
	// NopObserver is an embeddable all-no-op Observer.
	NopObserver = sim.NopObserver
	// EngineMetrics counts engine events (runs, rounds, messages, …).
	EngineMetrics = sim.Metrics
	// Execution is one protocol run decomposed into callable phases
	// (SetupPhase, Step, Finalize).
	Execution = sim.Execution
)

// Events.
const (
	E00 = core.E00
	E01 = core.E01
	E10 = core.E10
	E11 = core.E11
)

// Fairness relations.
const (
	StrictlyFairer   = core.StrictlyFairer
	EquallyFair      = core.EquallyFair
	StrictlyLessFair = core.StrictlyLessFair
)

// Payoff vectors.
var (
	// StandardPayoff is ~γ = (0, 0, 1, 1/2) ∈ Γ+fair.
	StandardPayoff = core.StandardPayoff
	// GordonKatzPayoff is ~γ = (0, 0, 1, 0) from Section 5.
	GordonKatzPayoff = core.GordonKatzPayoff
)

// Execution and measurement.
var (
	// Run executes one protocol instance against an adversary, with
	// optional engine observers.
	Run = sim.Run
	// NewExecution opens a stepwise execution (SetupPhase/Step/Finalize).
	NewExecution = sim.NewExecution
	// Classify maps a trace to its ideal-world outcome.
	Classify = core.Classify
	// EstimateUtility measures u_A(Π, A) by Monte-Carlo simulation on
	// the batched estimation engine. Configure it with options:
	//
	//	fairness.EstimateUtility(proto, adv, gamma, sampler, runs, seed,
	//	    fairness.WithParallelism(4), fairness.WithObserver(factory))
	//
	// The report is bit-identical for any option combination (see the
	// determinism contract in internal/core).
	EstimateUtility = core.EstimateUtility
	// SupUtility approximates sup_A u_A(Π, A) over an eager strategy
	// slice; it is the documented one-line adapter over SupUtilitySpace
	// via SliceSpace and takes the same options as EstimateUtility.
	SupUtility = core.SupUtility
	// SupUtilitySpace approximates sup_A u_A(Π, A) over a StrategySpace
	// by exhaustive enumeration (use Search for racing elimination).
	SupUtilitySpace = core.SupUtilitySpace
	// WithParallelism sets the estimation worker count (<= 0 selects
	// DefaultParallelism).
	WithParallelism = core.WithParallelism
	// WithObserver attaches a per-run engine observer factory.
	WithObserver = core.WithObserver
	// WithSupObserver attaches per-run observers keyed by strategy label.
	WithSupObserver = core.WithSupObserver
	// WithSamplerInto installs an allocation-free input sampler that
	// refills engine-owned buffers instead of allocating per run.
	WithSamplerInto = core.WithSamplerInto
	// DefaultParallelism is the worker count used for parallelism <= 0.
	DefaultParallelism = core.DefaultParallelism
	// CloneAdversary copies a strategy for an estimation worker.
	CloneAdversary = sim.CloneAdversary
	// NewAdversaryFactory adapts a constructor function into a cloneable
	// strategy for the parallel estimator.
	NewAdversaryFactory = adversary.NewFactory
	// Compare orders two sup-utilities under Definition 1.
	Compare = core.Compare
	// AtLeastAsFair is the ⪰γ relation.
	AtLeastAsFair = core.AtLeastAsFair
	// FixedInputs builds a constant input sampler.
	FixedInputs = core.FixedInputs
)

// Closed-form bounds.
var (
	TwoPartyOptimalBound   = core.TwoPartyOptimalBound
	MultiPartyTBound       = core.MultiPartyTBound
	MultiPartyOptimalBound = core.MultiPartyOptimalBound
	BalancedSumBound       = core.BalancedSumBound
	GordonKatzBound        = core.GordonKatzBound
	IdealBound             = core.IdealBound
)

// Balance and corruption costs.
var (
	IsUtilityBalanced = core.IsUtilityBalanced
	IsPhiFair         = core.IsPhiFair
	IsIdeallyCFair    = core.IsIdeallyCFair
	OptimalCost       = core.OptimalCost
	ZeroCost          = core.ZeroCost
	LinearCost        = core.LinearCost
	Dominates         = core.Dominates
	StrictlyDominates = core.StrictlyDominates
)

// Adversary strategies.
var (
	// NewStatic corrupts a fixed set and runs it honestly.
	NewStatic = adversary.NewStatic
	// NewLockAbort is the A1/A2/A_ī lock-and-abort family.
	NewLockAbort = adversary.NewLockAbort
	// NewAllBut corrupts everyone except one party.
	NewAllBut = adversary.NewAllBut
	// NewAgen is the Theorem 4 mixed adversary.
	NewAgen = adversary.NewAgen
	// NewAllButMixer is the Lemma 13 mixed adversary.
	NewAllButMixer = adversary.NewAllButMixer
	// NewAbortAt aborts at a fixed round.
	NewAbortAt = adversary.NewAbortAt
	// NewSetupAbort aborts the hybrid setup.
	NewSetupAbort = adversary.NewSetupAbort
	// TwoPartySpace is the standard two-party strategy space.
	TwoPartySpace = adversary.TwoPartySpace
	// MultiPartyTSpace is the t-adversary strategy space.
	MultiPartyTSpace = adversary.MultiPartyTSpace
	// MultiPartySpace is the full multi-party strategy space.
	MultiPartySpace = adversary.MultiPartySpace
	// NewRawTwoParty is the raw two-party BoundedSpace (corrupted set ×
	// abort round × input substitution) the search engine races over.
	NewRawTwoParty = adversary.NewRawTwoParty
	// WithSubstitutions adds an input-substitution axis to NewRawTwoParty.
	WithSubstitutions = adversary.WithSubstitutions
	// WithFirstHit adds a protocol-specific first-hit arm to
	// NewRawTwoParty (e.g. fairness.NewFirstHit for Gordon–Katz).
	WithFirstHit = adversary.WithFirstHit
)

// Best-response search (racing + branch-and-bound over strategy
// spaces; see internal/search and DESIGN.md §9).
type (
	// SearchOptions tunes the racing schedule (wave sizes, elimination
	// confidence δ, beam width, checkpoint path).
	SearchOptions = search.Options
	// SearchReport is a search outcome: the certified best response,
	// per-arm results, and the run-savings accounting.
	SearchReport = search.Report
	// SearchArm is one strategy's fate inside a search.
	SearchArm = search.ArmResult
	// RawSpaceOption configures NewRawTwoParty.
	RawSpaceOption = adversary.RawOption
)

var (
	// Search races a StrategySpace to its best response, certifying the
	// winner at full resolution while eliminating dominated arms early.
	Search = search.Run
	// SearchContext is Search with cancellation.
	SearchContext = search.RunContext
)

// Two-party protocols.
type (
	// TwoPartyFunction describes a two-party function for ΠOpt-2SFE.
	TwoPartyFunction = twoparty.Function
)

var (
	// NewOptimalTwoParty is ΠOpt-2SFE (Section 4.1).
	NewOptimalTwoParty = twoparty.New
	// NewFixedOrderTwoParty is the unfair fixed-order baseline.
	NewFixedOrderTwoParty = twoparty.NewFixedOrder
	// NewOneRoundTwoParty is the Lemma 10 single-round strawman.
	NewOneRoundTwoParty = twoparty.NewOneRound
	// Swap is the paper's swap function f_swp.
	Swap = twoparty.Swap
	// Millionaires is [x1 > x2].
	Millionaires = twoparty.Millionaires
)

// Contract signing (Introduction).
type (
	// Pi1 is the naive contract-signing protocol.
	Pi1 = contract.Pi1
	// Pi2 is the coin-toss-ordered variant.
	Pi2 = contract.Pi2
	// ContractPair is the protocols' global output.
	ContractPair = contract.Pair
)

// Multi-party protocols.
type (
	// MultiPartyFunction describes an n-party function.
	MultiPartyFunction = multiparty.Function
)

var (
	// NewOptimalMultiParty is ΠOpt-nSFE (Section 4.2).
	NewOptimalMultiParty = multiparty.NewOptN
	// NewGMWHalf is the honest-majority Π_GMW^{1/2} (Lemma 17).
	NewGMWHalf = multiparty.NewGMWHalf
	// NewLemma18 is the optimal-but-unbalanced protocol of Lemma 18.
	NewLemma18 = multiparty.NewLemma18
	// NewHybridPi0 is the balanced-but-suboptimal Π0 (Appendix B.1).
	NewHybridPi0 = multiparty.NewHybrid
	// Concat is the concatenation function of Lemmas 12–16.
	Concat = multiparty.Concat
	// MaxFn is max(x1..xn) (auction example).
	MaxFn = multiparty.Max
	// SumFn is Σ x_i.
	SumFn = multiparty.Sum
)

// Gordon–Katz partial fairness (Section 5).
var (
	// NewPolyDomain is the [GK10] §3.2 protocol.
	NewPolyDomain = gordonkatz.NewPolyDomain
	// NewPolyRange is the [GK10] §3.3 protocol.
	NewPolyRange = gordonkatz.NewPolyRange
	// NewPitilde is the leaky protocol Π̃ (Appendix C.5).
	NewPitilde = gordonkatz.NewPitilde
	// NewGKMultiParty is the Beimel-et-al-style n-party 1/p protocol.
	NewGKMultiParty = gordonkatz.NewMultiParty
	// ANDnFunction is the n-way conjunction for the multi-party protocol.
	ANDnFunction = gordonkatz.ANDn
	// NewLeakExtractor is the Lemma 26 input-extraction attack.
	NewLeakExtractor = gordonkatz.NewLeakExtractor
	// NewFirstHit is the exact Gordon–Katz round-guessing attacker.
	NewFirstHit = gordonkatz.NewFirstHit
	// ANDFunction is the boolean conjunction with explicit domains.
	ANDFunction = gordonkatz.AND
)

// Experiments (the paper-vs-measured harness behind cmd/fairness).
type (
	// ExperimentConfig controls Monte-Carlo effort.
	ExperimentConfig = experiments.Config
	// ExperimentResult is one experiment's table.
	ExperimentResult = experiments.Result
)

var (
	// RunAllExperiments executes E01..E15.
	RunAllExperiments = experiments.RunAll
	// Experiments lists the individual experiments.
	Experiments = experiments.All
	// DefaultExperimentConfig is the EXPERIMENTS.md configuration.
	DefaultExperimentConfig = experiments.DefaultConfig
	// QuickExperimentConfig is the fast smoke-test configuration.
	QuickExperimentConfig = experiments.QuickConfig
)

// Structured transcripts (JSONL serializations of the observer stream).
type (
	// TraceLine is one transcript event.
	TraceLine = trace.Line
	// TraceMeta labels a transcript recorder's lines.
	TraceMeta = trace.Meta
	// TraceRecorder buffers one run's transcript.
	TraceRecorder = trace.Recorder
	// TraceSink multiplexes concurrent runs into one JSONL stream.
	TraceSink = trace.Sink
)

var (
	// NewTraceRecorder builds a standalone one-run transcript recorder.
	NewTraceRecorder = trace.NewRecorder
	// NewTraceSink wraps a writer in a JSONL transcript sink.
	NewTraceSink = trace.NewSink
	// ParseTranscript reads a JSONL transcript back into lines.
	ParseTranscript = trace.Parse
	// FormatTraceLine renders one transcript line for humans.
	FormatTraceLine = trace.FormatLine
	// PrintTranscript pretty-prints a JSONL transcript stream.
	PrintTranscript = trace.Fprint
)
