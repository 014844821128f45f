package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/sim"
	"repro/internal/stats"
)

// InputSampler draws one input vector per run — it plays the role of the
// environment Z choosing inputs. Lower-bound experiments use the input
// distribution from the corresponding proof (the least favorable
// environment of Equation 2).
type InputSampler func(r *rand.Rand) []sim.Value

// FixedInputs returns a sampler that always produces the given vector.
func FixedInputs(vals ...sim.Value) InputSampler {
	return func(*rand.Rand) []sim.Value { return append([]sim.Value(nil), vals...) }
}

// InputSamplerInto is the allocation-free variant of InputSampler for
// the estimator hot path: it appends one run's input vector to
// dst (length 0, engine-owned capacity) and returns the filled slice.
// Installed with WithSamplerInto, it replaces the positional sampler;
// the estimate is unchanged exactly when it draws from r identically to
// the sampler it replaces.
type InputSamplerInto func(r *rand.Rand, dst []sim.Value) []sim.Value

// FixedInputsInto is the InputSamplerInto form of FixedInputs.
func FixedInputsInto(vals ...sim.Value) InputSamplerInto {
	return func(_ *rand.Rand, dst []sim.Value) []sim.Value { return append(dst, vals...) }
}

// ErrNoRuns is returned when a utility estimate is requested with runs<=0.
var ErrNoRuns = errors.New("core: need at least one run")

// MaxRounds bounds the message rounds of a protocol built from a request
// (the service registry, sweep grids). Simulation and strategy-space
// size grow with the round count, and the Gordon–Katz protocols' round
// count grows with p (4p for poly-domain AND, 4p² for poly-range AND),
// so an unbounded p in a short request could exhaust the host. The
// largest p the experiments use is 8.
const MaxRounds = 1024

// CheckRounds rejects a protocol with more than MaxRounds message rounds.
func CheckRounds(p sim.Protocol) error {
	if r := p.NumRounds(); r > MaxRounds {
		return fmt.Errorf("protocol %s has %d message rounds, above the bound of %d", p.Name(), r, MaxRounds)
	}
	return nil
}

// UtilityReport summarizes a Monte-Carlo utility estimation.
type UtilityReport struct {
	// Utility estimates u_A(Π, A) = Σ γ_ij · Pr[E_ij].
	Utility stats.Estimate
	// EventFreq holds the empirical Pr[E_ij].
	EventFreq map[Event]float64
	// CorrectnessViolations is the fraction of runs in which an honest
	// party output a wrong value.
	CorrectnessViolations float64
	// PrivacyBreaches is the fraction of runs with a verified input
	// extraction.
	PrivacyBreaches float64
	// MeanCorrupted is the average number of corrupted parties.
	MeanCorrupted float64
	// Runs is the sample count.
	Runs int
	// Metrics aggregates the engine's event counters over every run
	// (rounds stepped, messages committed, corruptions, setup aborts),
	// merged across the estimation workers.
	Metrics sim.Metrics
}

// String renders the report compactly.
func (r UtilityReport) String() string {
	return fmt.Sprintf("u=%s events[E00=%.3f E01=%.3f E10=%.3f E11=%.3f]",
		r.Utility, r.EventFreq[E00], r.EventFreq[E01], r.EventFreq[E10], r.EventFreq[E11])
}

// DefaultParallelism is the worker count used when no parallelism has
// been requested (or a non-positive one): one worker per available CPU.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// ObserverFactory builds a per-run engine observer; the estimator calls
// it once per run (with the run index) and attaches the result to that
// run's execution. A nil factory, or a nil observer for a given run,
// attaches nothing. The factory may be called from multiple estimation
// workers concurrently and must be safe for that; the observers it
// returns are each used by exactly one run. The observed trace is
// engine-owned and valid only for the duration of the callback (see
// sim.Observer).
type ObserverFactory func(run int) sim.Observer

// SupObserverFactory builds a per-run observer for a sup-search, keyed by
// the strategy label and run index. Same contract as ObserverFactory.
type SupObserverFactory func(strategy string, run int) sim.Observer

// NamedAdversary pairs a strategy with a label for sup-utility searches.
type NamedAdversary struct {
	Name string
	Adv  sim.Adversary
}

// SupReport is the result of a sup-utility search over a strategy space.
type SupReport struct {
	// Best is the label of the utility-maximizing strategy.
	Best string
	// BestReport is its utility report.
	BestReport UtilityReport
	// All holds every strategy's report, keyed by label.
	All map[string]UtilityReport
	// Metrics sums the engine counters over every strategy's estimation.
	Metrics sim.Metrics
}

// Relation is the outcome of comparing two protocols' sup-utilities under
// the relative-fairness relation of Definition 1.
type Relation int

// Comparison outcomes. AtLeastAsFair(A,B) means Π_A ⪰γ Π_B.
const (
	// StrictlyFairer: Π_A's best attacker earns noticeably less.
	StrictlyFairer Relation = iota + 1
	// EquallyFair: the sup-utilities agree within tolerance.
	EquallyFair
	// StrictlyLessFair: Π_A's best attacker earns noticeably more.
	StrictlyLessFair
)

// String names the relation.
func (r Relation) String() string {
	switch r {
	case StrictlyFairer:
		return "strictly fairer"
	case EquallyFair:
		return "equally fair"
	case StrictlyLessFair:
		return "strictly less fair"
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// Compare orders protocol A versus protocol B by their estimated
// sup-utilities with tolerance tol (the empirical stand-in for the
// negligible slack in Definition 1).
func Compare(supA, supB stats.Estimate, tol float64) Relation {
	switch {
	case supA.Mean < supB.Mean-tol:
		return StrictlyFairer
	case supA.Mean > supB.Mean+tol:
		return StrictlyLessFair
	default:
		return EquallyFair
	}
}

// AtLeastAsFair reports Π_A ⪰γ Π_B: sup u(Π_A) ≤ sup u(Π_B) + tol.
func AtLeastAsFair(supA, supB stats.Estimate, tol float64) bool {
	return Compare(supA, supB, tol) != StrictlyLessFair
}
