// Package cliflags centralizes the flag surface shared by the fairness
// commands (fairness, fairsim, fairsweep, fairsearch) and the fairnessd
// daemon: Monte-Carlo effort (-runs, -sup), seeding (-seed), estimator
// parallelism (-parallel), transcript capture (-trace), and the chaos
// block (-chaos-seed, -drop, -delay, -max-delay, -kill-party,
// -kill-round, -timeout) used wherever sessions run over the fallible
// transport. One registration helper means one set of defaults and one
// explicit-zero semantics (the fs.Visit idiom) instead of a copy per
// command.
package cliflags

import (
	"flag"
	"time"

	"repro/internal/faultinject"
)

// Estimation is the parsed shared estimation flag block.
type Estimation struct {
	// Runs is the Monte-Carlo run count (-runs).
	Runs int
	// Sup is the per-strategy run count for sup searches (-sup);
	// registered only when EstimationSpec.Sup is set.
	Sup int
	// Seed is the master seed (-seed).
	Seed int64
	// Parallel is the estimation worker count (-parallel); registered
	// only when EstimationSpec.Parallel is set. 0 selects one worker per
	// CPU, 1 forces sequential execution; results are identical for
	// every setting (the estimator's determinism contract).
	Parallel int
	// Trace is the JSONL transcript output path (-trace); registered
	// only when EstimationSpec.Trace is set.
	Trace string

	fs *flag.FlagSet
}

// EstimationSpec selects which shared flags a command registers, with
// the command's defaults and (optionally) command-specific help text.
// Empty usage strings select the canonical text.
type EstimationSpec struct {
	// Runs is the default for -runs (always registered).
	Runs      int
	RunsUsage string
	// Sup registers -sup with default SupRuns.
	Sup      bool
	SupRuns  int
	SupUsage string
	// Seed is the default for -seed (always registered).
	Seed      int64
	SeedUsage string
	// Parallel registers -parallel (default 0 = one worker per CPU).
	Parallel      bool
	ParallelUsage string
	// Trace registers -trace (default "").
	Trace      bool
	TraceUsage string
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// RegisterEstimation registers the shared estimation flags on fs and
// returns the struct their parsed values land in. Call fs.Parse as
// usual; afterwards Given reports which flags were explicitly set.
func RegisterEstimation(fs *flag.FlagSet, spec EstimationSpec) *Estimation {
	e := &Estimation{fs: fs}
	fs.IntVar(&e.Runs, "runs", spec.Runs,
		orDefault(spec.RunsUsage, "Monte-Carlo runs"))
	if spec.Sup {
		fs.IntVar(&e.Sup, "sup", spec.SupRuns,
			orDefault(spec.SupUsage, "per-strategy runs in sup searches"))
	}
	fs.Int64Var(&e.Seed, "seed", spec.Seed,
		orDefault(spec.SeedUsage, "random seed"))
	if spec.Parallel {
		fs.IntVar(&e.Parallel, "parallel", 0,
			orDefault(spec.ParallelUsage, "estimation workers (0 = one per CPU, 1 = sequential)"))
	}
	if spec.Trace {
		fs.StringVar(&e.Trace, "trace", "",
			orDefault(spec.TraceUsage, "write a JSONL transcript of every simulated run to this file"))
	}
	return e
}

// Given reports whether the named flag was explicitly set on the parsed
// flag set — the fs.Visit idiom every command shares, so explicit zero
// values (notably -seed 0 and -runs 0) are honored instead of being
// mistaken for "flag absent" and replaced by defaults.
func (e *Estimation) Given(name string) bool {
	given := false
	e.fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			given = true
		}
	})
	return given
}

// Search is the parsed shared best-response-search flag block used by
// fairsearch, fairsweep -sup-search, and fairnessd.
type Search struct {
	// Arms is the racing beam width (-arms, 0 = no cap).
	Arms int
	// ElimDelta is the search-wide elimination error budget (-elim-delta):
	// with probability ≥ 1−δ no elimination removed a best arm.
	ElimDelta float64
	// Checkpoint is the search checkpoint path (-search-checkpoint).
	Checkpoint string
}

// RegisterSearch registers the shared search flag block on fs with the
// canonical defaults (no beam cap, δ = 0.05, no checkpoint).
func RegisterSearch(fs *flag.FlagSet) *Search {
	s := &Search{}
	fs.IntVar(&s.Arms, "arms", 0,
		"racing beam width: admit at most this many arms by static bound (0 = all)")
	fs.Float64Var(&s.ElimDelta, "elim-delta", 0.05,
		"search-wide elimination error budget δ (racing never removes a best arm with probability ≥ 1−δ)")
	fs.StringVar(&s.Checkpoint, "search-checkpoint", "",
		"stream search records to this JSONL file, resuming if it exists")
	return s
}

// Variance is the parsed shared variance-reduction flag block used by
// fairsweep and fairsearch: the statistical levers of DESIGN.md §11.
// Both are off by default; with both off every record and report is
// byte-identical to the frozen matrices.
type Variance struct {
	// PairedSeeds enables common-random-numbers run seeding
	// (-paired-seeds): cells or racing arms share per-run coin
	// sequences, so cross-cell deltas and racing eliminations certify
	// from paired differences at far fewer runs.
	PairedSeeds bool
	// ControlVariates enables exact-residual estimation
	// (-control-variate) on cells backed by an exact law (the
	// Gordon–Katz first-hit cells).
	ControlVariates bool
}

// RegisterVariance registers the variance-reduction flag block on fs.
func RegisterVariance(fs *flag.FlagSet) *Variance {
	v := &Variance{}
	fs.BoolVar(&v.PairedSeeds, "paired-seeds", false,
		"pair run seeds across cells/arms (common random numbers): adds certified delta records, changes record bytes")
	fs.BoolVar(&v.ControlVariates, "control-variate", false,
		"estimate only the residual against exact laws where one exists (Gordon–Katz first-hit): changes record bytes")
	return v
}

// Chaos is the parsed shared chaos flag block: the seeded fault profile
// applied to transport sessions.
type Chaos struct {
	// Seed drives the deterministic fault injector (-chaos-seed).
	Seed int64
	// Drop and Delay are per-frame fault probabilities (-drop, -delay).
	Drop, Delay float64
	// MaxDelay bounds injected delays (-max-delay).
	MaxDelay time.Duration
	// KillParty and KillRound schedule a crash (-kill-party 0 = nobody).
	KillParty, KillRound int
	// Timeout is the per-frame round timeout under chaos (-timeout).
	Timeout time.Duration
}

// RegisterChaos registers the chaos flag block on fs with the canonical
// defaults (the ones examples/network established).
func RegisterChaos(fs *flag.FlagSet) *Chaos {
	c := &Chaos{}
	fs.Int64Var(&c.Seed, "chaos-seed", 1, "seed for the deterministic fault injector")
	fs.Float64Var(&c.Drop, "drop", 0, "per-frame drop probability (chaos mode)")
	fs.Float64Var(&c.Delay, "delay", 0, "per-frame delay probability (chaos mode)")
	fs.DurationVar(&c.MaxDelay, "max-delay", 5*time.Millisecond, "upper bound on injected delays")
	fs.IntVar(&c.KillParty, "kill-party", 0, "party to crash (0 = nobody)")
	fs.IntVar(&c.KillRound, "kill-round", 1, "round at which -kill-party crashes")
	fs.DurationVar(&c.Timeout, "timeout", 2*time.Second, "per-frame round timeout in chaos mode")
	return c
}

// Enabled reports whether any fault was requested.
func (c *Chaos) Enabled() bool {
	return c.Drop > 0 || c.Delay > 0 || c.KillParty > 0
}

// Injector builds the seeded random fault injector for the parsed
// profile, or nil when no fault was requested.
func (c *Chaos) Injector() (faultinject.Injector, error) {
	if !c.Enabled() {
		return nil, nil
	}
	return faultinject.NewRandom(c.Seed, faultinject.Profile{
		Drop: c.Drop, Delay: c.Delay, MaxDelay: c.MaxDelay,
		KillParty: c.KillParty, KillRound: c.KillRound,
	})
}
