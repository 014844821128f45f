// Package cliflags centralizes the flag surface shared by the fairness
// commands (fairness, fairsim, fairsweep, fairsearch) and the fairnessd
// daemon: Monte-Carlo effort (-runs, -sup), seeding (-seed), estimator
// parallelism (-parallel), transcript capture (-trace), and the search
// block. One registration helper means one set of defaults and one
// explicit-zero semantics (the fs.Visit idiom) instead of a copy per
// command.
package cliflags

import "flag"

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

// Search is the parsed best-response-search flag block of fairsearch.
type Search struct {
	// Arms is the racing beam width (-arms, 0 = no cap).
	Arms int
	// ElimDelta is the search-wide elimination error budget (-elim-delta):
	// with probability ≥ 1−δ no elimination removed a best arm.
	ElimDelta float64
	// Checkpoint is the search checkpoint path (-search-checkpoint).
	Checkpoint string
}

// RegisterSearch registers the search flag block on fs with the
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
