// Package experiments regenerates every quantitative claim of the paper
// as a paper-vs-measured table. The paper has no numbered tables or
// figures — its evaluation is the set of theorems and lemmas that pin
// down exact attacker utilities — so each experiment corresponds to one
// such result (see DESIGN.md §3 for the index).
//
// All experiments are deterministic given (Runs, Seed) and share a
// Γ+fair payoff vector; E11/E12 use the Section 5 vector (0,0,1,0).
package experiments

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/sim"
	"repro/internal/sim/trace"
)

// Config controls the Monte-Carlo effort.
type Config struct {
	// Runs is the number of simulated executions per measurement.
	Runs int
	// SupRuns is the per-strategy run count inside sup-searches (smaller,
	// since a whole space is swept).
	SupRuns int
	// Seed drives all randomness.
	Seed int64
	// Gamma is the payoff vector for the Γ+fair experiments.
	Gamma core.Payoff
	// Tolerance widens the paper-vs-measured comparison (sampling slack).
	Tolerance float64
	// Parallelism is the worker count for RunAll and for every estimate
	// inside the experiments: 0 selects core.DefaultParallelism (one
	// worker per CPU), 1 forces sequential execution. Results are
	// identical either way — see the determinism contract on
	// core.EstimateUtility.
	Parallelism int
	// Trace, when non-nil, receives a JSONL transcript of every simulated
	// run made through this config (labeled with run indices and, inside
	// sup-searches, strategy names).
	Trace *trace.Sink

	// metrics, installed by Experiment.Measure, accumulates the engine
	// metrics of every measurement one experiment makes. An experiment
	// measures sequentially, so it needs no lock.
	metrics *sim.Metrics
}

// DefaultConfig is the configuration used for EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		Runs:      2000,
		SupRuns:   400,
		Seed:      20150302, // the paper's revision date
		Gamma:     core.StandardPayoff(),
		Tolerance: 0.05,
	}
}

// QuickConfig is a fast configuration for benchmarks and smoke tests.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Runs = 200
	cfg.SupRuns = 80
	cfg.Tolerance = 0.12
	// A fixed worker count (not DefaultParallelism) so that tests exercise
	// the worker pool even on single-CPU hosts.
	cfg.Parallelism = 4
	return cfg
}

// estimate is core.EstimateUtility at the configured parallelism; every
// experiment goes through it so -parallel, the metrics collector, and
// the transcript sink reach each measurement.
func (c Config) estimate(proto sim.Protocol, adv sim.Adversary, g core.Payoff,
	sampler core.InputSampler, runs int, seed int64) (core.UtilityReport, error) {
	opts := []core.Option{core.WithParallelism(c.Parallelism)}
	if c.Trace != nil {
		opts = append(opts, core.WithObserver(func(run int) sim.Observer {
			return c.Trace.Recorder(trace.Meta{Run: run})
		}))
	}
	rep, err := core.EstimateUtility(proto, adv, g, sampler, runs, seed, opts...)
	if err == nil && c.metrics != nil {
		c.metrics.Add(rep.Metrics)
	}
	return rep, err
}

// sup is core.SupUtilitySpace at the configured parallelism. Eager
// strategy slices pass through core.SliceSpace at the call site.
func (c Config) sup(proto sim.Protocol, space core.StrategySpace, g core.Payoff,
	sampler core.InputSampler, runs int, seed int64) (core.SupReport, error) {
	opts := []core.Option{core.WithParallelism(c.Parallelism)}
	if c.Trace != nil {
		opts = append(opts, core.WithSupObserver(func(strategy string, run int) sim.Observer {
			return c.Trace.Recorder(trace.Meta{Strategy: strategy, Run: run})
		}))
	}
	rep, err := core.SupUtilitySpace(proto, space, g, sampler, runs, seed, opts...)
	if err == nil && c.metrics != nil {
		c.metrics.Add(rep.Metrics)
	}
	return rep, err
}

// Row is one paper-vs-measured comparison.
type Row struct {
	// Label names the quantity.
	Label string
	// Paper is the closed-form value the paper predicts. NaN when the
	// paper only gives an inequality; then Bound and Dir apply.
	Paper float64
	// Measured is the Monte-Carlo estimate.
	Measured float64
	// CI is the half-width of the 95% confidence interval.
	CI float64
	// Dir is the comparison direction: "=", "<=", ">=".
	Dir string
	// Pass reports whether the measurement is consistent with the paper.
	Pass bool
	// Note carries extra context (best strategy name, event split, …).
	Note string
}

// Result is one experiment's outcome.
type Result struct {
	// ID is the experiment identifier (E01..E15).
	ID string
	// Title describes the claim under test.
	Title string
	// Claim cites the paper result.
	Claim string
	// Rows are the comparisons.
	Rows []Row
	// Metrics aggregates the engine events behind this experiment's
	// measurements (filled by Experiment.Measure and RunAll; zero when
	// Run was called directly).
	Metrics sim.Metrics
}

// Pass reports whether every row passed.
func (r Result) Pass() bool {
	for _, row := range r.Rows {
		if !row.Pass {
			return false
		}
	}
	return true
}

// eqRow builds an equality comparison row.
func eqRow(label string, paper, measured, ci, tol float64) Row {
	return Row{
		Label: label, Paper: paper, Measured: measured, CI: ci, Dir: "=",
		Pass: math.Abs(measured-paper) <= tol+ci,
	}
}

// leRow builds a measured ≤ paper row.
func leRow(label string, paper, measured, ci, tol float64) Row {
	return Row{
		Label: label, Paper: paper, Measured: measured, CI: ci, Dir: "<=",
		Pass: mathx.LessOrApprox(measured-ci, paper, tol),
	}
}

// geRow builds a measured ≥ paper row.
func geRow(label string, paper, measured, ci, tol float64) Row {
	return Row{
		Label: label, Paper: paper, Measured: measured, CI: ci, Dir: ">=",
		Pass: mathx.GreaterOrApprox(measured+ci, paper, tol),
	}
}

// boolRow builds a yes/no expectation row (1 = holds).
func boolRow(label string, want, got bool) Row {
	toF := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return Row{Label: label, Paper: toF(want), Measured: toF(got), Dir: "=", Pass: want == got}
}

// Experiment pairs an ID with its runner.
type Experiment struct {
	ID  string
	Run func(Config) (Result, error)
}

// Measure runs the experiment and fills Result.Metrics with the engine
// metrics of every measurement it made.
func (e Experiment) Measure(cfg Config) (Result, error) {
	var m sim.Metrics
	cfg.metrics = &m
	res, err := e.Run(cfg)
	res.Metrics = m
	return res, err
}

// All lists every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E01", E01ContractSigning},
		{"E02", E02TwoPartyUpper},
		{"E03", E03TwoPartyLower},
		{"E04", E04ReconstructionRounds},
		{"E05", E05MultiPartyUpper},
		{"E06", E06MultiPartyLower},
		{"E07", E07BalancedSum},
		{"E08", E08GMWUnbalanced},
		{"E09", E09Separations},
		{"E10", E10CorruptionCost},
		{"E11", E11GordonKatz},
		{"E12", E12PartialFairnessSeparation},
		{"E13", E13Ablations},
		{"E14", E14AttackGame},
		{"E15", E15SubstrateGap},
	}
}

// RunAll executes every experiment. With cfg.Parallelism != 1 the
// experiments run concurrently (each is seeded independently from
// cfg.Seed, so the results are identical to the sequential order); the
// returned slice is always in All() order, and on failure the error of
// the earliest experiment is reported.
func RunAll(cfg Config) ([]Result, error) {
	all := All()
	out := make([]Result, len(all))
	errs := make([]error, len(all))
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = core.DefaultParallelism()
	}
	if workers > len(all) {
		workers = len(all)
	}
	if workers <= 1 {
		for i := range all {
			out[i], errs[i] = all[i].Measure(cfg)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(all) {
						return
					}
					out[i], errs[i] = all[i].Measure(cfg)
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", all[i].ID, err)
		}
	}
	return out, nil
}
