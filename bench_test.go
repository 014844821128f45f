package fairness

// Benchmark harness: one benchmark per experiment (the paper has no
// numbered tables/figures; its evaluation is the set of theorems and
// lemmas indexed E01..E15 in DESIGN.md), plus substrate micro-benchmarks.
// Each experiment benchmark regenerates its paper-vs-measured rows at the
// quick configuration and reports the headline measured value as a
// custom metric, so `go test -bench=.` reprints the whole evaluation.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/experiments"
)

func benchExperiment(b *testing.B, run func(experiments.Config) (experiments.Result, error)) {
	b.Helper()
	cfg := experiments.QuickConfig()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = experiments.QuickConfig().Seed + int64(i)
		res, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if !row.Pass {
			b.Errorf("%s %q: paper %s %v, measured %v (%s)",
				last.ID, row.Label, row.Dir, row.Paper, row.Measured, row.Note)
		}
	}
	if len(last.Rows) > 0 {
		b.ReportMetric(last.Rows[0].Measured, "utility")
	}
}

func BenchmarkE01ContractSigning(b *testing.B) {
	benchExperiment(b, experiments.E01ContractSigning)
}

func BenchmarkE02TwoPartyUpper(b *testing.B) {
	benchExperiment(b, experiments.E02TwoPartyUpper)
}

func BenchmarkE03TwoPartyLower(b *testing.B) {
	benchExperiment(b, experiments.E03TwoPartyLower)
}

func BenchmarkE04ReconRounds(b *testing.B) {
	benchExperiment(b, experiments.E04ReconstructionRounds)
}

func BenchmarkE05MultiUpper(b *testing.B) {
	benchExperiment(b, experiments.E05MultiPartyUpper)
}

func BenchmarkE06MultiLower(b *testing.B) {
	benchExperiment(b, experiments.E06MultiPartyLower)
}

func BenchmarkE07BalancedSum(b *testing.B) {
	benchExperiment(b, experiments.E07BalancedSum)
}

func BenchmarkE08GMWUnbalanced(b *testing.B) {
	benchExperiment(b, experiments.E08GMWUnbalanced)
}

func BenchmarkE09Separations(b *testing.B) {
	benchExperiment(b, experiments.E09Separations)
}

func BenchmarkE10CorruptionCost(b *testing.B) {
	benchExperiment(b, experiments.E10CorruptionCost)
}

func BenchmarkE11GordonKatz(b *testing.B) {
	benchExperiment(b, experiments.E11GordonKatz)
}

func BenchmarkE12Separation(b *testing.B) {
	benchExperiment(b, experiments.E12PartialFairnessSeparation)
}

func BenchmarkE13Ablations(b *testing.B) {
	benchExperiment(b, experiments.E13Ablations)
}

func BenchmarkE14AttackGame(b *testing.B) {
	benchExperiment(b, experiments.E14AttackGame)
}

func BenchmarkE15SubstrateGap(b *testing.B) {
	benchExperiment(b, experiments.E15SubstrateGap)
}

// Substrate micro-benchmarks.

func BenchmarkSubstrateEngineRun2SFE(b *testing.B) {
	proto := NewOptimalTwoParty(Swap())
	inputs := []Value{uint64(111), uint64(222)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(proto, inputs, Passive{}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateEngineRunNSFE(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			fn, err := Concat(n, 8)
			if err != nil {
				b.Fatal(err)
			}
			proto := NewOptimalMultiParty(fn)
			inputs := make([]Value, n)
			for i := range inputs {
				inputs[i] = uint64(i)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(proto, inputs, Passive{}, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSubstrateLockAbortRun(b *testing.B) {
	proto := NewOptimalTwoParty(Swap())
	inputs := []Value{uint64(111), uint64(222)}
	adv := NewLockAbort(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(proto, inputs, adv, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateGordonKatzRun(b *testing.B) {
	proto, err := NewPolyDomain(ANDFunction(), 8)
	if err != nil {
		b.Fatal(err)
	}
	inputs := []Value{uint64(1), uint64(1)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(proto, inputs, Passive{}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateClassify(b *testing.B) {
	proto := NewOptimalTwoParty(Swap())
	tr, err := Run(proto, []Value{uint64(1), uint64(2)}, Passive{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Classify(tr)
	}
}

// Estimator hot-path benchmarks: the batched engine end to end (master
// stream, worker arena, classify, tally), sized so one benchmark
// iteration is one Monte-Carlo run — ns/op and allocs/op read directly
// as per-run costs. CI enforces an allocs/op budget on these (see the
// bench-smoke job); the arena-level budget lives in
// internal/sim.TestArenaRunAllocs and internal/core.TestEstimateAllocs.

func benchEstimate(b *testing.B, proto Protocol, adv Adversary, sampler InputSampler, opts ...EstimatorOption) {
	b.Helper()
	b.ReportAllocs()
	rep, err := EstimateUtility(proto, adv, StandardPayoff(), sampler, b.N, 1, opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.Utility.Mean, "utility")
}

func BenchmarkEstimate2SFE(b *testing.B) {
	sampler := func(r *rand.Rand) []Value {
		return []Value{uint64(r.Intn(1 << 20)), uint64(r.Intn(1 << 20))}
	}
	benchEstimate(b, NewOptimalTwoParty(Swap()), NewLockAbort(1), sampler, WithParallelism(1))
}

func BenchmarkEstimate2SFEDefaultParallel(b *testing.B) {
	sampler := func(r *rand.Rand) []Value {
		return []Value{uint64(r.Intn(1 << 20)), uint64(r.Intn(1 << 20))}
	}
	benchEstimate(b, NewOptimalTwoParty(Swap()), NewLockAbort(1), sampler)
}

// BenchmarkEstimate2SFEMill is the estimator's allocation floor:
// millionaires' inputs and outputs stay below 256 (boxing into Value is
// free) and the in-place sampler refills engine-owned buffers, so
// allocs/op — which benchEstimate makes equal to allocs/run — is pinned
// at <= 2 by CI's bench-smoke budget.
func BenchmarkEstimate2SFEMill(b *testing.B) {
	into := func(r *rand.Rand, dst []Value) []Value {
		return append(dst, uint64(r.Intn(200)), uint64(r.Intn(200)))
	}
	benchEstimate(b, NewOptimalTwoParty(Millionaires()), NewLockAbort(1), nil,
		WithParallelism(1), WithSamplerInto(into))
}

// BenchmarkEstimateGordonKatz is the Gordon–Katz per-run cost on the
// registry's gk-polyrange:2 (AND at x = (1, 1), 8 value pairs): under
// lock-abort most runs end after reading the first pair (1.4 on
// average), so ShareGen deals only those; under static (honest
// corruption) a run reads all 8.
func BenchmarkEstimateGordonKatz(b *testing.B) {
	proto, err := NewPolyRange(ANDFunction(), 2)
	if err != nil {
		b.Fatal(err)
	}
	into := func(_ *rand.Rand, dst []Value) []Value {
		return append(dst, uint64(1), uint64(1))
	}
	for _, tc := range []struct {
		name string
		adv  Adversary
	}{
		{"lock-abort", NewLockAbort(1)},
		{"static", NewStatic(1)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchEstimate(b, proto, tc.adv, nil, WithParallelism(1), WithSamplerInto(into))
		})
	}
}

func BenchmarkEstimateNSFE(b *testing.B) {
	fn, err := Concat(4, 8)
	if err != nil {
		b.Fatal(err)
	}
	sampler := func(r *rand.Rand) []Value {
		in := make([]Value, 4)
		for i := range in {
			in[i] = uint64(r.Intn(256))
		}
		return in
	}
	benchEstimate(b, NewOptimalMultiParty(fn), NewLockAbort(1, 3), sampler, WithParallelism(1))
}

// Parallel-estimation benchmarks: the same E05/E07-class multi-party
// workload at worker counts 1 and 4. The determinism contract makes the
// two produce identical reports, so the only delta is wall-clock.
//
// Measured on the single-CPU dev container (Xeon 2.10GHz, go1.24):
//
//	BenchmarkE07BalancedSumSequential      1   3.01e9 ns/op
//	BenchmarkE07BalancedSumParallel4       1   2.77e9 ns/op
//
// i.e. at parity with one core — the pool adds no measurable overhead
// even when it cannot help. The runs are embarrassingly parallel (the
// workers share nothing after the sequential pre-draw), so on a P-core
// host the parallel variant approaches a min(P, 4)× speedup; CI's
// 4-vCPU runner is where the gap shows.
func benchE07AtParallelism(b *testing.B, par int) {
	b.Helper()
	cfg := experiments.QuickConfig()
	cfg.Parallelism = par
	for i := 0; i < b.N; i++ {
		cfg.Seed = experiments.QuickConfig().Seed + int64(i)
		if _, err := experiments.E07BalancedSum(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE07BalancedSumSequential(b *testing.B) { benchE07AtParallelism(b, 1) }
func BenchmarkE07BalancedSumParallel4(b *testing.B)  { benchE07AtParallelism(b, 4) }
