package core_test

// Frozen-legacy equivalence: the batched options-based engine must
// reproduce the PR-1 estimator's reports exactly. legacyEstimate and
// legacySup below are verbatim-frozen copies of the original sequential
// implementations (pre-drawn job slice, per-sample tally over
// stats.MeanEstimate, one sim.Run per run) — the same pattern
// parity_test.go uses in internal/sim. Mean, event frequencies, run
// fractions, and metrics are compared bitwise at every parallelism and
// batch size; the half-width, which the engine now derives from event
// counts in canonical order rather than a run-order sample sum, is
// pinned to 1e-12.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/multiparty"
	"repro/internal/protocols/twoparty"
	"repro/internal/sim"
	"repro/internal/stats"
)

// preparedRun mirrors the legacy estimator's pre-drawn job pair.
type preparedRun struct {
	inputs []sim.Value
	seed   int64
}

func legacyEstimate(proto sim.Protocol, adv sim.Adversary, gamma core.Payoff,
	sampler core.InputSampler, runs int, seed int64) (core.UtilityReport, error) {
	if runs <= 0 {
		return core.UtilityReport{}, core.ErrNoRuns
	}
	seeder := rand.New(rand.NewSource(seed))
	jobs := make([]preparedRun, runs)
	for i := range jobs {
		jobs[i].inputs = sampler(seeder)
		jobs[i].seed = seeder.Int63()
	}
	var metrics sim.Metrics
	outcomes := make([]core.Outcome, runs)
	for i := range jobs {
		tr, err := sim.Run(proto, jobs[i].inputs, adv, jobs[i].seed, &metrics)
		if err != nil {
			return core.UtilityReport{}, fmt.Errorf("core: run %d: %w", i, err)
		}
		outcomes[i] = core.Classify(tr)
	}
	samples := make([]float64, 0, runs)
	events := make(map[core.Event]int, 4)
	violations, breaches, corrupted := 0, 0, 0
	for _, oc := range outcomes {
		events[oc.Event]++
		if oc.CorrectnessViolation {
			violations++
		}
		if oc.PrivacyBreach {
			breaches++
		}
		corrupted += oc.Corrupted
		samples = append(samples, gamma.Of(oc.Event))
	}
	est, err := stats.MeanEstimate(samples)
	if err != nil {
		return core.UtilityReport{}, err
	}
	freq := make(map[core.Event]float64, 4)
	for _, e := range core.Events() {
		freq[e] = float64(events[e]) / float64(runs)
	}
	return core.UtilityReport{
		Utility:               est,
		EventFreq:             freq,
		CorrectnessViolations: float64(violations) / float64(runs),
		PrivacyBreaches:       float64(breaches) / float64(runs),
		MeanCorrupted:         float64(corrupted) / float64(runs),
		Runs:                  runs,
		Metrics:               metrics,
	}, nil
}

func legacySup(proto sim.Protocol, advs []core.NamedAdversary, gamma core.Payoff,
	sampler core.InputSampler, runs int, seed int64) (core.SupReport, error) {
	rep := core.SupReport{All: make(map[string]core.UtilityReport, len(advs))}
	bestU := -1e18
	for i, na := range advs {
		r, err := legacyEstimate(proto, na.Adv, gamma, sampler, runs, seed+int64(i)*7919)
		if err != nil {
			return core.SupReport{}, fmt.Errorf("core: strategy %q: %w", na.Name, err)
		}
		rep.All[na.Name] = r
		rep.Metrics.Add(r.Metrics)
		if r.Utility.Mean > bestU {
			bestU = r.Utility.Mean
			rep.Best = na.Name
			rep.BestReport = r
		}
	}
	return rep, nil
}

// requireEquivalent asserts bitwise equality of everything except the
// half-width, which may differ in the last ulps (count-order vs
// run-order summation).
func requireEquivalent(t *testing.T, label string, want, got core.UtilityReport) {
	t.Helper()
	if want.Utility.Mean != got.Utility.Mean {
		t.Fatalf("%s: mean %v != legacy %v", label, got.Utility.Mean, want.Utility.Mean)
	}
	if want.Utility.N != got.Utility.N || want.Runs != got.Runs {
		t.Fatalf("%s: sample counts diverge: %+v vs %+v", label, got, want)
	}
	if d := math.Abs(want.Utility.HalfWidth - got.Utility.HalfWidth); d > 1e-12 {
		t.Fatalf("%s: half-width drift %g", label, d)
	}
	for _, e := range core.Events() {
		if want.EventFreq[e] != got.EventFreq[e] {
			t.Fatalf("%s: freq[%v] %v != legacy %v", label, e, got.EventFreq[e], want.EventFreq[e])
		}
	}
	if want.CorrectnessViolations != got.CorrectnessViolations ||
		want.PrivacyBreaches != got.PrivacyBreaches ||
		want.MeanCorrupted != got.MeanCorrupted {
		t.Fatalf("%s: run fractions diverge:\nlegacy: %+v\nnew:    %+v", label, want, got)
	}
	if want.Metrics != got.Metrics {
		t.Fatalf("%s: metrics diverge: %+v vs %+v", label, got.Metrics, want.Metrics)
	}
}

type equivCase struct {
	name    string
	proto   func() (sim.Protocol, error)
	newAdv  func() sim.Adversary
	sampler core.InputSampler
}

func equivCases(t *testing.T) []equivCase {
	t.Helper()
	two := func(r *rand.Rand) []sim.Value {
		return []sim.Value{uint64(r.Intn(256)), uint64(r.Intn(256))}
	}
	four := func(r *rand.Rand) []sim.Value {
		in := make([]sim.Value, 4)
		for i := range in {
			in[i] = uint64(r.Intn(16))
		}
		return in
	}
	gmw := func() (sim.Protocol, error) {
		fn, err := multiparty.Concat(4, 4)
		if err != nil {
			return nil, err
		}
		return multiparty.NewGMWHalf(fn), nil
	}
	return []equivCase{
		{"2sfe-opt/lock-abort:1", func() (sim.Protocol, error) { return twoparty.New(twoparty.Swap()), nil },
			func() sim.Adversary { return adversary.NewLockAbort(1) }, two},
		{"2sfe-opt/lock-abort:2", func() (sim.Protocol, error) { return twoparty.New(twoparty.Swap()), nil },
			func() sim.Adversary { return adversary.NewLockAbort(2) }, two},
		{"2sfe-opt/abort-at", func() (sim.Protocol, error) { return twoparty.New(twoparty.Swap()), nil },
			func() sim.Adversary { return adversary.NewAbortAt(3, 1) }, two},
		{"2sfe-opt/setup-abort", func() (sim.Protocol, error) { return twoparty.New(twoparty.Swap()), nil },
			func() sim.Adversary { return adversary.NewSetupAbort(2) }, two},
		{"2sfe-opt/agen", func() (sim.Protocol, error) { return twoparty.New(twoparty.Swap()), nil },
			func() sim.Adversary { return adversary.NewAgen() }, two},
		{"nsfe-opt/setup-attack", gmw,
			func() sim.Adversary { return multiparty.NewGMWSetupAttacker(1, 2) }, four},
		{"nsfe-opt/static", gmw,
			func() sim.Adversary { return adversary.NewStatic(2, 4) }, four},
	}
}

// TestEngineMatchesLegacyEstimate is the equivalence matrix for the
// options-based estimator: protocol × adversary × seed, at every
// parallelism level and batch size, against the frozen PR-1 estimator.
func TestEngineMatchesLegacyEstimate(t *testing.T) {
	for _, tc := range equivCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			proto, err := tc.proto()
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{0, 1, 42, -9} {
				want, err := legacyEstimate(proto, tc.newAdv(), core.StandardPayoff(), tc.sampler, 61, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, par := range []int{1, 2, 4, 0} {
					for _, batch := range []int{1, 3, 64, 0} {
						got, err := core.EstimateUtility(proto, tc.newAdv(), core.StandardPayoff(), tc.sampler, 61, seed,
							core.WithParallelism(par), core.WithBatchSize(batch))
						if err != nil {
							t.Fatal(err)
						}
						requireEquivalent(t, fmt.Sprintf("seed %d par %d batch %d", seed, par, batch), want, got)
					}
				}
			}
		})
	}
}

// TestEngineMatchesLegacySup pins the sup-search: per-strategy seeds,
// tie-breaking, and merged metrics against the frozen sequential search.
func TestEngineMatchesLegacySup(t *testing.T) {
	proto := twoparty.New(twoparty.Swap())
	sampler := func(r *rand.Rand) []sim.Value {
		return []sim.Value{uint64(r.Intn(256)), uint64(r.Intn(256))}
	}
	space := func() []core.NamedAdversary {
		return []core.NamedAdversary{
			{"lock-abort:1", adversary.NewLockAbort(1)},
			{"lock-abort:2", adversary.NewLockAbort(2)},
			{"setup-abort", adversary.NewSetupAbort(1)},
			{"agen", adversary.NewAgen()},
		}
	}
	for _, seed := range []int64{7, 99} {
		want, err := legacySup(proto, space(), core.StandardPayoff(), sampler, 53, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 0} {
			got, err := core.SupUtility(proto, space(), core.StandardPayoff(), sampler, 53, seed, core.WithParallelism(par))
			if err != nil {
				t.Fatal(err)
			}
			if got.Best != want.Best {
				t.Fatalf("par %d: best %q != legacy %q", par, got.Best, want.Best)
			}
			if got.Metrics != want.Metrics {
				t.Fatalf("par %d: merged metrics diverge", par)
			}
			for name, w := range want.All {
				requireEquivalent(t, fmt.Sprintf("par %d strategy %s", par, name), w, got.All[name])
			}
		}
	}
}

// TestEstimateAllocs pins the allocation-lean property of the full core
// hot path (batcher draw + arena run + classify + tally) at
// parallelism 1.
func TestEstimateAllocs(t *testing.T) {
	proto := twoparty.New(twoparty.Swap())
	adv := adversary.NewLockAbort(1)
	sampler := func(r *rand.Rand) []sim.Value {
		return []sim.Value{uint64(r.Intn(256)), uint64(r.Intn(256))}
	}
	const runs = 200
	seed := int64(1)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := core.EstimateUtility(proto, adv, core.StandardPayoff(), sampler, runs, seed, core.WithParallelism(1)); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	perRun := allocs / runs
	const budget = 10
	if perRun > budget {
		t.Fatalf("estimator allocates %.1f/run, budget %d", perRun, budget)
	}
	t.Logf("estimator: %.1f allocs/run", perRun)
}
