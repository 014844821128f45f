package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/twoparty"
	"repro/internal/sim"
)

// TestSamplerIntoMatchesSampler pins that WithSamplerInto changes
// nothing but allocation behavior when the two samplers draw
// identically.
func TestSamplerIntoMatchesSampler(t *testing.T) {
	proto := twoparty.New(twoparty.Swap())
	sampler := func(r *rand.Rand) []sim.Value {
		return []sim.Value{uint64(r.Intn(256)), uint64(r.Intn(256))}
	}
	into := func(r *rand.Rand, dst []sim.Value) []sim.Value {
		return append(dst, uint64(r.Intn(256)), uint64(r.Intn(256)))
	}
	for _, par := range []int{1, 3} {
		want, err := core.EstimateUtility(proto, adversary.NewAgen(), core.StandardPayoff(), sampler, 101, 5,
			core.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.EstimateUtility(proto, adversary.NewAgen(), core.StandardPayoff(), nil, 101, 5,
			core.WithParallelism(par), core.WithSamplerInto(into))
		if err != nil {
			t.Fatal(err)
		}
		requireEquivalent(t, fmt.Sprintf("par %d", par), want, got)
	}
}

// TestSupUtilityBestSelection is the regression for the best-selection
// sentinel bug: the old bestU = -1e18 seed left rep.Best empty both
// when every mean was NaN (a NaN payoff entry poisons every strategy's
// mean — 0·NaN = NaN in the count reduction) and when every mean sat
// below the sentinel. The selection must instead seed from the first
// comparable strategy, never pick a NaN mean, and report an error when
// no strategy is comparable.
func TestSupUtilityBestSelection(t *testing.T) {
	proto := twoparty.New(twoparty.Swap())
	sampler := core.FixedInputs(uint64(5), uint64(9))
	space := func() []core.NamedAdversary {
		return []core.NamedAdversary{
			{"passive", sim.Passive{}},
			{"lock-abort:1", adversary.NewLockAbort(1)},
		}
	}

	// Every utility below the old sentinel: passive runs are all E01
	// (mean -2e19), lock-abort mixes E10/E11 (mean -1e19, the larger).
	gamma := core.Payoff{G00: -1e19, G01: -2e19, G10: -1e19, G11: -1e19}
	rep, err := core.SupUtility(proto, space(), gamma, sampler, 31, 3, core.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best != "lock-abort:1" {
		t.Fatalf("best = %q, want %q (means below the old sentinel left Best empty)", rep.Best, "lock-abort:1")
	}
	if rep.BestReport.Utility.Mean != -1e19 {
		t.Fatalf("best mean = %v, want -1e19", rep.BestReport.Utility.Mean)
	}

	// A NaN payoff entry makes every mean NaN: the sup is undefined and
	// must say so instead of returning an empty Best.
	nanGamma := core.Payoff{G00: 0, G01: math.NaN(), G10: 1, G11: 0.5}
	_, err = core.SupUtility(proto, space(), nanGamma, sampler, 31, 3, core.WithParallelism(1))
	if err == nil {
		t.Fatal("all-NaN space returned a report instead of an error")
	}
	if !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("error %q does not describe the NaN condition", err)
	}
}

// TestEstimateAllocsMill pins the end-to-end allocation floor: the full
// hot path — in-place sampler, batcher lease, arena run, classify,
// tally — stays within 2 allocations per run for a small-range pair
// (Millionaires under lock-abort).
func TestEstimateAllocsMill(t *testing.T) {
	proto := twoparty.New(twoparty.Millionaires())
	adv := adversary.NewLockAbort(1)
	into := func(r *rand.Rand, dst []sim.Value) []sim.Value {
		return append(dst, uint64(r.Intn(200)), uint64(r.Intn(200)))
	}
	const runs = 2000
	seed := int64(1)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := core.EstimateUtility(proto, adv, core.StandardPayoff(), nil, runs, seed,
			core.WithParallelism(1), core.WithSamplerInto(into)); err != nil {
			t.Fatal(err)
		}
		seed++
	})
	perRun := allocs / runs
	if perRun > 2 {
		t.Fatalf("estimator allocates %.2f/run, budget 2", perRun)
	}
	t.Logf("estimator: %.2f allocs/run", perRun)
}
