package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/contract"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/sim"
)

// TestEstimateAllocsPerFamily pins the per-run allocation budget of the
// estimator's hot path for every two-party family that implements the
// engine's reuse hooks beyond ΠOpt-2SFE (see TestEstimateAllocsMill):
// Π1 and Π2 (ReusableParty, PartyCopier, payload cells, in-place
// commitments) and the Gordon–Katz protocols and Π̃ (additionally
// ScratchSetupProtocol). Each case runs the in-place sampler at
// parallelism 1 under abort-at-round and lock-and-abort arms, the
// strategies the search engine races. As in TestEstimateAllocsMill,
// sampled inputs stay below 256, which Go boxes without allocating, so
// the budget counts the engine and the family, not the test's sampler.
func TestEstimateAllocsPerFamily(t *testing.T) {
	uniform := func(max int) core.InputSamplerInto {
		return func(r *rand.Rand, dst []sim.Value) []sim.Value {
			return append(dst, uint64(r.Intn(max)), uint64(r.Intn(max)))
		}
	}
	polyDomain, err := gordonkatz.NewPolyDomain(gordonkatz.AND(), 2)
	if err != nil {
		t.Fatal(err)
	}
	pitilde, err := gordonkatz.NewPitilde()
	if err != nil {
		t.Fatal(err)
	}
	twoPartyArms := func(rounds int) []sim.Adversary {
		return []sim.Adversary{
			adversary.NewAbortAt(2, 1), adversary.NewAbortAt(rounds, 2),
			adversary.NewLockAbort(1), adversary.NewLockAbort(2),
		}
	}
	cases := []struct {
		name    string
		proto   sim.Protocol
		sampler core.InputSamplerInto
		budget  float64
	}{
		{"pi1", contract.Pi1{}, uniform(200), 6},
		{"pi2", contract.Pi2{}, uniform(200), 6},
		{"gk-polydomain:2", polyDomain, core.FixedInputsInto(uint64(1), uint64(1)), 3},
		{"gk-pitilde", pitilde, uniform(2), 3},
	}
	const runs = 2000
	for _, tc := range cases {
		for _, adv := range twoPartyArms(tc.proto.NumRounds()) {
			t.Run(fmt.Sprintf("%s/%T%v", tc.name, adv, adv.InitialCorruptions()), func(t *testing.T) {
				seed := int64(1)
				allocs := testing.AllocsPerRun(3, func() {
					if _, err := core.EstimateUtility(tc.proto, adv, core.StandardPayoff(), nil, runs, seed,
						core.WithParallelism(1), core.WithSamplerInto(tc.sampler)); err != nil {
						t.Fatal(err)
					}
					seed++
				})
				perRun := allocs / runs
				if perRun > tc.budget {
					t.Fatalf("%.2f allocs/run, budget %g", perRun, tc.budget)
				}
				t.Logf("%.2f allocs/run (budget %g)", perRun, tc.budget)
			})
		}
	}
}
