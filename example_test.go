package fairness_test

// Godoc examples for the main library flows. Each runs as a test and its
// output is verified, so the documentation cannot rot.

import (
	"fmt"
	"math/rand"

	fairness "repro"
)

// ExampleEstimateUtility measures the optimal attacker's utility against
// ΠOpt-2SFE and compares it with the paper's closed form.
func ExampleEstimateUtility() {
	gamma := fairness.StandardPayoff()
	proto := fairness.NewOptimalTwoParty(fairness.Swap())
	sampler := func(r *rand.Rand) []fairness.Value {
		return []fairness.Value{uint64(r.Intn(1 << 16)), uint64(r.Intn(1 << 16))}
	}
	report, err := fairness.EstimateUtility(proto, fairness.NewAgen(), gamma, sampler, 4000, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	bound := fairness.TwoPartyOptimalBound(gamma)
	fmt.Printf("within optimum: %v\n", report.Utility.MatchesWithin(bound, 0.05))
	// Output:
	// within optimum: true
}

// ExampleCompare ranks the Introduction's two contract-signing protocols
// under the relative-fairness relation of Definition 1.
func ExampleCompare() {
	gamma := fairness.StandardPayoff()
	sampler := func(r *rand.Rand) []fairness.Value {
		return []fairness.Value{uint64(r.Int63()), uint64(r.Int63())}
	}
	sup1, err := fairness.SupUtility(fairness.Pi1{}, fairness.TwoPartySpace(3), gamma, sampler, 300, 1)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sup2, err := fairness.SupUtility(fairness.Pi2{}, fairness.TwoPartySpace(4), gamma, sampler, 300, 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("Π2 vs Π1:", fairness.Compare(sup2.BestReport.Utility, sup1.BestReport.Utility, 0.05))
	// Output:
	// Π2 vs Π1: strictly fairer
}

// ExampleClassify runs one protocol execution and maps it to its
// ideal-world fairness event.
func ExampleClassify() {
	proto := fairness.NewOptimalTwoParty(fairness.Millionaires())
	trace, err := fairness.Run(proto, []fairness.Value{uint64(9), uint64(4)}, fairness.Passive{}, 7)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	outcome := fairness.Classify(trace)
	fmt.Printf("event=%v output=%v\n", outcome.Event, trace.ExpectedOutput)
	// Output:
	// event=E01 output=1
}

// ExampleIsUtilityBalanced checks Definition 5 on a measured per-t
// utility profile.
func ExampleIsUtilityBalanced() {
	gamma := fairness.StandardPayoff()
	n := 4
	optimal := fairness.PerTUtilities{
		fairness.MultiPartyTBound(gamma, n, 1),
		fairness.MultiPartyTBound(gamma, n, 2),
		fairness.MultiPartyTBound(gamma, n, 3),
	}
	gmwStep := fairness.PerTUtilities{gamma.G11, gamma.G10, gamma.G10}
	fmt.Println("ΠOpt-nSFE balanced:", fairness.IsUtilityBalanced(optimal, gamma, 0.01))
	fmt.Println("Π_GMW^{1/2} balanced:", fairness.IsUtilityBalanced(gmwStep, gamma, 0.01))
	// Output:
	// ΠOpt-nSFE balanced: true
	// Π_GMW^{1/2} balanced: false
}
