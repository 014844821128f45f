// Quickstart: evaluate a function with the optimally fair two-party
// protocol ΠOpt-2SFE, then measure how fair it actually is by pitting the
// paper's optimal attacker against it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	fairness "repro"
)

func main() {
	// 1. A single fair evaluation: the swap function f(x1,x2) = (x2,x1).
	proto := fairness.NewOptimalTwoParty(fairness.Swap())
	trace, err := fairness.Run(proto,
		[]fairness.Value{uint64(1234), uint64(5678)}, fairness.Passive{}, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== one honest run of ΠOpt-2SFE (swap) ==")
	fmt.Printf("inputs:  x1=1234 x2=5678\n")
	fmt.Printf("output:  %v (both parties)\n", trace.ExpectedOutput)
	fmt.Printf("event:   %v (honest delivery)\n\n", fairness.Classify(trace).Event)

	// 2. How fair is this protocol? Attack it with the Theorem 4
	// adversary Agen and compare against the paper's exact optimum.
	gamma := fairness.StandardPayoff()
	sampler := func(r *rand.Rand) []fairness.Value {
		return []fairness.Value{uint64(r.Intn(1 << 20)), uint64(r.Intn(1 << 20))}
	}
	// Options tune scheduling only — the report is bit-identical for any
	// parallelism (the estimator's determinism contract).
	report, err := fairness.EstimateUtility(proto, fairness.NewAgen(), gamma, sampler, 3000, 7,
		fairness.WithParallelism(fairness.DefaultParallelism()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== utility of the optimal attacker (Agen) ==")
	fmt.Printf("payoff vector γ = %+v\n", gamma)
	fmt.Printf("measured utility : %s\n", report.Utility)
	fmt.Printf("paper optimum    : (γ10+γ11)/2 = %.4f (Theorems 3 & 4)\n",
		fairness.TwoPartyOptimalBound(gamma))
	fmt.Printf("event split      : E10=%.3f (adversary-only output) E11=%.3f (both)\n",
		report.EventFreq[fairness.E10], report.EventFreq[fairness.E11])
	fmt.Println("\nΠOpt-2SFE concedes the output exclusively to the attacker only")
	fmt.Println("half the time — and no two-party protocol for general functions")
	fmt.Println("can do better.")
}
