package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/sim"
)

// TestGordonKatzParallelismEquivalence compares Gordon–Katz estimates at
// parallelism 1 and 4: gk-polyrange:2 and Π̃ under lock-and-abort,
// abort-at-round and first-hit arms, whose runs end after a few of
// ShareGen's value pairs, each dealt when a machine first reads it on
// the run's own protocol stream. The reports must be equal. Under -race
// it also catches a dealer that two workers share.
func TestGordonKatzParallelismEquivalence(t *testing.T) {
	polyRange, err := gordonkatz.NewPolyRange(gordonkatz.AND(), 2)
	if err != nil {
		t.Fatal(err)
	}
	pitilde, err := gordonkatz.NewPitilde()
	if err != nil {
		t.Fatal(err)
	}
	bits := func(r *rand.Rand) []sim.Value { return []sim.Value{uint64(r.Intn(2)), uint64(r.Intn(2))} }
	arms := []func() sim.Adversary{
		func() sim.Adversary { return adversary.NewLockAbort(1) },
		func() sim.Adversary { return adversary.NewLockAbort(2) },
		func() sim.Adversary { return adversary.NewAbortAt(4, 1) },
		func() sim.Adversary { return adversary.NewAbortAt(5, 2) },
		func() sim.Adversary { return gordonkatz.NewFirstHit(1) },
		func() sim.Adversary { return gordonkatz.NewFirstHit(2) },
	}
	cases := []struct {
		name    string
		proto   sim.Protocol
		sampler core.InputSampler
	}{
		{"gk-polyrange:2", polyRange, core.FixedInputs(uint64(1), uint64(1))},
		{"gk-pitilde", pitilde, bits},
	}
	for _, tc := range cases {
		for _, arm := range arms {
			adv := arm()
			t.Run(fmt.Sprintf("%s/%T%v", tc.name, adv, adv.InitialCorruptions()), func(t *testing.T) {
				want, err := core.EstimateUtility(tc.proto, adv, core.GordonKatzPayoff(), tc.sampler, 600, 17,
					core.WithParallelism(1))
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.EstimateUtility(tc.proto, arm(), core.GordonKatzPayoff(), tc.sampler, 600, 17,
					core.WithParallelism(4))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("parallelism 4 differs from 1:\np1: %+v\np4: %+v", want, got)
				}
			})
		}
	}
}
