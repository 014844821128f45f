package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/protocols/multiparty"
	"repro/internal/sim"
)

// The equivalence tests pin the tentpole determinism contract: the
// parallel estimator must reproduce the sequential estimator's
// UtilityReport exactly — same mean, same confidence interval, same
// event counts — for the same (runs, seed), at every parallelism.

func TestParallelEquivalenceTwoParty(t *testing.T) {
	for _, par := range []int{0, 2, 4, 7} {
		seq, err := EstimateUtility(flipProtocol{}, &grabber{}, StandardPayoff(), uniformInputs, 101, 42)
		if err != nil {
			t.Fatal(err)
		}
		parRep, err := EstimateUtility(flipProtocol{}, &grabber{}, StandardPayoff(), uniformInputs, 101, 42, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, parRep) {
			t.Errorf("parallelism %d: report differs from sequential:\nseq: %+v\npar: %+v", par, seq, parRep)
		}
	}
}

func TestParallelEquivalenceMultiParty(t *testing.T) {
	fn, err := multiparty.Concat(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := multiparty.NewGMWHalf(fn)
	sampler := func(r *rand.Rand) []sim.Value {
		in := make([]sim.Value, 4)
		for i := range in {
			in[i] = uint64(r.Intn(16))
		}
		return in
	}
	// t = n/2 setup attacker: reconstructs from the coalition's shares and
	// aborts the setup — a stateful, cloneable multi-party strategy.
	adv := multiparty.NewGMWSetupAttacker(1, 2)
	seq, err := EstimateUtility(p, adv, StandardPayoff(), sampler, 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	if seq.EventFreq[E10] != 1 {
		t.Fatalf("fixture should provoke E10 every run, got %v", seq.EventFreq)
	}
	parRep, err := EstimateUtility(p, adv, StandardPayoff(), sampler, 60, 9, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, parRep) {
		t.Errorf("multi-party report differs:\nseq: %+v\npar: %+v", seq, parRep)
	}
}

func TestParallelismExceedsRuns(t *testing.T) {
	seq, err := EstimateUtility(flipProtocol{}, &grabber{}, StandardPayoff(), uniformInputs, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	parRep, err := EstimateUtility(flipProtocol{}, &grabber{}, StandardPayoff(), uniformInputs, 5, 11, WithParallelism(64))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, parRep) {
		t.Errorf("parallelism > runs: report differs:\nseq: %+v\npar: %+v", seq, parRep)
	}
}

func TestParallelErrNoRuns(t *testing.T) {
	for _, runs := range []int{0, -3} {
		if _, err := EstimateUtility(flipProtocol{}, sim.Passive{}, StandardPayoff(),
			uniformInputs, runs, 1, WithParallelism(4)); !errors.Is(err, ErrNoRuns) {
			t.Errorf("runs=%d: %v, want ErrNoRuns", runs, err)
		}
	}
}

// noClone is a deliberately non-cloneable strategy: CloneAdversary
// returning nil signals "this instance cannot be copied".
type noClone struct{ *grabber }

func (noClone) CloneAdversary() sim.Adversary { return nil }

// inheritsClone embeds a cloneable strategy without cloning itself: its
// promoted CloneAdversary returns a *grabber.
type inheritsClone struct{ *grabber }

func TestParallelNonCloneableFallsBackToSequential(t *testing.T) {
	adv := noClone{&grabber{}}
	if _, ok := sim.CloneAdversary(adv); ok {
		t.Fatal("fixture should not be cloneable")
	}
	if _, ok := sim.CloneAdversary(inheritsClone{&grabber{}}); ok {
		t.Fatal("a clone of another concrete type counted as a clone")
	}
	seq, err := EstimateUtility(flipProtocol{}, noClone{&grabber{}}, StandardPayoff(), uniformInputs, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	parRep, err := EstimateUtility(flipProtocol{}, adv, StandardPayoff(), uniformInputs, 40, 5, WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, parRep) {
		t.Errorf("fallback path differs:\nseq: %+v\npar: %+v", seq, parRep)
	}
}

func TestSupUtilityParallelismEquivalence(t *testing.T) {
	mkSpace := func() []NamedAdversary {
		return []NamedAdversary{
			{Name: "passive", Adv: sim.Passive{}},
			{Name: "grabber", Adv: &grabber{}},
			{Name: "grabber2", Adv: &grabber{}},
		}
	}
	seq, err := SupUtility(flipProtocol{}, mkSpace(), StandardPayoff(), uniformInputs, 80, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 2, 16} {
		got, err := SupUtility(flipProtocol{}, mkSpace(), StandardPayoff(), uniformInputs, 80, 13, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("parallelism %d: sup report differs:\nseq: %+v\npar: %+v", par, seq, got)
		}
	}
	// A single-strategy space spends the parallelism inside the estimate;
	// the result must still match.
	one := []NamedAdversary{{Name: "grabber", Adv: &grabber{}}}
	seqOne, err := SupUtility(flipProtocol{}, one, StandardPayoff(), uniformInputs, 80, 13)
	if err != nil {
		t.Fatal(err)
	}
	parOne, err := SupUtility(flipProtocol{}, one, StandardPayoff(), uniformInputs, 80, 13, WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqOne, parOne) {
		t.Errorf("single-strategy sup differs:\nseq: %+v\npar: %+v", seqOne, parOne)
	}
}

// failingProtocol errors in Setup, exercising the estimator error paths.
type failingProtocol struct{ flipProtocol }

func (failingProtocol) Setup([]sim.Value, *rand.Rand) ([]sim.Value, error) {
	return nil, fmt.Errorf("boom")
}

func TestParallelErrorMatchesSequential(t *testing.T) {
	_, seqErr := EstimateUtility(failingProtocol{}, &grabber{}, StandardPayoff(), uniformInputs, 10, 3)
	if seqErr == nil {
		t.Fatal("sequential run should fail")
	}
	_, parErr := EstimateUtility(failingProtocol{}, &grabber{}, StandardPayoff(), uniformInputs, 10, 3, WithParallelism(4))
	if parErr == nil {
		t.Fatal("parallel run should fail")
	}
	// Deterministic reporting: both paths name the lowest failing run.
	if seqErr.Error() != parErr.Error() {
		t.Errorf("error mismatch: %q vs %q", seqErr, parErr)
	}
}
