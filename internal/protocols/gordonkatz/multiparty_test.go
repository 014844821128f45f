package gordonkatz

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

func mpWorst(n int) core.InputSampler {
	return func(*rand.Rand) []sim.Value {
		in := make([]sim.Value, n)
		for i := range in {
			in[i] = uint64(1)
		}
		return in
	}
}

func TestMultiPartyHonestRun(t *testing.T) {
	proto, err := NewMultiParty(ANDn(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]sim.Value{
		{uint64(1), uint64(1), uint64(1)},
		{uint64(1), uint64(0), uint64(1)},
		{uint64(0), uint64(0), uint64(0)},
	} {
		for seed := int64(0); seed < 3; seed++ {
			tr, err := sim.Run(proto, in, sim.Passive{}, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.AllHonestDelivered() {
				t.Fatalf("in=%v seed=%d: %+v (expected %v)", in, seed, tr.HonestOutputs, tr.ExpectedOutput)
			}
		}
	}
}

func TestMultiPartyParamErrors(t *testing.T) {
	if _, err := NewMultiParty(ANDn(3), 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := NewMultiParty(NPartyFn{Name: "one", Domains: [][]uint64{{0}}}, 2); err == nil {
		t.Error("1-party function accepted")
	}
	bad := ANDn(3)
	bad.Range = nil
	if _, err := NewMultiParty(bad, 2); err == nil {
		t.Error("empty range accepted")
	}
	bad2 := ANDn(3)
	bad2.Domains[1] = nil
	if _, err := NewMultiParty(bad2, 2); err == nil {
		t.Error("empty domain accepted")
	}
}

func TestMultiPartyUtilityBound(t *testing.T) {
	// ū ≤ 1/p under (0,0,1,0), even for coalitions, with the worst-case
	// all-ones environment.
	g := core.GordonKatzPayoff()
	for _, p := range []int{2, 4} {
		proto, err := NewMultiParty(ANDn(3), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range [][]sim.PartyID{{1}, {3}, {1, 2}} {
			rep, err := core.EstimateUtility(proto, adversary.NewLockAbort(set...), g,
				mpWorst(3), 1000, int64(p))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Utility.LeqWithin(1.0/float64(p), 0.04) {
				t.Errorf("p=%d set=%v: utility %v exceeds 1/p (events %v)",
					p, set, rep.Utility, rep.EventFreq)
			}
		}
	}
}

func TestMultiPartyAttackIsNontrivial(t *testing.T) {
	// The rushing first-hit attack achieves Θ(1/p).
	g := core.GordonKatzPayoff()
	proto, err := NewMultiParty(ANDn(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.EstimateUtility(proto, adversary.NewLockAbort(1), g, mpWorst(3), 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Utility.Mean < 1.0/(4*2) {
		t.Errorf("utility %v below Θ(1/p) floor", rep.Utility)
	}
}

func TestMultiPartyRoundComplexity(t *testing.T) {
	proto, err := NewMultiParty(ANDn(4), 3)
	if err != nil {
		t.Fatal(err)
	}
	if proto.NumRounds() != 3*16 {
		t.Errorf("rounds = %d, want p·|X1×…×X4| = 48", proto.NumRounds())
	}
	if proto.NumParties() != 4 {
		t.Errorf("parties = %d", proto.NumParties())
	}
}

func TestMultiPartyEarlyAbortRandomReplacement(t *testing.T) {
	// Withholding at round 1 leaves honest parties with the F$
	// replacement; E10 only when i* = 1 (probability 1/r = 1/8).
	g := core.GordonKatzPayoff()
	proto, err := NewMultiParty(ANDn(3), 4) // r = 32
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.EstimateUtility(proto, adversary.NewAbortAt(1, 2), g, mpWorst(3), 1200, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Utility.LeqWithin(1.0/32.0, 0.03) {
		t.Errorf("abort-at-1 utility %v, want ≤ 1/r = 1/32 (events %v)", rep.Utility, rep.EventFreq)
	}
	if rep.CorrectnessViolations < 0.2 {
		t.Errorf("replacement rate %v, expected frequent F$ replacements", rep.CorrectnessViolations)
	}
}

func TestMultiPartySetupAbort(t *testing.T) {
	proto, err := NewMultiParty(ANDn(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(proto, []sim.Value{uint64(1), uint64(1), uint64(1)},
		adversary.NewSetupAbort(2), 11)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.SetupAborted {
		t.Fatal("setup not aborted")
	}
	// Honest parties adopt F$ replacements: no unfair win for anyone.
	if oc := core.Classify(tr); oc.Event == core.E10 {
		t.Error("setup abort classified as E10")
	}
}

func TestMultiPartyTamperedShareBlocks(t *testing.T) {
	// A corrupted party broadcasting a tampered summand is filtered by
	// the MAC check; reconstruction fails and the run degrades to an
	// abort, never a wrong accepted value.
	proto, err := NewMultiParty(ANDn(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.EstimateUtility(proto, &mpTamperer{}, core.GordonKatzPayoff(), mpWorst(3), 300, 12,
		core.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	// Every worker plays the tamperer, so the report does not depend on
	// the worker count.
	rep2, err := core.EstimateUtility(proto, &mpTamperer{}, core.GordonKatzPayoff(), mpWorst(3), 300, 12,
		core.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, rep2) {
		t.Fatalf("report at parallelism 2 differs from parallelism 1:\np1: %+v\np2: %+v", rep, rep2)
	}
	if rep.EventFreq[core.E01] > 0.01 {
		// Delivered-real would require honest reconstruction to succeed
		// with a tampered share present — impossible past round 1.
		t.Logf("events: %v", rep.EventFreq)
	}
	if rep.Utility.Mean > 0.5+0.05 {
		t.Errorf("tamperer utility %v exceeds 1/p", rep.Utility)
	}
}

// mpTamperer runs party 1 honestly but corrupts its broadcast summand.
type mpTamperer struct {
	adversary.Static
}

// CloneAdversary implements sim.AdversaryCloner with a tamperer: the
// embedded Static's would clone to a passive *Static.
func (a *mpTamperer) CloneAdversary() sim.Adversary { return &mpTamperer{} }

func (a *mpTamperer) Reset(ctx *sim.AdvContext) {
	a.Static.Targets = []sim.PartyID{1}
	a.Static.Reset(ctx)
}

func (a *mpTamperer) Act(round int, inboxes map[sim.PartyID][]sim.Message, rushed []sim.Message) []sim.Message {
	out := a.Static.Act(round, inboxes, rushed)
	for i := range out {
		if sm, ok := out[i].Payload.(mpShareMsg); ok {
			sm.Share.Summand = sm.Share.Summand.Add(1)
			out[i].Payload = sm
		}
	}
	return out
}
