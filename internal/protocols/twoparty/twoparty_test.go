package twoparty

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

func swapSampler(r *rand.Rand) []sim.Value {
	return []sim.Value{uint64(r.Intn(1 << 20)), uint64(r.Intn(1 << 20))}
}

func TestHonestRunDelivers(t *testing.T) {
	p := New(Swap())
	for seed := int64(0); seed < 6; seed++ { // both orders of i
		tr, err := sim.Run(p, []sim.Value{uint64(10), uint64(20)}, sim.Passive{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.AllHonestDelivered() {
			t.Fatalf("seed %d: honest run failed: %+v", seed, tr.HonestOutputs)
		}
		want := Swap().Eval(10, 20)
		if !sim.ValuesEqual(tr.ExpectedOutput, want) {
			t.Fatalf("expected output %v, want %v", tr.ExpectedOutput, want)
		}
	}
}

func TestSwapFunction(t *testing.T) {
	f := Swap()
	y := f.Eval(3, 5)
	if y != 5<<SwapBits|3 {
		t.Errorf("swap(3,5) = %d", y)
	}
}

func TestMillionairesFunction(t *testing.T) {
	f := Millionaires()
	if f.Eval(5, 3) != 1 || f.Eval(3, 5) != 0 || f.Eval(4, 4) != 0 {
		t.Error("millionaires semantics")
	}
}

func TestSetupAbortFallsBackToDefaults(t *testing.T) {
	p := New(Swap())
	adv := adversary.NewSetupAbort(2)
	tr, err := sim.Run(p, []sim.Value{uint64(7), uint64(9)}, adv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.SetupAborted {
		t.Fatal("setup not aborted")
	}
	// Honest p1 computes f(7, default2) locally.
	want := Swap().Eval(7, Swap().Default2)
	rec := tr.HonestOutputs[0]
	if !rec.OK || !sim.ValuesEqual(rec.Value, want) {
		t.Errorf("p1 output %+v, want %v", rec, want)
	}
	// Classified E01: the adversary gains nothing.
	if oc := core.Classify(tr); oc.Event != core.E01 {
		t.Errorf("event = %v, want E01", oc.Event)
	}
}

func TestTheorem3UpperBound(t *testing.T) {
	// No strategy in the two-party space beats (γ10+γ11)/2 against
	// ΠOpt-2SFE.
	g := core.StandardPayoff()
	p := New(Swap())
	sup, err := core.SupUtility(p, adversary.TwoPartySpace(p.NumRounds()), g, swapSampler, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	bound := core.TwoPartyOptimalBound(g)
	if !sup.BestReport.Utility.LeqWithin(bound, 0.04) {
		t.Errorf("sup utility %v (via %q) exceeds Theorem 3 bound %v",
			sup.BestReport.Utility, sup.Best, bound)
	}
}

func TestTheorem4LowerBound(t *testing.T) {
	// Agen achieves (γ10+γ11)/2 against ΠOpt-2SFE for the swap function.
	g := core.StandardPayoff()
	p := New(Swap())
	rep, err := core.EstimateUtility(p, adversary.NewAgen(), g, swapSampler, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	bound := core.TwoPartyOptimalBound(g)
	if !rep.Utility.MatchesWithin(bound, 0.05) {
		t.Errorf("Agen utility %v, want ≈ %v (events %v)", rep.Utility, bound, rep.EventFreq)
	}
}

func TestLemma7PairSum(t *testing.T) {
	// u(A1) + u(A2) ≥ γ10 + γ11.
	g := core.StandardPayoff()
	p := New(Swap())
	u1, err := core.EstimateUtility(p, adversary.NewLockAbort(1), g, swapSampler, 600, 4)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := core.EstimateUtility(p, adversary.NewLockAbort(2), g, swapSampler, 600, 5)
	if err != nil {
		t.Fatal(err)
	}
	sum := u1.Utility.Mean + u2.Utility.Mean
	if sum < core.TwoPartyLowerPairSum(g)-0.06 {
		t.Errorf("u(A1)+u(A2) = %v < %v", sum, core.TwoPartyLowerPairSum(g))
	}
}

func TestFixedOrderBaselineIsUnfair(t *testing.T) {
	// The fixed-order variant grants γ10 to the attacker corrupting the
	// first receiver — it is strictly less fair than ΠOpt-2SFE.
	g := core.StandardPayoff()
	p := NewFixedOrder(Swap(), 2)
	rep, err := core.EstimateUtility(p, adversary.NewLockAbort(2), g, swapSampler, 400, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Utility.MatchesWithin(g.G10, 0.03) {
		t.Errorf("fixed-order utility %v, want γ10 (events %v)", rep.Utility, rep.EventFreq)
	}
	opt, err := core.EstimateUtility(New(Swap()), adversary.NewAgen(), g, swapSampler, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rel := core.Compare(opt.Utility, rep.Utility, 0.05); rel != core.StrictlyFairer {
		t.Errorf("optimal vs fixed-order relation = %v", rel)
	}
}

func TestLockAbortEventSplit(t *testing.T) {
	// One-sided lock-abort vs ΠOpt-2SFE: E10 when the corrupted party is
	// drawn first (prob 1/2), E11 otherwise.
	g := core.StandardPayoff()
	p := New(Swap())
	rep, err := core.EstimateUtility(p, adversary.NewLockAbort(1), g, swapSampler, 800, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventFreq[core.E10] < 0.42 || rep.EventFreq[core.E10] > 0.58 {
		t.Errorf("E10 freq = %v, want ≈ 0.5 (events %v)", rep.EventFreq[core.E10], rep.EventFreq)
	}
	if rep.EventFreq[core.E11] < 0.42 || rep.EventFreq[core.E11] > 0.58 {
		t.Errorf("E11 freq = %v, want ≈ 0.5", rep.EventFreq[core.E11])
	}
}

func TestInvalidShareTriggersFallback(t *testing.T) {
	// A corrupted non-first party sending garbage in round 1 is detected:
	// the first party locally evaluates with the default input.
	p := NewFixedOrder(Swap(), 1) // party 1 receives first; corrupt party 2
	adv := &garbageSender{}
	tr, err := sim.Run(p, []sim.Value{uint64(5), uint64(6)}, adv, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := Swap().Eval(5, Swap().Default2)
	rec := tr.HonestOutputs[0]
	if !rec.OK || !sim.ValuesEqual(rec.Value, want) {
		t.Errorf("p1 output %+v, want defaulted %v", rec, want)
	}
	if oc := core.Classify(tr); oc.Event != core.E01 {
		t.Errorf("event = %v, want E01", oc.Event)
	}
}

// garbageSender corrupts p2 and replaces its round-1 opening with junk.
type garbageSender struct {
	adversary.Static
}

func (gs *garbageSender) Reset(ctx *sim.AdvContext) {
	gs.Static.Targets = []sim.PartyID{2}
	gs.Static.Reset(ctx)
}

func (gs *garbageSender) Act(round int, inboxes [][]sim.Message, rushed []sim.Message) []sim.Message {
	out := gs.Static.Act(round, inboxes, rushed)
	if round == 1 {
		for i := range out {
			out[i].Payload = "garbage"
		}
	}
	return out
}

func TestOutputRangeError(t *testing.T) {
	bad := Function{Name: "huge", Eval: func(x1, x2 uint64) uint64 { return ^uint64(0) }}
	p := New(bad)
	if _, err := sim.Run(p, []sim.Value{uint64(1), uint64(2)}, sim.Passive{}, 1); err == nil {
		t.Error("oversized output accepted")
	}
}

func TestNames(t *testing.T) {
	if New(Swap()).Name() != "2SFE-opt-swap" {
		t.Error(New(Swap()).Name())
	}
	if NewFixedOrder(Swap(), 2).Name() != "2SFE-fixed2-swap" {
		t.Error(NewFixedOrder(Swap(), 2).Name())
	}
}
