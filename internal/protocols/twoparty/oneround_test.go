package twoparty

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestOneRoundHonestDelivers(t *testing.T) {
	p := NewOneRound(Swap())
	tr, err := sim.Run(p, []sim.Value{uint64(3), uint64(4)}, sim.Passive{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.AllHonestDelivered() {
		t.Fatalf("honest one-round run failed: %+v", tr.HonestOutputs)
	}
	if p.Name() != "2SFE-oneround-swap" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.NumParties() != 2 || p.NumRounds() != 1 {
		t.Error("shape")
	}
}

func TestOneRoundLemma10Attack(t *testing.T) {
	// The Lemma 10 rushing attack: withhold the single opening after
	// seeing the honest one — γ10 with probability 1 for either target,
	// via both the explicit aborter and the generic lock-abort.
	g := core.StandardPayoff()
	p := NewOneRound(Swap())
	for name, adv := range map[string]sim.Adversary{
		"abort-r1": adversary.NewAbortAt(1, 2),
		"lock":     adversary.NewLockAbort(2),
	} {
		rep, err := core.EstimateUtility(p, adv, g, swapSampler, 300, 2)
		if err != nil {
			t.Fatal(err)
		}
		if rep.EventFreq[core.E10] < 0.99 {
			t.Errorf("%s: E10 freq %v (events %v)", name, rep.EventFreq[core.E10], rep.EventFreq)
		}
	}
}

func TestOneRoundSetupAbortDefaults(t *testing.T) {
	p := NewOneRound(Swap())
	tr, err := sim.Run(p, []sim.Value{uint64(7), uint64(9)}, adversary.NewSetupAbort(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := Swap().Eval(7, Swap().Default2)
	if rec := tr.HonestOutputs[1]; !rec.OK || !sim.ValuesEqual(rec.Value, want) {
		t.Errorf("p1 output %+v, want defaulted %v", rec, want)
	}
	if oc := core.Classify(tr); oc.Event != core.E01 {
		t.Errorf("event %v, want E01", oc.Event)
	}
}

func TestOneRoundGarbageShareYieldsBot(t *testing.T) {
	p := NewOneRound(Swap())
	adv := &oneRoundGarbage{}
	tr, err := sim.Run(p, []sim.Value{uint64(5), uint64(6)}, adv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rec := tr.HonestOutputs[1]; rec.OK {
		t.Errorf("garbage share accepted: %+v", rec)
	}
}

type oneRoundGarbage struct{ adversary.Static }

func (g *oneRoundGarbage) Reset(ctx *sim.AdvContext) {
	g.Static.Targets = []sim.PartyID{2}
	g.Static.Reset(ctx)
}

func (g *oneRoundGarbage) Act(round int, inboxes map[sim.PartyID][]sim.Message, rushed []sim.Message) []sim.Message {
	out := g.Static.Act(round, inboxes, rushed)
	for i := range out {
		out[i].Payload = "junk"
	}
	return out
}

func TestOneRoundOutputRangeError(t *testing.T) {
	bad := Function{Name: "huge", Eval: func(x1, x2 uint64) uint64 { return ^uint64(0) }}
	if _, err := sim.Run(NewOneRound(bad), []sim.Value{uint64(1), uint64(2)}, sim.Passive{}, 5); err == nil {
		t.Error("oversized output accepted")
	}
}

func TestBiasedOrderConstruction(t *testing.T) {
	p := NewBiasedOrder(Swap(), 0.25)
	if p.Name() != "2SFE-biased0.25-swap" {
		t.Errorf("Name = %q", p.Name())
	}
	// Empirically, p1 goes first about a quarter of the time: measure via
	// the one-sided lock-abort split (E10 for corrupt-p1 ≈ q).
	g := core.StandardPayoff()
	rep, err := core.EstimateUtility(p, adversary.NewLockAbort(1), g, swapSampler, 1500, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventFreq[core.E10] < 0.18 || rep.EventFreq[core.E10] > 0.32 {
		t.Errorf("E10 freq %v, want ≈ 0.25", rep.EventFreq[core.E10])
	}
}
