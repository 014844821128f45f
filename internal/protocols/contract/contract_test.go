package contract

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

func sampler(r *rand.Rand) []sim.Value {
	return []sim.Value{uint64(r.Int63()), uint64(r.Int63())}
}

func TestPi1HonestRun(t *testing.T) {
	tr, err := sim.Run(Pi1{}, []sim.Value{uint64(111), uint64(222)}, sim.Passive{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.AllHonestDelivered() {
		t.Errorf("honest Π1 run failed: %+v", tr.HonestOutputs)
	}
	want := Pair{S1: 111, S2: 222}
	if !sim.ValuesEqual(tr.ExpectedOutput, want) {
		t.Errorf("expected output = %v, want %v", tr.ExpectedOutput, want)
	}
}

func TestPi2HonestRun(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ { // both coin outcomes
		tr, err := sim.Run(Pi2{}, []sim.Value{uint64(5), uint64(6)}, sim.Passive{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.AllHonestDelivered() {
			t.Fatalf("seed %d: honest Π2 run failed: %+v", seed, tr.HonestOutputs)
		}
	}
}

func TestPi1CorruptP2AlwaysWins(t *testing.T) {
	// The Introduction's claim: against Π1 the attacker corrupting the
	// second opener always provokes E10 (utility γ10).
	g := core.StandardPayoff()
	rep, err := core.EstimateUtility(Pi1{}, adversary.NewLockAbort(2), g, sampler, 400, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventFreq[core.E10] < 0.99 {
		t.Errorf("lock-abort-p2 vs Π1: E10 freq = %v, want ~1 (events %v)",
			rep.EventFreq[core.E10], rep.EventFreq)
	}
	if !rep.Utility.MatchesWithin(g.G10, 0.02) {
		t.Errorf("utility = %v, want γ10 = %v", rep.Utility, g.G10)
	}
}

func TestPi1CorruptP1OnlyTies(t *testing.T) {
	// Corrupting the first opener gains nothing: E11.
	g := core.StandardPayoff()
	rep, err := core.EstimateUtility(Pi1{}, adversary.NewLockAbort(1), g, sampler, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventFreq[core.E11] < 0.99 {
		t.Errorf("lock-abort-p1 vs Π1: E11 freq = %v (events %v)",
			rep.EventFreq[core.E11], rep.EventFreq)
	}
}

func TestPi2HalvesTheAttack(t *testing.T) {
	// Against Π2, lock-and-abort on either side gets E10 only when the
	// coin sends the honest party first: utility (γ10+γ11)/2.
	g := core.StandardPayoff()
	bound := core.TwoPartyOptimalBound(g)
	for _, target := range []sim.PartyID{1, 2} {
		rep, err := core.EstimateUtility(Pi2{}, adversary.NewLockAbort(target), g, sampler, 600, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Utility.MatchesWithin(bound, 0.05) {
			t.Errorf("lock-abort-p%d vs Π2: utility %v, want ≈ %v (events %v)",
				target, rep.Utility, bound, rep.EventFreq)
		}
		// E10 and E11 should each occur about half the time.
		if rep.EventFreq[core.E10] < 0.4 || rep.EventFreq[core.E10] > 0.6 {
			t.Errorf("E10 freq = %v, want ≈ 0.5", rep.EventFreq[core.E10])
		}
	}
}

func TestPi2IsFairerThanPi1(t *testing.T) {
	// The headline comparison: Π2 ≻γ Π1.
	g := core.StandardPayoff()
	space1 := adversary.TwoPartySpace(Pi1{}.NumRounds())
	space2 := adversary.TwoPartySpace(Pi2{}.NumRounds())
	sup1, err := core.SupUtility(Pi1{}, space1, g, sampler, 250, 5)
	if err != nil {
		t.Fatal(err)
	}
	sup2, err := core.SupUtility(Pi2{}, space2, g, sampler, 250, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rel := core.Compare(sup2.BestReport.Utility, sup1.BestReport.Utility, 0.05); rel != core.StrictlyFairer {
		t.Errorf("Π2 vs Π1: relation = %v (sup2=%v via %q, sup1=%v via %q)",
			rel, sup2.BestReport.Utility, sup2.Best, sup1.BestReport.Utility, sup1.Best)
	}
	// Quantitatively: sup1 ≈ γ10, sup2 ≈ (γ10+γ11)/2.
	if !sup1.BestReport.Utility.MatchesWithin(g.G10, 0.05) {
		t.Errorf("sup u(Π1) = %v, want ≈ γ10", sup1.BestReport.Utility)
	}
	if !sup2.BestReport.Utility.MatchesWithin(core.TwoPartyOptimalBound(g), 0.05) {
		t.Errorf("sup u(Π2) = %v, want ≈ (γ10+γ11)/2", sup2.BestReport.Utility)
	}
}

func TestPi1AbortSweepNeverBeatsLockAbort(t *testing.T) {
	g := core.StandardPayoff()
	lock, err := core.EstimateUtility(Pi1{}, adversary.NewLockAbort(2), g, sampler, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 4; r++ {
		rep, err := core.EstimateUtility(Pi1{}, adversary.NewAbortAt(r, 2), g, sampler, 300, 8)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Utility.Mean > lock.Utility.Mean+0.03 {
			t.Errorf("abort-at-%d (%v) beats lock-abort (%v)", r, rep.Utility, lock.Utility)
		}
	}
}

func TestSigCodec(t *testing.T) {
	for _, s := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		got, ok := decodeSig(encodeSig(s))
		if !ok || got != s {
			t.Errorf("roundtrip %d -> %d ok=%v", s, got, ok)
		}
	}
	if _, ok := decodeSig([]byte{1, 2}); ok {
		t.Error("short decode accepted")
	}
}

func TestPi2TamperedCoinOpeningAborts(t *testing.T) {
	// An adversary that opens a coin bit inconsistent with its commitment
	// is caught: honest party aborts (E00-style), it never gets γ10.
	adv := &coinCheater{}
	g := core.StandardPayoff()
	rep, err := core.EstimateUtility(Pi2{}, adv, g, sampler, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventFreq[core.E10] > 0.01 {
		t.Errorf("coin cheater achieved E10 freq %v", rep.EventFreq[core.E10])
	}
}

// coinCheater runs p2 honestly except it flips the coin opening bit at
// round 2 (breaking the commitment binding check).
type coinCheater struct {
	adversary.Static
}

// CloneAdversary implements sim.AdversaryCloner with a cheater: the
// embedded Static's would clone to a passive *Static.
func (c *coinCheater) CloneAdversary() sim.Adversary { return &coinCheater{} }

func (c *coinCheater) Reset(ctx *sim.AdvContext) {
	c.Static.Targets = []sim.PartyID{2}
	c.Static.Reset(ctx)
}

func (c *coinCheater) Act(round int, inboxes map[sim.PartyID][]sim.Message, rushed []sim.Message) []sim.Message {
	out := c.Static.Act(round, inboxes, rushed)
	if round != 2 {
		return out
	}
	for i := range out {
		om, ok := asOpenMsg(out[i].Payload)
		if !ok {
			continue
		}
		flipped := om
		flipped.Opening.Message = []byte{om.Opening.Message[0] ^ 1}
		out[i].Payload = flipped
	}
	return out
}
