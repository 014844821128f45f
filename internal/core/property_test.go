package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// Property tests on classifier and utility invariants.

// randomTrace builds an arbitrary-but-wellformed trace from fuzz inputs.
func randomTrace(n, t int, learned, delivered, breach bool) *sim.Trace {
	if n < 1 {
		n = 1
	}
	n = n%8 + 1
	if t < 0 {
		t = -t
	}
	t = t % (n + 1)
	tr := &sim.Trace{
		Inputs:         make([]sim.Value, n),
		ExpectedOutput: uint64(7),
		Corrupted:      make([]bool, n),
		HonestOutputs:  make([]sim.OutputRecord, n),
		PrivacyBreach:  breach,
	}
	for i := 0; i < t; i++ {
		tr.Corrupted[i] = true
	}
	for i := t; i < n; i++ {
		if delivered {
			tr.HonestOutputs[i] = sim.OutputRecord{Value: uint64(7), OK: true}
		} else {
			tr.HonestOutputs[i] = sim.OutputRecord{OK: false}
		}
	}
	if learned {
		tr.AdvLearned = true
		tr.AdvValue = uint64(7)
	}
	return tr
}

func TestClassifyAlwaysProducesValidEvent(t *testing.T) {
	f := func(n, tc int, learned, delivered, breach bool) bool {
		oc := Classify(randomTrace(n, tc, learned, delivered, breach))
		switch oc.Event {
		case E00, E01, E10, E11:
			return true
		default:
			return false
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUtilityBoundedByPayoffRange(t *testing.T) {
	// For any trace, the payoff of its event lies in [min γ, max γ].
	g := StandardPayoff()
	f := func(n, tc int, learned, delivered, breach bool) bool {
		oc := Classify(randomTrace(n, tc, learned, delivered, breach))
		u := g.Of(oc.Event)
		return u >= 0 && u <= g.G10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestClassifyMonotoneInLearning(t *testing.T) {
	// Fixing delivery, learning can only move the event "up" in attacker
	// preference for Γ+fair vectors: E00→E10 and E01→E11.
	g := StandardPayoff()
	f := func(n, tc int, delivered bool) bool {
		if n < 0 {
			n = -n
		}
		n = n%6 + 2
		if tc < 0 {
			tc = -tc
		}
		tc = tc%(n-1) + 1 // 1..n-1: genuine partial corruption
		base := Classify(randomTrace(n, tc, false, delivered, false))
		up := Classify(randomTrace(n, tc, true, delivered, false))
		return g.Of(up.Event) >= g.Of(base.Event)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClassifyDeliveryNeverHelpsBeyondE10(t *testing.T) {
	// With learning fixed true, withholding delivery gives E10 — the
	// maximal event — and delivering gives E11: denial is always weakly
	// preferred by a Γfair attacker.
	g := StandardPayoff()
	f := func(n, tc int) bool {
		if n < 0 {
			n = -n
		}
		n = n%6 + 2
		if tc < 0 {
			tc = -tc
		}
		tc = tc%(n-1) + 1
		deny := Classify(randomTrace(n, tc, true, false, false))
		give := Classify(randomTrace(n, tc, true, true, false))
		return g.Of(deny.Event) >= g.Of(give.Event)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEstimateUtilityWithinEventHull(t *testing.T) {
	// Any measured utility is a convex combination of the payoff values.
	g := StandardPayoff()
	rep, err := EstimateUtility(flipProtocol{}, &grabber{}, g, uniformInputs, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Utility.Mean < 0 || rep.Utility.Mean > g.G10 {
		t.Errorf("utility %v outside [0, γ10]", rep.Utility.Mean)
	}
	var total float64
	for _, e := range Events() {
		total += rep.EventFreq[e]
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("event frequencies sum to %v", total)
	}
}

func TestSupUtilityIsMaxOfAll(t *testing.T) {
	advs := []NamedAdversary{
		{Name: "passive", Adv: sim.Passive{}},
		{Name: "grabber", Adv: &grabber{}},
	}
	rep, err := SupUtility(flipProtocol{}, advs, StandardPayoff(), uniformInputs, 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range rep.All {
		if r.Utility.Mean > rep.BestReport.Utility.Mean {
			t.Errorf("strategy %s (%v) beats the reported best (%v)",
				name, r.Utility.Mean, rep.BestReport.Utility.Mean)
		}
	}
}

func TestPayoffOrderingInvariants(t *testing.T) {
	// Any valid Γ+fair vector orders the events E01 ≤ E00 ≤ E11 < E10.
	f := func(a, b, c uint16) bool {
		g := Payoff{
			G01: 0,
			G00: float64(a % 100),
			G11: float64(a%100) + float64(b%100),
			G10: float64(a%100) + float64(b%100) + float64(c%100) + 1,
		}
		if g.ValidateFairPlus() != nil {
			return true // not a Γ+fair instance; nothing to check
		}
		return g.Of(E01) <= g.Of(E00) && g.Of(E00) <= g.Of(E11) && g.Of(E11) < g.Of(E10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFixedInputsIndependentOfRNG(t *testing.T) {
	s := FixedInputs(uint64(3))
	a := s(rand.New(rand.NewSource(1)))
	b := s(rand.New(rand.NewSource(999)))
	if !sim.ValuesEqual(a, b) {
		t.Error("FixedInputs depends on the RNG")
	}
}
