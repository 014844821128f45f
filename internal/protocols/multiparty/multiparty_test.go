package multiparty

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

const testBits = 8

func testFn(t *testing.T, n int) Function {
	t.Helper()
	fn, err := Concat(n, testBits)
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

func sampler(n int) core.InputSampler {
	return func(r *rand.Rand) []sim.Value {
		in := make([]sim.Value, n)
		for i := range in {
			in[i] = uint64(r.Intn(1 << testBits))
		}
		return in
	}
}

func TestConcatFunction(t *testing.T) {
	fn, err := Concat(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := fn.Eval([]uint64{1, 2, 3}); got != 1|2<<4|3<<8 {
		t.Errorf("concat = %d", got)
	}
	if _, err := Concat(1, 4); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := Concat(8, 10); err == nil {
		t.Error("overflowing concat accepted")
	}
}

func TestMaxAndSumFunctions(t *testing.T) {
	fn, err := Max(3)
	if err != nil {
		t.Fatal(err)
	}
	if fn.Eval([]uint64{4, 9, 2}) != 9 {
		t.Error("max")
	}
	if _, err := Max(1); err == nil {
		t.Error("Max(1) accepted")
	}
	sm, err := Sum(3)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Eval([]uint64{1, 2, 3}) != 6 {
		t.Error("sum")
	}
	if _, err := Sum(0); err == nil {
		t.Error("Sum(0) accepted")
	}
}

func TestOptNHonestRun(t *testing.T) {
	for _, n := range []int{3, 5} {
		p := NewOptN(testFn(t, n))
		inputs := make([]sim.Value, n)
		for i := range inputs {
			inputs[i] = uint64(i + 1)
		}
		for seed := int64(0); seed < 5; seed++ {
			tr, err := sim.Run(p, inputs, sim.Passive{}, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.AllHonestDelivered() {
				t.Fatalf("n=%d seed=%d: honest run failed: %+v", n, seed, tr.HonestOutputs)
			}
		}
	}
}

func TestLemma11TUtilities(t *testing.T) {
	// Lock-abort with t corruptions earns exactly (tγ10+(n−t)γ11)/n.
	g := core.StandardPayoff()
	n := 5
	p := NewOptN(testFn(t, n))
	for tcorrupt := 1; tcorrupt < n; tcorrupt++ {
		for _, set := range adversary.TSubsets(n, tcorrupt) {
			rep, err := core.EstimateUtility(p, adversary.NewLockAbort(set...), g, sampler(n), 600, int64(10+tcorrupt))
			if err != nil {
				t.Fatal(err)
			}
			bound := core.MultiPartyTBound(g, n, tcorrupt)
			if !rep.Utility.MatchesWithin(bound, 0.05) {
				t.Errorf("n=%d t=%d set=%v: utility %v, want ≈ %v (events %v)",
					n, tcorrupt, set, rep.Utility, bound, rep.EventFreq)
			}
		}
	}
}

func TestLemma11SupUpperBound(t *testing.T) {
	// No strategy in the space exceeds the t = n−1 bound.
	g := core.StandardPayoff()
	n := 4
	p := NewOptN(testFn(t, n))
	sup, err := core.SupUtility(p, adversary.MultiPartySpace(n, p.NumRounds()), g, sampler(n), 250, 20)
	if err != nil {
		t.Fatal(err)
	}
	bound := core.MultiPartyOptimalBound(g, n)
	if !sup.BestReport.Utility.LeqWithin(bound, 0.05) {
		t.Errorf("sup utility %v (via %q) exceeds Lemma 11 bound %v",
			sup.BestReport.Utility, sup.Best, bound)
	}
}

func TestLemma13MixedAdversary(t *testing.T) {
	g := core.StandardPayoff()
	n := 5
	p := NewOptN(testFn(t, n))
	rep, err := core.EstimateUtility(p, adversary.NewAllButMixer(n), g, sampler(n), 900, 30)
	if err != nil {
		t.Fatal(err)
	}
	bound := core.MultiPartyOptimalBound(g, n)
	if !rep.Utility.MatchesWithin(bound, 0.05) {
		t.Errorf("allbut-mixer utility %v, want ≈ %v (events %v)", rep.Utility, bound, rep.EventFreq)
	}
}

// perTBest measures the best t-adversary utility for each t = 1..n−1.
func perTBest(t *testing.T, p sim.Protocol, g core.Payoff, n, runs int, seed int64, extra map[int][]core.NamedAdversary) core.PerTUtilities {
	t.Helper()
	out := make(core.PerTUtilities, 0, n-1)
	for tc := 1; tc < n; tc++ {
		space := adversary.MultiPartyTSpace(n, tc, p.NumRounds())
		space = append(space, extra[tc]...)
		sup, err := core.SupUtility(p, space, g, sampler(n), runs, seed+int64(tc))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sup.BestReport.Utility.Mean)
	}
	return out
}

func TestLemma14BalancedSum(t *testing.T) {
	// ΠOpt-nSFE's per-t utility sum meets the balanced bound.
	g := core.StandardPayoff()
	n := 4
	p := NewOptN(testFn(t, n))
	per := perTBest(t, p, g, n, 250, 40, nil)
	bound := core.BalancedSumBound(g, n)
	if math.Abs(per.Sum()-bound) > 0.1 {
		t.Errorf("per-t sum = %v (%v), want ≈ %v", per.Sum(), per, bound)
	}
	if !core.IsUtilityBalanced(per, g, 0.1) {
		t.Error("ΠOpt-nSFE should be utility-balanced")
	}
}

func TestLemma17GMWProfile(t *testing.T) {
	// Π_GMW^{1/2}, n = 4: t < 2 earns γ11; t ≥ 2 earns γ10.
	g := core.StandardPayoff()
	n := 4
	p := NewGMWHalf(testFn(t, n))
	extra := make(map[int][]core.NamedAdversary)
	for tc := 1; tc < n; tc++ {
		for si, set := range adversary.TSubsets(n, tc) {
			extra[tc] = append(extra[tc], core.NamedAdversary{
				Name: fmt.Sprintf("gmw-setup-t%d-s%d", tc, si),
				Adv:  NewGMWSetupAttacker(set...),
			})
		}
	}
	per := perTBest(t, p, g, n, 250, 50, extra)
	wants := []float64{g.G11, g.G10, g.G10}
	for i, want := range wants {
		if math.Abs(per[i]-want) > 0.05 {
			t.Errorf("t=%d: utility %v, want %v", i+1, per[i], want)
		}
	}
	// The step profile exceeds the balanced bound: not utility-balanced.
	if core.IsUtilityBalanced(per, g, 0.05) {
		t.Errorf("even-n GMW must not be balanced: sum %v vs bound %v",
			per.Sum(), core.BalancedSumBound(g, n))
	}
	if per.Sum() < core.GMWEvenNSumLowerBound(g, n)-0.1 {
		t.Errorf("sum %v below Lemma 17 bound %v", per.Sum(), core.GMWEvenNSumLowerBound(g, n))
	}
}

func TestGMWHonestMajorityRobust(t *testing.T) {
	// Below n/2 corruptions everything delivers even under attack.
	n := 5
	p := NewGMWHalf(testFn(t, n))
	inputs := make([]sim.Value, n)
	for i := range inputs {
		inputs[i] = uint64(i)
	}
	for _, adv := range []sim.Adversary{
		adversary.NewLockAbort(1, 2),
		adversary.NewSetupAbort(1, 2),
		adversary.NewAbortAt(1, 1, 2),
	} {
		tr, err := sim.Run(p, inputs, adv, 60)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.AllHonestDelivered() {
			t.Errorf("honest majority failed to deliver under %T: %+v", adv, tr.HonestOutputs)
		}
	}
}

func TestGMWDishonestMajorityBreaks(t *testing.T) {
	// With ⌈n/2⌉ corruptions, lock-abort earns γ10 every run.
	g := core.StandardPayoff()
	n := 4
	p := NewGMWHalf(testFn(t, n))
	rep, err := core.EstimateUtility(p, NewGMWSetupAttacker(1, 2), g, sampler(n), 300, 70)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventFreq[core.E10] < 0.99 {
		t.Errorf("E10 freq %v, want ~1 (events %v)", rep.EventFreq[core.E10], rep.EventFreq)
	}
}

func TestLemma18AttackerUtility(t *testing.T) {
	// u = 1/n·γ10 + (n−1)/n·(γ10+γ11)/2 for the single-corruption attack.
	g := core.StandardPayoff()
	n := 4
	p := NewLemma18(testFn(t, n))
	rep, err := core.EstimateUtility(p, NewLemma18Attacker(2), g, sampler(n), 900, 80)
	if err != nil {
		t.Fatal(err)
	}
	want := g.G10/float64(n) + float64(n-1)/float64(n)*(g.G10+g.G11)/2
	if !rep.Utility.MatchesWithin(want, 0.05) {
		t.Errorf("Lemma18 attacker utility %v, want ≈ %v (events %v)", rep.Utility, want, rep.EventFreq)
	}
}

func TestLemma18StillOptimallyFair(t *testing.T) {
	// The sup over the standard space (plus the special attacker) stays
	// at the optimal bound ((n−1)γ10+γ11)/n — the Lemma 18 protocol is
	// optimally fair even though one t=1 strategy beats ΠOpt-nSFE's t=1
	// profile.
	g := core.StandardPayoff()
	n := 4
	p := NewLemma18(testFn(t, n))
	space := append(adversary.MultiPartySpace(n, p.NumRounds()),
		core.NamedAdversary{Name: "lemma18-special", Adv: NewLemma18Attacker(1)})
	sup, err := core.SupUtility(p, space, g, sampler(n), 300, 90)
	if err != nil {
		t.Fatal(err)
	}
	bound := core.MultiPartyOptimalBound(g, n)
	if !sup.BestReport.Utility.LeqWithin(bound, 0.06) {
		t.Errorf("sup %v (via %q) exceeds optimal bound %v", sup.BestReport.Utility, sup.Best, bound)
	}
}

func TestLemma18NotBalanced(t *testing.T) {
	// With the special attacker included in the t=1 space, the per-t sum
	// exceeds the balanced bound.
	g := core.StandardPayoff()
	n := 4
	p := NewLemma18(testFn(t, n))
	extra := map[int][]core.NamedAdversary{
		1: {{Name: "lemma18-special", Adv: NewLemma18Attacker(1)}},
	}
	per := perTBest(t, p, g, n, 300, 100, extra)
	if core.IsUtilityBalanced(per, g, 0.05) {
		t.Errorf("Lemma18 protocol must not be balanced: per-t %v sum %v vs bound %v",
			per, per.Sum(), core.BalancedSumBound(g, n))
	}
}

func TestHybridOddNotOptimal(t *testing.T) {
	// Π0 with odd n runs GMW-1/2: corrupting ⌈n/2⌉ = 3 of 5 earns γ10,
	// strictly above ΠOpt-nSFE's ceiling — not optimally fair.
	g := core.StandardPayoff()
	n := 5
	p := NewHybrid(testFn(t, n))
	rep, err := core.EstimateUtility(p, adversary.NewLockAbort(1, 2, 3), g, sampler(n), 300, 110)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Utility.MatchesWithin(g.G10, 0.03) {
		t.Errorf("Π0 odd-n attack utility %v, want γ10 (events %v)", rep.Utility, rep.EventFreq)
	}
	if rep.Utility.Mean <= core.MultiPartyOptimalBound(g, n)+0.05 {
		t.Error("attack should exceed the optimal-fairness bound")
	}
}

func TestHybridOddIsBalanced(t *testing.T) {
	// For odd n the GMW step profile sums exactly to the balanced bound.
	g := core.StandardPayoff()
	n := 5
	p := NewHybrid(testFn(t, n))
	per := perTBest(t, p, g, n, 250, 120, nil)
	bound := core.BalancedSumBound(g, n)
	if math.Abs(per.Sum()-bound) > 0.12 {
		t.Errorf("odd-n Π0 per-t sum %v (%v), want ≈ %v", per.Sum(), per, bound)
	}
}

func TestHybridEvenDelegatesToOptN(t *testing.T) {
	n := 4
	p := NewHybrid(testFn(t, n))
	if got := p.Name(); got != "nSFE-hybrid0(nSFE-opt-concat-4x8)" {
		t.Errorf("Name = %q", got)
	}
	if !p.SetupAbortable(1) {
		t.Error("OptN inner protocol should be abortable")
	}
	podd := NewHybrid(testFn(t, 5))
	if podd.SetupAbortable(1) {
		t.Error("odd-n hybrid should be robust below threshold")
	}
	if !podd.SetupAbortable(3) {
		t.Error("odd-n hybrid abortable at threshold")
	}
}

func TestSetupAbortOptNEndsInBot(t *testing.T) {
	// "If Π_GMW aborts then ΠOpt-nSFE also aborts": E00.
	n := 3
	p := NewOptN(testFn(t, n))
	tr, err := sim.Run(p, []sim.Value{uint64(1), uint64(2), uint64(3)}, adversary.NewSetupAbort(1), 130)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.SetupAborted {
		t.Fatal("setup not aborted")
	}
	if oc := core.Classify(tr); oc.Event != core.E00 {
		t.Errorf("event %v, want E00", oc.Event)
	}
}

func TestForgedBroadcastRejected(t *testing.T) {
	// A corrupted non-holder broadcasting a forged output is ignored
	// (signature check), so honest parties still adopt only the real one.
	n := 3
	p := NewOptN(testFn(t, n))
	adv := &forger{}
	rep, err := core.EstimateUtility(p, adv, core.StandardPayoff(), sampler(n), 200, 140)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorrectnessViolations > 0 {
		t.Errorf("forged broadcast accepted in %v of runs", rep.CorrectnessViolations)
	}
}

// forger corrupts p1 and broadcasts a bogus signed output every round.
type forger struct {
	adversary.Static
}

// CloneAdversary implements sim.AdversaryCloner with a forger: the
// embedded Static's would clone to a passive *Static.
func (f *forger) CloneAdversary() sim.Adversary { return &forger{} }

func (f *forger) Reset(ctx *sim.AdvContext) {
	f.Static.Targets = []sim.PartyID{1}
	f.Static.Reset(ctx)
}

func (f *forger) Act(round int, inboxes map[sim.PartyID][]sim.Message, rushed []sim.Message) []sim.Message {
	out := f.Static.Act(round, inboxes, rushed)
	return append(out, sim.Message{From: 1, To: sim.Broadcast,
		Payload: outMsg{HasOutput: true, Y: 424242, Sigma: []byte("forged")}})
}
