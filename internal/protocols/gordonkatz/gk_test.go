package gordonkatz

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

func andSampler(r *rand.Rand) []sim.Value {
	return []sim.Value{uint64(r.Intn(2)), uint64(r.Intn(2))}
}

// worstInputs is the environment of the GK lower-bound analysis for AND:
// x = (1, 1), where the output fully depends on the counterparty.
func worstInputs(*rand.Rand) []sim.Value {
	return []sim.Value{uint64(1), uint64(1)}
}

func TestPolyDomainHonestRun(t *testing.T) {
	p, err := NewPolyDomain(AND(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]sim.Value{
		{uint64(0), uint64(0)}, {uint64(0), uint64(1)},
		{uint64(1), uint64(0)}, {uint64(1), uint64(1)},
	} {
		for seed := int64(0); seed < 4; seed++ {
			tr, err := sim.Run(p, in, sim.Passive{}, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.AllHonestDelivered() {
				t.Fatalf("in=%v seed=%d: honest run wrong: %+v (expected %v)",
					in, seed, tr.HonestOutputs, tr.ExpectedOutput)
			}
		}
	}
}

func TestPolyDomainParamErrors(t *testing.T) {
	if _, err := NewPolyDomain(AND(), 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := NewPolyDomain(TwoPartyFn{Name: "bad"}, 2); err == nil {
		t.Error("invalid fn accepted")
	}
	if _, err := NewPolyRange(AND(), 0); err == nil {
		t.Error("polyrange p=0 accepted")
	}
	bad := AND()
	bad.Range = nil
	if _, err := NewPolyRange(bad, 2); err == nil {
		t.Error("empty range accepted")
	}
	// A p whose round count overflows an int (p = 2^62 wraps p²·|Z| to
	// 0 iterations) is refused, not built with a wrapped round count.
	if _, err := NewPolyDomain(AND(), 1<<62); !errors.Is(err, ErrBadParam) {
		t.Errorf("polydomain p=2^62: err = %v, want ErrBadParam", err)
	}
	if _, err := NewPolyRange(AND(), 1<<62); !errors.Is(err, ErrBadParam) {
		t.Errorf("polyrange p=2^62: err = %v, want ErrBadParam", err)
	}
	if _, err := NewPolyRange(AND(), 1<<30); err != nil {
		t.Errorf("polyrange p=2^30 fits an int: %v", err)
	}
}

func TestTheorem23UtilityBound(t *testing.T) {
	// ū_A ≤ 1/p for ~γ = (0,0,1,0), even for the strongest first-hit
	// attacker (lock-abort) under the worst-case environment.
	g := core.GordonKatzPayoff()
	for _, p := range []int{2, 4, 8} {
		proto, err := NewPolyDomain(AND(), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []sim.PartyID{1, 2} {
			for name, adv := range map[string]sim.Adversary{
				"lock-abort": adversary.NewLockAbort(target),
				"first-hit":  NewFirstHit(target),
			} {
				rep, err := core.EstimateUtility(proto, adv, g, worstInputs, 1200, int64(p))
				if err != nil {
					t.Fatal(err)
				}
				bound := 1.0 / float64(p)
				if !rep.Utility.LeqWithin(bound, 0.03) {
					t.Errorf("p=%d target=%d %s: utility %v exceeds 1/p = %v (events %v)",
						p, target, name, rep.Utility, bound, rep.EventFreq)
				}
			}
		}
	}
}

func TestTheorem23LowerIsNontrivial(t *testing.T) {
	// The first-hit attacker on p1 actually achieves Θ(1/p): for AND at
	// x=(1,1), E10 frequency should be close to 1/p (between 1/(2p) and
	// 1/p + slack), confirming the bound is tight in shape.
	g := core.GordonKatzPayoff()
	for _, p := range []int{2, 4} {
		proto, err := NewPolyDomain(AND(), p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.EstimateUtility(proto, adversary.NewLockAbort(1), g, worstInputs, 2000, int64(40+p))
		if err != nil {
			t.Fatal(err)
		}
		lo := 1.0 / (2.0 * float64(p))
		if rep.Utility.Mean < lo {
			t.Errorf("p=%d: utility %v below Θ(1/p) expectation (≥ %v)", p, rep.Utility, lo)
		}
	}
}

func TestGKRoundComplexity(t *testing.T) {
	pd, err := NewPolyDomain(Lookup4(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Iterations != 3*4 {
		t.Errorf("polydomain iterations = %d, want p·|Y| = 12", pd.Iterations)
	}
	pr, err := NewPolyRange(Lookup4(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Iterations != 3*3*4 {
		t.Errorf("polyrange iterations = %d, want p²·|Z| = 36", pr.Iterations)
	}
}

func TestPolyRangeHonestAndBound(t *testing.T) {
	g := core.GordonKatzPayoff()
	proto, err := NewPolyRange(AND(), 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(proto, []sim.Value{uint64(1), uint64(1)}, sim.Passive{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.AllHonestDelivered() {
		t.Fatalf("honest polyrange run failed: %+v", tr.HonestOutputs)
	}
	rep, err := core.EstimateUtility(proto, adversary.NewLockAbort(1), g, worstInputs, 800, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Utility.LeqWithin(1.0/3.0, 0.03) {
		t.Errorf("polyrange utility %v exceeds 1/p (events %v)", rep.Utility, rep.EventFreq)
	}
}

func TestEarlyAbortGivesRandomOutput(t *testing.T) {
	// Aborting at iteration 1 (almost surely before i*) leaves the honest
	// party with a fake value — a correctness "violation" that is exactly
	// the F_sfe^$ random replacement, and the attacker earns nothing.
	g := core.GordonKatzPayoff()
	proto, err := NewPolyDomain(AND(), 8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.EstimateUtility(proto, adversary.NewAbortAt(2, 1), g, worstInputs, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	// E10 only when i* = 1: probability 1/r = 1/16.
	if !rep.Utility.LeqWithin(1.0/16.0, 0.03) {
		t.Errorf("abort-at-1 utility %v, want ≤ 1/16 (events %v)", rep.Utility, rep.EventFreq)
	}
	if rep.CorrectnessViolations < 0.3 {
		t.Errorf("expected frequent F$ random replacements, got %v", rep.CorrectnessViolations)
	}
}

func TestAuditRejectsCoincidences(t *testing.T) {
	// An adversary aborting before i* whose last value coincides with the
	// real output must NOT be counted as having learned: with x=(1,1) and
	// abort at iteration 1, a_1 = ŷ equals y = 1 half the time, yet E10
	// frequency stays ≈ 1/r, not ≈ 1/2.
	g := core.GordonKatzPayoff()
	proto, err := NewPolyDomain(AND(), 4) // r = 8
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.EstimateUtility(proto, adversary.NewAbortAt(2, 1), g, worstInputs, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventFreq[core.E10] > 0.2 {
		t.Errorf("E10 freq %v — coincidental values counted as learned", rep.EventFreq[core.E10])
	}
}

func TestSetupAbortGK(t *testing.T) {
	proto, err := NewPolyDomain(AND(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(proto, []sim.Value{uint64(1), uint64(1)}, adversary.NewSetupAbort(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.SetupAborted {
		t.Fatal("setup not aborted")
	}
	// Honest p2 falls back to f(default1, x2) = 0 — delivered-by-default.
	if oc := core.Classify(tr); oc.Event != core.E01 {
		t.Errorf("event %v, want E01", oc.Event)
	}
}

func TestPitildeHonestRun(t *testing.T) {
	proto, err := NewPitilde()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range [][]sim.Value{
		{uint64(0), uint64(0)}, {uint64(1), uint64(1)}, {uint64(1), uint64(0)},
	} {
		tr, err := sim.Run(proto, in, sim.Passive{}, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.AllHonestDelivered() {
			t.Fatalf("in=%v: honest Π̃ run failed: %+v", in, tr.HonestOutputs)
		}
	}
}

func TestLemma27PitildeIsHalfSecure(t *testing.T) {
	// By Gordon–Katz standards Π̃ is 1/2-secure: the utility under
	// ~γ = (0,0,1,0) stays below 1/2 for the whole strategy space.
	g := core.GordonKatzPayoff()
	proto, err := NewPitilde()
	if err != nil {
		t.Fatal(err)
	}
	advs := []core.NamedAdversary{
		{Name: "lock-p1", Adv: adversary.NewLockAbort(1)},
		{Name: "lock-p2", Adv: adversary.NewLockAbort(2)},
		{Name: "leak-extractor", Adv: NewLeakExtractor()},
	}
	sup, err := core.SupUtility(proto, advs, g, worstInputs, 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !sup.BestReport.Utility.LeqWithin(0.5, 0.03) {
		t.Errorf("Π̃ sup utility %v (via %q) exceeds 1/2", sup.BestReport.Utility, sup.Best)
	}
}

func TestLemma26PitildeLeaksInput(t *testing.T) {
	// The extractor obtains p1's input with probability ≈ 1/4 — the
	// privacy breach that separates Π̃ from any F_sfe^$-realizing
	// protocol.
	proto, err := NewPitilde()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.EstimateUtility(proto, NewLeakExtractor(), core.GordonKatzPayoff(),
		func(r *rand.Rand) []sim.Value { return []sim.Value{uint64(r.Intn(2)), uint64(0)} }, 1200, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrivacyBreaches < 0.18 || rep.PrivacyBreaches > 0.32 {
		t.Errorf("breach rate %v, want ≈ 1/4", rep.PrivacyBreaches)
	}
}

func TestPolyDomainNoBreachBaseline(t *testing.T) {
	// The genuine GK protocol never leaks inputs: breach rate 0 under the
	// same extractor-style probing (the extractor finds nothing to read).
	proto, err := NewPolyDomain(AND(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.EstimateUtility(proto, NewLeakExtractor(), core.GordonKatzPayoff(), andSampler, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrivacyBreaches != 0 {
		t.Errorf("GK protocol 'leaked' in %v of runs", rep.PrivacyBreaches)
	}
}

func TestLemma25OurNotionImpliesPSecurity(t *testing.T) {
	// Lemma 25's quantitative content: a protocol whose measured utility
	// under (0,0,1,0) is ≤ 1/p yields 1/p'-security. We check the
	// chain on PolyDomain(p=4): utility ≤ 1/4 and no privacy breaches
	// under the documented strategy space.
	g := core.GordonKatzPayoff()
	proto, err := NewPolyDomain(AND(), 4)
	if err != nil {
		t.Fatal(err)
	}
	advs := append(adversary.TwoPartySpace(6), // abort sweep over early rounds
		core.NamedAdversary{Name: "leak-extractor", Adv: NewLeakExtractor()})
	sup, err := core.SupUtility(proto, advs, g, worstInputs, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !sup.BestReport.Utility.LeqWithin(0.25, 0.04) {
		t.Errorf("sup %v (via %q) exceeds 1/4", sup.BestReport.Utility, sup.Best)
	}
	if sup.BestReport.PrivacyBreaches != 0 {
		t.Error("privacy breach against the genuine GK protocol")
	}
}

func TestGKNames(t *testing.T) {
	pd, err := NewPolyDomain(AND(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Name() != "gk-polydomain-and-p2" {
		t.Error(pd.Name())
	}
	pr, err := NewPolyRange(AND(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Name() != "gk-polyrange-and-p2" {
		t.Error(pr.Name())
	}
	pt, err := NewPitilde()
	if err != nil {
		t.Fatal(err)
	}
	if pt.Name() != "gk-pitilde-and" {
		t.Error(pt.Name())
	}
}

func TestMeasuredMatchesExactFirstHit(t *testing.T) {
	// The lock-abort E10 frequency against PolyDomain(AND, p) at x=(1,1)
	// must match the closed form (1−(1−h)^r)/(r·h) with h = 1/2 (the
	// chance a fake a_i = ŷ equals y = 1) and r = 2p.
	g := core.GordonKatzPayoff()
	for _, p := range []int{2, 4, 8} {
		proto, err := NewPolyDomain(AND(), p)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.EstimateUtility(proto, NewFirstHit(1), g, worstInputs, 3000, int64(60+p))
		if err != nil {
			t.Fatal(err)
		}
		exact := core.GKFirstHitExact(proto.Iterations, 0.5)
		if !rep.Utility.MatchesWithin(exact, 0.02) {
			t.Errorf("p=%d: measured %v, exact %v", p, rep.Utility, exact)
		}
	}
}

// TestZeroFakeHitFirstHitCertain settles the h = 0 semantics of
// core.GKFirstHitExact by simulation: a poly-range protocol whose fake
// range can never produce the real output (h = 0 exactly) gives the
// first-hit attacker its first hit at the switch round i* itself, in
// every run — Pr[E10] = 1, matching the h→0⁺ limit of the closed form
// (and refuting the old h = 0 branch, which claimed 1/r).
func TestZeroFakeHitFirstHitCertain(t *testing.T) {
	fn := TwoPartyFn{
		Name:    "sum2",
		XDomain: []uint64{1},
		YDomain: []uint64{1},
		Range:   []uint64{0, 1}, // excludes the real output 1+1 = 2
		Eval:    func(x, y uint64) uint64 { return x + y },
	}
	proto := Protocol{Fn: fn, P: 1, Iterations: 6, mode: fakeByRange}
	g := core.GordonKatzPayoff()
	rep, err := core.EstimateUtility(proto, NewFirstHit(1), g,
		core.FixedInputs(uint64(1), uint64(1)), 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.EventFreq[core.E10]; got != 1 {
		t.Errorf("zero-fake-hit domain: Pr[E10] = %v, want 1 in every run", got)
	}
	exact := core.GKFirstHitExact(proto.Iterations, 0)
	if exact != 1 {
		t.Errorf("GKFirstHitExact(r, 0) = %v, want 1", exact)
	}
	if rep.Utility.Mean != exact {
		t.Errorf("measured %v disagrees with exact h=0 value %v", rep.Utility.Mean, exact)
	}
}
