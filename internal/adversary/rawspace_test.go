package adversary_test

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/twoparty"
	"repro/internal/sim"
)

// TestRawTwoPartyShape pins the raw space's enumeration contract: its
// size formula and unique stable names — the search engine's arm keys
// and checkpoint byte-identity all hang off this order.
func TestRawTwoPartyShape(t *testing.T) {
	s := adversary.NewRawTwoParty(2,
		adversary.WithSubstitutions(uint64(0), uint64(1)),
		adversary.WithFirstHit(func(p sim.PartyID) sim.Adversary { return adversary.NewStatic(p) }),
	)
	// abort axis: setup, r1, r2, r3, hit, never = 6; subs: keep,0,1 = 3.
	want := 1 + 2*6*3
	if s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
	seen := make(map[string]bool)
	for i := 0; i < s.Len(); i++ {
		na := s.At(i)
		if na.Adv == nil || na.Name == "" {
			t.Fatalf("arm %d incomplete: %+v", i, na)
		}
		if seen[na.Name] {
			t.Fatalf("duplicate arm name %q", na.Name)
		}
		seen[na.Name] = true
	}
	if !seen["abort-r2-p1"] || !seen["honest-p2-x=1"] || !seen["hit-p1"] || !seen["setup-abort-p2-x=0"] {
		t.Fatalf("expected canonical arm names missing from %d arms", s.Len())
	}
	// Without the first-hit factory the hit axis point must disappear.
	plain := adversary.NewRawTwoParty(2)
	if plain.Len() != 1+2*5*1 {
		t.Fatalf("plain Len = %d, want 11", plain.Len())
	}
}

// TestRawTwoPartyBoundsSound verifies the branch-and-bound contract on
// a real protocol: every arm's measured utility stays at or below its
// static upper bound (up to the certified half-width). An unsound bound
// would let the search engine prune the true best response.
func TestRawTwoPartyBoundsSound(t *testing.T) {
	proto := twoparty.New(twoparty.Swap())
	g := core.StandardPayoff()
	s := adversary.NewRawTwoParty(proto.NumRounds(), adversary.WithSubstitutions(uint64(7)))
	sampler := func(r *rand.Rand) []sim.Value {
		return []sim.Value{uint64(r.Intn(1 << 16)), uint64(r.Intn(1 << 16))}
	}
	for i := 0; i < s.Len(); i++ {
		na := s.At(i)
		rep, err := core.EstimateUtility(proto, na.Adv, g, sampler, 400, 17)
		if err != nil {
			t.Fatalf("arm %q: %v", na.Name, err)
		}
		ub := s.UpperBound(i, g)
		if rep.Utility.Mean > ub+rep.Utility.HalfWidth {
			t.Errorf("arm %q: measured %v exceeds static bound %g", na.Name, rep.Utility, ub)
		}
	}
	// The bounds must actually discriminate: honest arms bounded by γ11,
	// setup/passive arms by 0 under the standard payoff.
	if ub := s.UpperBound(0, g); ub != 0 {
		t.Errorf("passive bound = %g, want 0", ub)
	}
}
