package sweep

import (
	"fmt"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/protocols/contract"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/protocols/multiparty"
	"repro/internal/protocols/twoparty"
	"repro/internal/sim"
)

// A family names one protocol construction the grid can instantiate at
// varying (γ, n, t, p). The applicable closed-form bound — the theorem
// the cell certifies — is part of the family definition.
//
// Families and their bounds:
//
//	2sfe     ΠOpt-2SFE on the swap function; Theorem 3: ≤ (γ10+γ11)/2
//	oneround the Lemma 10 single-round strawman; trivial ceiling γ10
//	pi1      naive contract signing; trivial ceiling γ10
//	pi2      coin-toss-ordered contract signing; Introduction: ≤ (γ10+γ11)/2
//	optn     ΠOpt-nSFE on concatenation; Lemma 11: ≤ (t·γ10+(n−t)·γ11)/n
//	gmwhalf  Π_GMW^{1/2} on concatenation; Lemma 17 step profile:
//	         ≤ γ10 for t ≥ threshold, ≤ γ11 below
//	gk       Gordon–Katz poly-domain on AND; Theorems 23/24:
//	         ≤ ((p−1)·γ11+γ10)/p, cross-checked against GKFirstHitExact
var familyOrder = []string{"2sfe", "oneround", "pi1", "pi2", "optn", "gmwhalf", "gk"}

// concatBits is the per-party input width of the concatenation function
// (matching internal/experiments).
const concatBits = 8

// knownFamily reports whether name is a sweepable family.
func knownFamily(name string) bool {
	for _, f := range familyOrder {
		if f == name {
			return true
		}
	}
	return false
}

// twoPartyOnly reports whether the family exists only at n = 2.
func twoPartyOnly(name string) bool {
	switch name {
	case "2sfe", "oneround", "pi1", "pi2", "gk":
		return true
	}
	return false
}

// hasSetup reports whether the family runs a hybrid setup phase a
// setup-abort strategy can target.
func hasSetup(name string) bool {
	switch name {
	case "2sfe", "optn", "gmwhalf", "gk":
		return true
	}
	return false
}

// buildProtocol instantiates the family at the cell's parameters.
func buildProtocol(family string, n, p int) (sim.Protocol, error) {
	switch family {
	case "2sfe":
		return twoparty.New(twoparty.Swap()), nil
	case "oneround":
		return twoparty.NewOneRound(twoparty.Swap()), nil
	case "pi1":
		return contract.Pi1{}, nil
	case "pi2":
		return contract.Pi2{}, nil
	case "optn":
		fn, err := multiparty.Concat(n, concatBits)
		if err != nil {
			return nil, err
		}
		return multiparty.NewOptN(fn), nil
	case "gmwhalf":
		fn, err := multiparty.Concat(n, concatBits)
		if err != nil {
			return nil, err
		}
		return multiparty.NewGMWHalf(fn), nil
	case "gk":
		return gordonkatz.NewPolyDomain(gordonkatz.AND(), p)
	}
	return nil, fmt.Errorf("sweep: unknown family %q", family)
}

// buildSampler returns the family's environment: the input distribution
// of the corresponding proof (worst-case for the lower-bound families,
// uniform otherwise).
func buildSampler(family string, n int) core.InputSampler {
	switch family {
	case "2sfe", "oneround":
		return func(r *rand.Rand) []sim.Value {
			return []sim.Value{uint64(r.Intn(1 << 20)), uint64(r.Intn(1 << 20))}
		}
	case "pi1", "pi2":
		return func(r *rand.Rand) []sim.Value {
			return []sim.Value{uint64(r.Int63()), uint64(r.Int63())}
		}
	case "gk":
		// The Gordon–Katz worst-case environment for AND: x = (1, 1).
		return core.FixedInputs(uint64(1), uint64(1))
	default: // optn, gmwhalf
		return func(r *rand.Rand) []sim.Value {
			in := make([]sim.Value, n)
			for i := range in {
				in[i] = uint64(r.Intn(1 << concatBits))
			}
			return in
		}
	}
}

// buildAdversary instantiates the cell's attacker. The corrupted set is
// the canonical prefix {1..t} (adversary.TSubsets' first probe).
func buildAdversary(c Cell) (sim.Adversary, error) {
	set := adversary.TSubsets(c.N, c.T)[0]
	switch {
	case c.Adv == "lock":
		return adversary.NewLockAbort(set...), nil
	case c.Adv == "setup":
		return adversary.NewSetupAbort(set...), nil
	case c.Adv == "gmwsetup":
		return multiparty.NewGMWSetupAttacker(set...), nil
	case c.Adv == "firsthit":
		return gordonkatz.NewFirstHit(1), nil
	case len(c.Adv) > 6 && c.Adv[:6] == "abort@":
		var r int
		if _, err := fmt.Sscanf(c.Adv, "abort@%d", &r); err != nil {
			return nil, fmt.Errorf("sweep: bad adversary %q: %w", c.Adv, err)
		}
		return adversary.NewAbortAt(r, set...), nil
	}
	return nil, fmt.Errorf("sweep: unknown adversary %q", c.Adv)
}

// buildSpace returns the standard strategy space a "sup-search" cell
// races.
func buildSpace(c Cell, proto sim.Protocol) []core.NamedAdversary {
	if c.N == 2 {
		return adversary.TwoPartySpace(proto.NumRounds())
	}
	space := adversary.MultiPartyTSpace(c.N, c.T, proto.NumRounds())
	if c.Family == "gmwhalf" {
		for si, set := range adversary.TSubsets(c.N, c.T) {
			space = append(space, core.NamedAdversary{
				Name: fmt.Sprintf("gmw-setup-t%d-s%d", c.T, si),
				Adv:  multiparty.NewGMWSetupAttacker(set...),
			})
		}
	}
	return space
}

// cellBound returns the applicable closed-form utility ceiling for the
// cell — the quantity every attacker in the cell is certified against.
func cellBound(c Cell, proto sim.Protocol) (name string, bound float64) {
	switch c.Family {
	case "2sfe", "pi2":
		return "two-party-optimal", core.TwoPartyOptimalBound(c.Gamma)
	case "oneround", "pi1":
		// No fairness guarantee: the trivial Γfair ceiling max γ_ij = γ10.
		return "trivial-gamma10", c.Gamma.G10
	case "optn":
		return "multiparty-t", core.MultiPartyTBound(c.Gamma, c.N, c.T)
	case "gmwhalf":
		gmw := proto.(multiparty.GMWHalf)
		if c.T >= gmw.Threshold() {
			return "gmw-step-gamma10", c.Gamma.G10
		}
		return "gmw-step-gamma11", c.Gamma.G11
	case "gk":
		return "gordon-katz", core.GordonKatzBound(c.Gamma, c.P)
	}
	return "trivial-gamma10", c.Gamma.G10
}
