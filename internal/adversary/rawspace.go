package adversary

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
)

// RawTwoParty is the raw two-party strategy product space of the
// ROADMAP: corrupted set × abort behaviour × input substitution, plus
// the passive baseline. Unlike the hand-curated TwoPartySpace it is not
// trimmed to the handful of proof-relevant attackers — it enumerates
// the full product so the search engine (internal/search) has something
// honest to search over — but it still contains every proof-optimal
// adversary for the protocols in this repository, so the searched sup
// matches the theoretical one up to sampling error.
//
// It implements core.BoundedSpace: each arm carries a statically sound
// utility upper bound derived from its event structure alone, which is
// what lets branch-and-bound prune dominated arms with zero estimator
// runs.
type RawTwoParty struct {
	rounds int
	subs   []sim.Value
	hit    func(target sim.PartyID) sim.Adversary

	abortVals []string // axis values: setup, r1..r{R+1}, [hit,] never
	subVals   []string // axis values: keep, x=v...
}

// RawOption configures a RawTwoParty space.
type RawOption func(*RawTwoParty)

// WithSubstitutions adds an input-substitution axis point per value: in
// those arms every corrupted party's input is replaced by the value
// before setup (via InputSubst). The values become part of the space's
// canonical description, so they must be printable stably with %v.
func WithSubstitutions(values ...sim.Value) RawOption {
	return func(s *RawTwoParty) { s.subs = append(s.subs, values...) }
}

// WithFirstHit adds a "hit" point on the abort axis whose strategies
// are built by fresh (e.g. gordonkatz.NewFirstHit): the timing attacker
// that aborts the moment its reconstructed value equals the true
// output. Kept as a factory so this package does not import the
// protocol packages that define such attackers.
func WithFirstHit(fresh func(target sim.PartyID) sim.Adversary) RawOption {
	return func(s *RawTwoParty) { s.hit = fresh }
}

// NewRawTwoParty builds the raw space for a two-party protocol with the
// given number of message rounds. The abort axis covers the setup
// abort, every round 1..rounds+1 (rounds+1 = abort after the last
// message, i.e. withhold nothing but the final step's effect), the
// optional first-hit attacker, and never aborting (honest-but-curious
// corruption).
func NewRawTwoParty(rounds int, opts ...RawOption) *RawTwoParty {
	s := &RawTwoParty{rounds: rounds}
	for _, o := range opts {
		o(s)
	}
	s.abortVals = append(s.abortVals, "setup")
	for r := 1; r <= rounds+1; r++ {
		s.abortVals = append(s.abortVals, fmt.Sprintf("r%d", r))
	}
	if s.hit != nil {
		s.abortVals = append(s.abortVals, "hit")
	}
	s.abortVals = append(s.abortVals, "never")
	s.subVals = []string{"keep"}
	for _, v := range s.subs {
		s.subVals = append(s.subVals, fmt.Sprintf("x=%v", v))
	}
	return s
}

// perSet is the number of arms sharing one corrupted set.
func (s *RawTwoParty) perSet() int { return len(s.abortVals) * len(s.subVals) }

// Len implements core.StrategySpace: the passive baseline plus the full
// product over the two one-party corrupted sets.
func (s *RawTwoParty) Len() int { return 1 + 2*s.perSet() }

// Describe implements core.StrategySpace.
func (s *RawTwoParty) Describe() string {
	hit := ""
	if s.hit != nil {
		hit = "+hit"
	}
	return fmt.Sprintf("raw2p(rounds=%d%s,subs=%d)", s.rounds, hit, len(s.subVals)-1)
}

// coords decomposes arm i (≥ 1) into (set, abort, sub) axis indices.
// The set index is 0-based over {p1, p2}.
func (s *RawTwoParty) coords(i int) (set, abort, sub int) {
	i--
	set = i / s.perSet()
	rest := i % s.perSet()
	return set, rest / len(s.subVals), rest % len(s.subVals)
}

// At implements core.StrategySpace. Arm 0 is the passive baseline; the
// rest follow the product order set-major, then abort, then
// substitution, so names like abort-r2-p1 line up with TwoPartySpace's
// spelling wherever both spaces contain the same attacker.
func (s *RawTwoParty) At(i int) core.NamedAdversary {
	if i == 0 {
		return core.NamedAdversary{Name: "passive", Adv: sim.Passive{}}
	}
	set, abort, sub := s.coords(i)
	target := sim.PartyID(set + 1)
	var name string
	var adv sim.Adversary
	switch av := s.abortVals[abort]; av {
	case "setup":
		name = fmt.Sprintf("setup-abort-p%d", target)
		adv = NewSetupAbort(target)
	case "hit":
		name = fmt.Sprintf("hit-p%d", target)
		adv = s.hit(target)
	case "never":
		name = fmt.Sprintf("honest-p%d", target)
		adv = NewStatic(target)
	default: // r%d
		name = fmt.Sprintf("abort-%s-p%d", av, target)
		var r int
		fmt.Sscanf(av, "r%d", &r)
		adv = NewAbortAt(r, target)
	}
	if sub > 0 {
		name += "-" + s.subVals[sub]
		adv = &InputSubst{Adversary: adv, Value: s.subs[sub-1]}
	}
	return core.NamedAdversary{Name: name, Adv: adv}
}

// UpperBound implements core.BoundedSpace. The bounds come from the
// event structure alone, so they hold for every protocol and every
// environment:
//
//   - passive and setup-abort arms never see a reconstructed output, so
//     only E00/E01 can occur: at most max(γ00, γ01);
//   - never-abort arms complete the protocol, so every honest party
//     learns the output and only E01/E11 can occur: at most
//     max(γ01, γ11);
//   - aborting arms (round aborts and the first-hit attacker) can in
//     principle realize any event: the unconditional max over γ.
func (s *RawTwoParty) UpperBound(i int, gamma core.Payoff) float64 {
	var vals []float64
	if i == 0 {
		vals = []float64{gamma.G00, gamma.G01}
	} else {
		_, abort, _ := s.coords(i)
		switch s.abortVals[abort] {
		case "setup":
			vals = []float64{gamma.G00, gamma.G01}
		case "never":
			vals = []float64{gamma.G01, gamma.G11}
		default:
			vals = []float64{gamma.G00, gamma.G01, gamma.G10, gamma.G11}
		}
	}
	ub := math.Inf(-1)
	for _, v := range vals {
		ub = math.Max(ub, v)
	}
	return ub
}

var _ core.BoundedSpace = (*RawTwoParty)(nil)
