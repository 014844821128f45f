package core

import "fmt"

// StrategySpace is a lazily enumerable adversary-strategy space — the
// domain of the sup in Definition 1, sup_A u(Π, A), as the search and
// estimation layers see it. Indices are the space's canonical order:
// every deterministic contract downstream (per-strategy seeds, best-tie
// breaking, checkpoint record order) is phrased in terms of them.
//
// At may construct its strategy on every call; callers own the returned
// instance exclusively until their estimate of it completes (the same
// exclusivity the slice-based API required of distinct instances). A
// space itself must be safe for concurrent At calls with distinct
// indices.
type StrategySpace interface {
	// Len is the number of strategies in the space.
	Len() int
	// At returns strategy i (0 ≤ i < Len) with its canonical label.
	At(i int) NamedAdversary
	// Describe names the space canonically; the search engine hashes it
	// into arm keys, so equal descriptions must mean equal spaces.
	Describe() string
}

// SliceSpace adapts an eager []NamedAdversary — the classic strategy
// spaces of package adversary — to the StrategySpace interface. It is
// the documented one-line bridge from the legacy SupUtility signature.
type SliceSpace []NamedAdversary

// Len implements StrategySpace.
func (s SliceSpace) Len() int { return len(s) }

// At implements StrategySpace.
func (s SliceSpace) At(i int) NamedAdversary { return s[i] }

// Describe implements StrategySpace: the labels in order, which pins
// the space exactly (labels are unique within every space in this
// repository).
func (s SliceSpace) Describe() string {
	names := make([]byte, 0, 16*len(s))
	for i, na := range s {
		if i > 0 {
			names = append(names, '+')
		}
		names = append(names, na.Name...)
	}
	return fmt.Sprintf("slice(%s)", names)
}

// BoundedSpace is a StrategySpace with a statically sound utility upper
// bound on each strategy (derived from its event structure — e.g. a
// setup-aborting strategy can only realize E00/E01, so its utility is at
// most max(γ00, γ01) whatever the protocol does). The search engine
// admits arms in descending bound order and prunes, with zero runs, any
// arm whose bound cannot beat the incumbent's certified lower bound. It
// prunes arm by arm; arms of one branch that share a bound fall together.
type BoundedSpace interface {
	StrategySpace
	// UpperBound returns a sound upper bound on strategy i's true
	// utility under gamma: no environment or scheduling can make the
	// strategy earn more. Plain max over the payoff vector is always
	// sound; tighter per-branch bounds are what make pruning bite.
	UpperBound(i int, gamma Payoff) float64
}
