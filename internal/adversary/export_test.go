package adversary

import "repro/internal/sim"

// LookaheadCalls returns the Round calls adv's lookahead clones have
// made, summed over every run so far: LockAbort's coalition lookaheads
// and AbortAt's rushed ones. Other strategies play no clones.
func LookaheadCalls(adv sim.Adversary) int {
	switch a := adv.(type) {
	case *LockAbort:
		return a.la.calls
	case *AbortAt:
		return a.la.calls
	}
	return 0
}
