package core

import (
	"repro/internal/sim"
)

// Outcome is the ideal-world interpretation of one real execution: the
// fairness event the canonical simulator provokes, plus flags for
// behaviour that no simulator for the respective functionality could
// produce (used by the Gordon–Katz comparison of Section 5).
type Outcome struct {
	Event Event
	// CorrectnessViolation: some honest party output a wrong (non-⊥)
	// value. Legal only for protocols analysed against F_sfe^$ (the
	// randomized-abort functionality of Appendix C.2); fatal against
	// F_sfe^⊥.
	CorrectnessViolation bool
	// PrivacyBreach: the adversary demonstrably extracted an honest
	// party's input — not simulatable against any of the paper's
	// functionalities (Lemma 26's attack on Π̃).
	PrivacyBreach bool
	// Corrupted is the number of corrupted parties t.
	Corrupted int
}

// Classify maps an execution trace to its outcome, following the
// correspondence the paper's proofs establish (see DESIGN.md §4):
//
//   - t = 0 ⇒ E01 on delivery (the paper folds "no corruption" into E01),
//     E00 otherwise;
//   - t = n ⇒ E11 (the paper folds "everyone corrupted" into E11: with no
//     honest party there is nobody to treat unfairly);
//   - otherwise the event is determined by (learned, delivered), where
//     "learned" is the engine-verified fact that the adversary's view
//     determined the output and "delivered" means every honest party
//     output the expected value.
func Classify(tr *sim.Trace) Outcome {
	n := len(tr.Inputs)
	t := tr.NumCorrupted()
	out := Outcome{
		CorrectnessViolation: tr.AnyHonestWrong(),
		PrivacyBreach:        tr.PrivacyBreach,
		Corrupted:            t,
	}
	delivered := tr.AllHonestDelivered()
	switch {
	case t == 0:
		if delivered {
			out.Event = E01
		} else {
			out.Event = E00
		}
	case t == n:
		out.Event = E11
	default:
		switch {
		case tr.AdvLearned && delivered:
			out.Event = E11
		case tr.AdvLearned && !delivered:
			out.Event = E10
		case !tr.AdvLearned && delivered:
			out.Event = E01
		default:
			out.Event = E00
		}
	}
	return out
}
