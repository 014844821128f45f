package gordonkatz

import (
	"repro/internal/sim"
)

// revealTracker is the common surface of the Gordon–Katz machines the
// first-hit attacker inspects: the last reconstructed iteration and its
// value.
type revealTracker interface {
	sim.Party
	lastReveal() (iter int, value uint64)
}

func (m *gkParty) lastReveal() (int, uint64)   { return m.lastIter, m.lastVal }
func (m *mpMachine) lastReveal() (int, uint64) { return m.lastIter, m.lastVal }

// FirstHit is the exact round-guessing attacker of the Gordon–Katz
// analysis: corrupt one party, run it honestly, and abort the moment a
// *reconstructed* value equals the true output (the worst-case
// environment tells the attacker the inputs, hence the output). Unlike
// the generic lock-and-abort strategy, it never mistakes the F_sfe^$
// fallback value for a reconstruction, so its E10 probability is exactly
// the closed form core.GKFirstHitExact(r, h).
type FirstHit struct {
	target    sim.PartyID
	ctx       *sim.AdvContext
	machine   revealTracker
	aborted   bool
	learned   sim.Value
	learnedOK bool
}

var (
	_ sim.Adversary       = (*FirstHit)(nil)
	_ sim.AdversaryCloner = (*FirstHit)(nil)
	_ sim.Quiescent       = (*FirstHit)(nil)
)

// NewFirstHit corrupts target.
func NewFirstHit(target sim.PartyID) *FirstHit { return &FirstHit{target: target} }

// CloneAdversary implements sim.AdversaryCloner.
func (f *FirstHit) CloneAdversary() sim.Adversary { return NewFirstHit(f.target) }

// Reset implements sim.Adversary.
func (f *FirstHit) Reset(ctx *sim.AdvContext) {
	f.ctx, f.machine = ctx, nil
	f.aborted = false
	f.learned, f.learnedOK = nil, false
}

// InitialCorruptions implements sim.Adversary.
func (f *FirstHit) InitialCorruptions() []sim.PartyID { return []sim.PartyID{f.target} }

// SubstituteInput implements sim.Adversary.
func (f *FirstHit) SubstituteInput(_ sim.PartyID, orig sim.Value) sim.Value { return orig }

// ObserveSetup implements sim.Adversary.
func (f *FirstHit) ObserveSetup([]sim.Value) bool { return false }

// CorruptBefore implements sim.Adversary.
func (f *FirstHit) CorruptBefore(int) []sim.PartyID { return nil }

// OnCorrupt implements sim.Adversary.
func (f *FirstHit) OnCorrupt(_ sim.PartyID, m sim.Party, _ sim.Value) {
	if rt, ok := m.(revealTracker); ok {
		f.machine = rt
	}
}

// Act implements sim.Adversary: honest execution with a value check after
// every reconstruction; on a hit, the current round's messages are
// withheld.
func (f *FirstHit) Act(round int, inboxes [][]sim.Message, _ []sim.Message) []sim.Message {
	if f.Quiet() {
		return nil
	}
	out, err := f.machine.Round(round, inboxes[f.target-1])
	if err != nil {
		return nil
	}
	if iter, v := f.machine.lastReveal(); iter >= 1 && sim.ValuesEqual(v, f.ctx.TrueOutput) {
		f.learned, f.learnedOK = v, true
		f.aborted = true
		return nil // withhold this round's opening: the abort
	}
	for i := range out {
		out[i].From = f.target
	}
	return out
}

// Learned implements sim.Adversary.
func (f *FirstHit) Learned() (sim.Value, bool) { return f.learned, f.learnedOK }

// Quiet implements sim.Quiescent: once aborted, or without a machine to
// run, the attacker sends and learns nothing more.
func (f *FirstHit) Quiet() bool { return f.aborted || f.machine == nil }
