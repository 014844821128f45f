package adversary

import (
	"repro/internal/sim"
)

// Static is the base for strategies with a fixed corruption set that run
// the corrupted machines honestly unless a subclass decides otherwise.
// On its own it is the "honest-but-corrupted" strategy: it relays
// faithfully and reports the output once a corrupted machine produces it.
type Static struct {
	driver
	// Targets is the corrupted set.
	Targets []sim.PartyID
	// learned caches the first output any corrupted machine produced.
	learnedVal sim.Value
	learnedOK  bool
}

var _ sim.Adversary = (*Static)(nil)

// NewStatic corrupts exactly the given parties and runs them honestly.
func NewStatic(targets ...sim.PartyID) *Static {
	return &Static{Targets: targets}
}

// Reset implements sim.Adversary.
func (s *Static) Reset(ctx *sim.AdvContext) {
	s.driver.reset(ctx)
	s.learnedVal, s.learnedOK = nil, false
}

// InitialCorruptions implements sim.Adversary.
func (s *Static) InitialCorruptions() []sim.PartyID { return s.Targets }

// SubstituteInput implements sim.Adversary: keeps original inputs.
func (s *Static) SubstituteInput(_ sim.PartyID, orig sim.Value) sim.Value { return orig }

// ObserveSetup implements sim.Adversary: never aborts the hybrid.
func (s *Static) ObserveSetup(map[sim.PartyID]sim.Value) bool { return false }

// CorruptBefore implements sim.Adversary: static corruption only.
func (s *Static) CorruptBefore(int) []sim.PartyID { return nil }

// OnCorrupt implements sim.Adversary.
func (s *Static) OnCorrupt(id sim.PartyID, m sim.Party, _ sim.Value) { s.add(id, m) }

// Act implements sim.Adversary: honest execution.
func (s *Static) Act(round int, inboxes map[sim.PartyID][]sim.Message, _ []sim.Message) []sim.Message {
	out := s.stepHonest(round, inboxes)
	s.noteOutputs()
	return out
}

// Learned implements sim.Adversary.
func (s *Static) Learned() (sim.Value, bool) { return s.learnedVal, s.learnedOK }

func (s *Static) noteOutputs() {
	if s.learnedOK {
		return
	}
	for _, id := range s.ids() {
		if v, ok := s.machines[id].Output(); ok {
			s.learnedVal, s.learnedOK = v, true
			return
		}
	}
}

// AbortAt corrupts a fixed set, runs it honestly through round
// StopRound−1, and goes silent from StopRound on (while still reading
// everything it is sent and noting any output a corrupted machine can
// derive from its view, including the rushed messages of the abort
// round). StopRound 0 or negative means "never abort" — plain honest
// execution. A sweep over StopRound is the generic abort-timing attack
// space.
type AbortAt struct {
	Static
	// StopRound is the first message round in which the corrupted
	// parties send nothing.
	StopRound int
	// AbortSetup additionally aborts the hybrid setup phase.
	AbortSetup bool
}

var _ sim.Adversary = (*AbortAt)(nil)

// NewAbortAt builds the strategy.
func NewAbortAt(stopRound int, targets ...sim.PartyID) *AbortAt {
	return &AbortAt{Static: Static{Targets: targets}, StopRound: stopRound}
}

// ObserveSetup implements sim.Adversary.
func (a *AbortAt) ObserveSetup(map[sim.PartyID]sim.Value) bool { return a.AbortSetup }

// Act implements sim.Adversary.
func (a *AbortAt) Act(round int, inboxes map[sim.PartyID][]sim.Message, rushed []sim.Message) []sim.Message {
	aborted := a.StopRound > 0 && round >= a.StopRound
	var out []sim.Message
	if aborted {
		// Keep feeding the machines their inboxes (the adversary still
		// reads its mail) but drop all outgoing messages.
		a.stepHonest(round, inboxes)
	} else {
		out = a.stepHonest(round, inboxes)
	}
	a.noteOutputs()
	if !a.learnedOK {
		// Even silent, a rushing adversary can complete its view with the
		// honest messages of this round.
		a.tryRushedLock(round, rushed)
	}
	return out
}

func (a *AbortAt) tryRushedLock(round int, rushed []sim.Message) {
	last := a.ctx.Protocol.NumRounds() + 1
	for _, id := range a.ids() {
		pending := filterFor(id, rushed)
		if len(pending) == 0 {
			continue
		}
		if v, ok := lookahead(a.machines[id], id, round+1, last, pending); ok {
			a.learnedVal, a.learnedOK = v, true
			return
		}
	}
}

// SetupAbort corrupts a fixed set and aborts the protocol's hybrid setup
// phase immediately (the "abort Π_GMW in phase 1" strategy).
type SetupAbort struct {
	Static
}

var _ sim.Adversary = (*SetupAbort)(nil)

// NewSetupAbort builds the strategy.
func NewSetupAbort(targets ...sim.PartyID) *SetupAbort {
	return &SetupAbort{Static: Static{Targets: targets}}
}

// ObserveSetup implements sim.Adversary: always aborts.
func (s *SetupAbort) ObserveSetup(map[sim.PartyID]sim.Value) bool { return true }

// Act implements sim.Adversary: silent after a setup abort.
func (s *SetupAbort) Act(int, map[sim.PartyID][]sim.Message, []sim.Message) []sim.Message {
	return nil
}

// InputSubst wraps another strategy, additionally substituting every
// corrupted party's input with a fixed value before the setup.
type InputSubst struct {
	sim.Adversary
	// Value replaces each corrupted input.
	Value sim.Value
}

// SubstituteInput implements sim.Adversary.
func (i *InputSubst) SubstituteInput(sim.PartyID, sim.Value) sim.Value { return i.Value }
