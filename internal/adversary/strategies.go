package adversary

import (
	"repro/internal/sim"
)

// Static is the base for strategies with a fixed corruption set that run
// the corrupted machines honestly unless a subclass decides otherwise.
// On its own it is the "honest-but-corrupted" strategy: it relays
// faithfully and reports the output once a corrupted machine produces it.
//
// Static has no Quiet method (sim.Quiescent), although honest relaying
// goes quiet with its machines: a strategy that embeds Static to tamper
// or send late would inherit it and be cut short.
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
func (s *Static) ObserveSetup([]sim.Value) bool { return false }

// CorruptBefore implements sim.Adversary: static corruption only.
func (s *Static) CorruptBefore(int) []sim.PartyID { return nil }

// OnCorrupt implements sim.Adversary.
func (s *Static) OnCorrupt(id sim.PartyID, m sim.Party, _ sim.Value) { s.add(id, m) }

// Act implements sim.Adversary: honest execution.
func (s *Static) Act(round int, inboxes [][]sim.Message, _ []sim.Message) []sim.Message {
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
	for _, m := range s.machines {
		if v, ok := m.Output(); ok {
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

	round int // the last round acted in
	la    rushedScratch
}

// rushedScratch holds the rushed-lock lookahead's buffers: one pooled
// clone, refreshed through sim.PartyCopier, and the inbox lanes it plays
// through. They persist across Reset and are never shared:
// CloneAdversary rebuilds from configuration.
type rushedScratch struct {
	clone   sim.Party
	pending []sim.Message
	lanes   [2][]sim.Message
	calls   int // clone Round calls, for tests (export_test.go)
}

var (
	_ sim.Adversary = (*AbortAt)(nil)
	_ sim.Quiescent = (*AbortAt)(nil)
)

// NewAbortAt builds the strategy.
func NewAbortAt(stopRound int, targets ...sim.PartyID) *AbortAt {
	return &AbortAt{Static: Static{Targets: targets}, StopRound: stopRound}
}

// Reset implements sim.Adversary.
func (a *AbortAt) Reset(ctx *sim.AdvContext) {
	a.Static.Reset(ctx)
	a.round = 0
}

// ObserveSetup implements sim.Adversary.
func (a *AbortAt) ObserveSetup([]sim.Value) bool { return a.AbortSetup }

// Quiet implements sim.Quiescent: past the stop round the strategy
// sends nothing, and once every corrupted machine is quiet it reads
// nothing new either.
func (a *AbortAt) Quiet() bool {
	if a.StopRound <= 0 || a.round < a.StopRound {
		return false
	}
	for _, m := range a.machines {
		if !sim.IsQuiet(m) {
			return false
		}
	}
	return true
}

// Act implements sim.Adversary.
func (a *AbortAt) Act(round int, inboxes [][]sim.Message, rushed []sim.Message) []sim.Message {
	a.round = round
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
	s := &a.la
	for i, id := range a.held {
		s.pending = s.pending[:0]
		for _, m := range rushed {
			if m.To == id || m.To == sim.Broadcast {
				s.pending = append(s.pending, m)
			}
		}
		if len(s.pending) == 0 {
			continue
		}
		if v, ok := s.lookahead(a.machines[i], id, round+1, last); ok {
			a.learnedVal, a.learnedOK = v, true
			return
		}
	}
}

// lookahead plays a copy of machine m (party id) forward from round
// start through last on the pending inbox, assuming every other party
// goes silent: afterwards it receives only its own broadcasts and
// self-addressed messages (a party always hears its own broadcast). It
// returns the copy's final output, and stops early once the copy hears
// nothing more and is quiet; m itself is never disturbed.
func (s *rushedScratch) lookahead(m sim.Party, id sim.PartyID, start, last int) (sim.Value, bool) {
	s.clone = copyMachine(s.clone, m)
	inbox := s.pending
	lane := 0
	for r := start; r <= last; r++ {
		out, err := s.clone.Round(r, inbox)
		s.calls++
		if err != nil {
			return nil, false
		}
		next := s.lanes[lane][:0]
		for _, msg := range out {
			if msg.To == sim.Broadcast || msg.To == id {
				msg.From = id
				next = append(next, msg)
			}
		}
		s.lanes[lane] = next
		if len(next) == 0 && sim.IsQuiet(s.clone) {
			break
		}
		inbox = next
		lane = 1 - lane
	}
	return s.clone.Output()
}

// SetupAbort corrupts a fixed set and aborts the protocol's hybrid setup
// phase immediately (the "abort Π_GMW in phase 1" strategy).
type SetupAbort struct {
	Static
}

var (
	_ sim.Adversary = (*SetupAbort)(nil)
	_ sim.Quiescent = (*SetupAbort)(nil)
)

// NewSetupAbort builds the strategy.
func NewSetupAbort(targets ...sim.PartyID) *SetupAbort {
	return &SetupAbort{Static: Static{Targets: targets}}
}

// ObserveSetup implements sim.Adversary: always aborts.
func (s *SetupAbort) ObserveSetup([]sim.Value) bool { return true }

// Act implements sim.Adversary: silent after a setup abort.
func (s *SetupAbort) Act(int, [][]sim.Message, []sim.Message) []sim.Message {
	return nil
}

// Quiet implements sim.Quiescent: the strategy never sends or learns.
func (s *SetupAbort) Quiet() bool { return true }

// InputSubst wraps another strategy, additionally substituting every
// corrupted party's input with a fixed value before the setup.
type InputSubst struct {
	sim.Adversary
	// Value replaces each corrupted input.
	Value sim.Value
}

// SubstituteInput implements sim.Adversary.
func (i *InputSubst) SubstituteInput(sim.PartyID, sim.Value) sim.Value { return i.Value }

// Quiet implements sim.Quiescent, delegating to the wrapped strategy.
func (i *InputSubst) Quiet() bool { return sim.IsQuiet(i.Adversary) }
