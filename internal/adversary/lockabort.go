package adversary

import (
	"slices"

	"repro/internal/sim"
)

// LockAbort is the paper's proof adversary family A1/A2 (Lemma 7) and its
// multi-party generalization A_ī (Lemma 12): corrupt a fixed set, behave
// honestly, and in every round — *before* sending the round's messages —
// check whether the corrupted coalition already "holds the actual
// output", i.e. whether running the corrupted machines forward with every
// honest party silent (but the coalition still exchanging messages among
// itself) produces the true evaluation result. The moment the output is
// locked, record it and abort: the corrupted parties go silent.
//
// Two lock checks run each round, both on clones (the live machines are
// never disturbed):
//
//  1. delivered lock: feed the clones this round's delivered inboxes,
//     then play the coalition forward in isolation;
//  2. rushing lock: after the round is played honestly, additionally feed
//     the honest messages of the current round (already observed by the
//     rushing adversary) plus the coalition's own just-sent messages.
//
// A rushing lock also means the adversary learns the output, but the
// honest messages involved are already on the wire, so aborting cannot
// retract them — which is why those runs end in E11 rather than E10.
type LockAbort struct {
	Static
	aborted bool
	la      lookaheadScratch
}

// lookaheadScratch holds the buffers the two per-round lock checks churn
// through, indexed like the driver's held list. They persist across
// Reset (the estimation arena reuses one strategy instance for every
// run) and are never shared: CloneAdversary rebuilds from configuration,
// so each worker's LockAbort owns its own.
type lookaheadScratch struct {
	clones   []sim.Party
	deliv    [][]sim.Message // the engine's delivered inboxes, read only
	seed     [][]sim.Message // the rushed messages, routed
	lanes    [2][][]sim.Message
	produced []sim.Message
	calls    int // clone Round calls, for tests (export_test.go)
}

var (
	_ sim.Adversary = (*LockAbort)(nil)
	_ sim.Quiescent = (*LockAbort)(nil)
)

// NewLockAbort corrupts the given parties and plays lock-and-abort.
func NewLockAbort(targets ...sim.PartyID) *LockAbort {
	return &LockAbort{Static: Static{Targets: targets}}
}

// NewAllBut returns the Lemma 12 strategy A_ī for an n-party protocol:
// corrupt everyone except spared.
func NewAllBut(n int, spared sim.PartyID) *LockAbort {
	targets := make([]sim.PartyID, 0, n-1)
	for id := sim.PartyID(1); id <= sim.PartyID(n); id++ {
		if id != spared {
			targets = append(targets, id)
		}
	}
	return NewLockAbort(targets...)
}

// Reset implements sim.Adversary.
func (l *LockAbort) Reset(ctx *sim.AdvContext) {
	l.Static.Reset(ctx)
	l.aborted = false
}

// ObserveSetup implements sim.Adversary: setup is never aborted —
// aborting the hybrid can only yield γ00/γ01, never γ10 (the setup
// outputs reveal nothing before the reconstruction rounds).
func (l *LockAbort) ObserveSetup([]sim.Value) bool { return false }

// Quiet implements sim.Quiescent: once aborted, the strategy sends and
// learns nothing more.
func (l *LockAbort) Quiet() bool { return l.aborted }

// Act implements sim.Adversary.
func (l *LockAbort) Act(round int, inboxes [][]sim.Message, rushed []sim.Message) []sim.Message {
	last := l.ctx.Protocol.NumRounds() + 1
	if l.aborted {
		return nil
	}

	// Delivered-lock check: would the coalition, after processing this
	// round's inboxes, reach the true output with all honest parties
	// silent?
	deliv := l.la.deliv[:0]
	for _, id := range l.held {
		deliv = append(deliv, inboxes[id-1])
	}
	l.la.deliv = deliv
	if v, ok := l.coalitionLookahead(round, deliv, last, l.ctx.TrueOutput); ok {
		l.learnedVal, l.learnedOK = v, true
		l.aborted = true
		// Abort before sending this round's messages; still let the live
		// machines consume their inboxes so any later inspection starts
		// from a consistent state.
		l.consume(round, deliv)
		return nil
	}

	// No delivered lock: compute the round honestly, but don't commit to
	// sending yet — the adversary is rushing, so it may inspect the
	// honest round-r messages first.
	out := l.stepHonest(round, inboxes)
	l.noteOutputs()

	// Rushing lock: if the already-observed honest messages of this
	// round lock the output for the coalition *without* our own round-r
	// messages, withhold them and abort — the honest sends cannot be
	// retracted, so we learn either way, and withholding denies the
	// honest parties whatever our messages would have given them. (This
	// is exactly the Lemma 10 attack on single-reconstruction-round
	// protocols.)
	l.la.seed = routeInto(l.la.seed, l.held, rushed)
	if v, ok := l.coalitionLookahead(round+1, l.la.seed, last, l.ctx.TrueOutput); ok {
		l.learnedVal, l.learnedOK = v, true
		l.aborted = true
		return nil
	}
	return out
}

// consume advances the live machines on their inboxes (indexed like
// held), discarding sends.
func (l *LockAbort) consume(round int, inboxes [][]sim.Message) {
	for i, m := range l.machines {
		_, _ = m.Round(round, inboxes[i])
	}
}

// routeInto builds per-machine inboxes from a message batch into dst,
// one lane per held party, truncating its lanes in place: direct
// messages go to their corrupted recipient, broadcasts to every
// corrupted machine.
func routeInto(dst [][]sim.Message, held []sim.PartyID, msgs []sim.Message) [][]sim.Message {
	for len(dst) < len(held) {
		dst = append(dst, nil)
	}
	dst = dst[:len(held)]
	for i := range dst {
		dst[i] = dst[i][:0]
	}
	for _, m := range msgs {
		if m.To == sim.Broadcast {
			for i := range dst {
				dst[i] = append(dst[i], m)
			}
			continue
		}
		if i := slices.Index(held, m.To); i >= 0 {
			dst[i] = append(dst[i], m)
		}
	}
	return dst
}

// coalitionLookahead copies every machine and plays the coalition
// forward from startRound through last, feeding seed (indexed like held)
// as the startRound inboxes and thereafter delivering only
// intra-coalition messages (honest parties are silent). It reports
// whether any copy reaches the target output — Lemma 12's "some p_j
// would provide output if the execution continued without p_i" test,
// restricted to the *actual* output so that default-input fallbacks
// don't count (as in A1's check). seed is only read; the routed rounds
// double-buffer through the scratch lanes. The coalition steps in
// ascending id order, and stops after a round in which no copy sent a
// message and every copy is quiet: no output can change after it.
func (l *LockAbort) coalitionLookahead(startRound int,
	seed [][]sim.Message, last int, target sim.Value) (sim.Value, bool) {
	s := &l.la
	// Refresh the clone pool: machines implementing sim.PartyCopier are
	// overwritten in place (the estimation hot path — two lookaheads per
	// round would otherwise clone the whole coalition each), the rest
	// are cloned afresh.
	for len(s.clones) < len(l.machines) {
		s.clones = append(s.clones, nil)
	}
	s.clones = s.clones[:len(l.machines)]
	for i, m := range l.machines {
		s.clones[i] = copyMachine(s.clones[i], m)
	}
	inboxes := seed
	lane := 0
	for r := startRound; r <= last; r++ {
		s.produced = s.produced[:0]
		for i, c := range s.clones {
			msgs, err := c.Round(r, inboxes[i])
			s.calls++
			if err != nil {
				continue
			}
			for _, m := range msgs {
				m.From = l.held[i]
				s.produced = append(s.produced, m)
			}
		}
		quiet := len(s.produced) == 0
		for _, c := range s.clones {
			if v, ok := c.Output(); ok && sim.ValuesEqual(v, target) {
				return v, true
			}
			quiet = quiet && sim.IsQuiet(c)
		}
		if quiet {
			break
		}
		s.lanes[lane] = routeInto(s.lanes[lane], l.held, s.produced)
		inboxes = s.lanes[lane]
		lane = 1 - lane
	}
	return nil, false
}

// Mixer draws one sub-strategy uniformly at random per run: the paper's
// Agen (Theorem 4) is Mixer{A1, A2}, and the Lemma 13 multi-party
// adversary is Mixer{A_1̄, …, A_n̄}.
type Mixer struct {
	// Strategies is the pool to draw from.
	Strategies []sim.Adversary
	active     sim.Adversary
}

var _ sim.Adversary = (*Mixer)(nil)

// NewMixer builds a uniform mixture.
func NewMixer(strategies ...sim.Adversary) *Mixer {
	return &Mixer{Strategies: strategies}
}

// NewAgen is the Theorem 4 adversary for two-party protocols: corrupt p1
// or p2 uniformly at random and play lock-and-abort.
func NewAgen() *Mixer {
	return NewMixer(NewLockAbort(1), NewLockAbort(2))
}

// NewAllButMixer is the Lemma 13 adversary: pick i uniformly and corrupt
// everyone else.
func NewAllButMixer(n int) *Mixer {
	strategies := make([]sim.Adversary, n)
	for i := 0; i < n; i++ {
		strategies[i] = NewAllBut(n, sim.PartyID(i+1))
	}
	return NewMixer(strategies...)
}

// Reset implements sim.Adversary: picks this run's strategy.
func (m *Mixer) Reset(ctx *sim.AdvContext) {
	m.active = m.Strategies[ctx.RNG.Intn(len(m.Strategies))]
	m.active.Reset(ctx)
}

// InitialCorruptions implements sim.Adversary.
func (m *Mixer) InitialCorruptions() []sim.PartyID { return m.active.InitialCorruptions() }

// SubstituteInput implements sim.Adversary.
func (m *Mixer) SubstituteInput(id sim.PartyID, orig sim.Value) sim.Value {
	return m.active.SubstituteInput(id, orig)
}

// ObserveSetup implements sim.Adversary.
func (m *Mixer) ObserveSetup(outputs []sim.Value) bool {
	return m.active.ObserveSetup(outputs)
}

// CorruptBefore implements sim.Adversary.
func (m *Mixer) CorruptBefore(round int) []sim.PartyID { return m.active.CorruptBefore(round) }

// OnCorrupt implements sim.Adversary.
func (m *Mixer) OnCorrupt(id sim.PartyID, p sim.Party, setupOut sim.Value) {
	m.active.OnCorrupt(id, p, setupOut)
}

// Act implements sim.Adversary.
func (m *Mixer) Act(round int, inboxes [][]sim.Message, rushed []sim.Message) []sim.Message {
	return m.active.Act(round, inboxes, rushed)
}

// Learned implements sim.Adversary.
func (m *Mixer) Learned() (sim.Value, bool) { return m.active.Learned() }

// Quiet implements sim.Quiescent, delegating to this run's strategy.
func (m *Mixer) Quiet() bool { return sim.IsQuiet(m.active) }
