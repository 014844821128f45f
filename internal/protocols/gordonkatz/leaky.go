package gordonkatz

import (
	"math/rand"

	"repro/internal/sim"
)

// Pitilde is the "leaky AND" protocol Π̃ of Appendix C.5, computing
// x1 ∧ x2:
//
//	round 1: p2 sends a 0-bit to p1;
//	round 2: if p2 sent a 1-bit instead, p1 tosses a biased coin C with
//	         Pr[C=1] = 1/4 and sends its input x1 to p2 if C = 1 (an
//	         empty message otherwise);
//	then the parties run the standard 1/4-secure protocol for AND.
//
// Lemma 27: Π̃ is both 1/2-secure and fully private by the Gordon–Katz
// definitions. Lemma 26: it does not realize even the weakened F_sfe^$ —
// the LeakExtractor below obtains p1's input with probability 1/4,
// a breach no simulator can produce. Π̃ separates 1/p-security from the
// paper's utility-based notion.
type Pitilde struct {
	gk Protocol
}

var (
	_ sim.Protocol             = Pitilde{}
	_ sim.OutcomeAuditor       = Pitilde{}
	_ sim.ScratchSetupProtocol = Pitilde{}
)

// leakOffset is the number of leak-phase rounds before the embedded
// 1/4-secure protocol starts.
const leakOffset = 2

// NewPitilde builds Π̃.
func NewPitilde() (Pitilde, error) {
	gk, err := NewPolyDomain(AND(), 4)
	if err != nil {
		return Pitilde{}, err
	}
	return Pitilde{gk: gk}, nil
}

// Name implements sim.Protocol.
func (Pitilde) Name() string { return "gk-pitilde-and" }

// NumParties implements sim.Protocol.
func (Pitilde) NumParties() int { return 2 }

// NumRounds implements sim.Protocol: the two leak rounds plus the
// embedded protocol.
func (p Pitilde) NumRounds() int { return leakOffset + p.gk.NumRounds() }

// Func implements sim.Protocol.
func (p Pitilde) Func(inputs []sim.Value) sim.Value { return p.gk.Func(inputs) }

// DefaultInput implements sim.Protocol.
func (p Pitilde) DefaultInput(id sim.PartyID) sim.Value { return p.gk.DefaultInput(id) }

// Setup implements sim.Protocol: the embedded protocol's ShareGen.
func (p Pitilde) Setup(inputs []sim.Value, rng *rand.Rand) ([]sim.Value, error) {
	return p.gk.Setup(inputs, rng)
}

// NewSetupScratch implements sim.ScratchSetupProtocol with the embedded
// protocol's ShareGen scratch.
func (p Pitilde) NewSetupScratch() func([]sim.Value, *rand.Rand) ([]sim.Value, error) {
	return p.gk.NewSetupScratch()
}

// AuditOutcome implements sim.OutcomeAuditor, delegating to the embedded
// protocol (the leak phase releases an input, not the output).
func (p Pitilde) AuditOutcome(tr *sim.Trace) sim.OutcomeAudit { return p.gk.AuditOutcome(tr) }

// leakMsg is a leak-phase message.
type leakMsg struct {
	// Bit is p2's first-round bit.
	Bit byte
	// HasInput marks p1's leaked-input response.
	HasInput bool
	// Input is p1's input when HasInput.
	Input uint64
}

// NewParty implements sim.Protocol. p1's biased coin is drawn here.
func (p Pitilde) NewParty(id sim.PartyID, input sim.Value, out sim.Value, aborted bool, rng *rand.Rand) (sim.Party, error) {
	m := &pitildeParty{inner: &gkParty{}}
	if err := m.init(p.gk, id, input, out, aborted, rng); err != nil {
		return nil, err
	}
	return m, nil
}

type pitildeParty struct {
	id        sim.PartyID
	input     uint64
	coinLeaks bool // Pr 1/4
	sawOneBit bool
	inner     *gkParty

	// Message scratch: one leak-phase message per party (p2 in round 1,
	// p1 in round 2), each with its own payload cell.
	leak leakMsg
	msgs [1]sim.Message
}

var (
	_ sim.ReusableParty = (*pitildeParty)(nil)
	_ sim.PartyCopier   = (*pitildeParty)(nil)
)

// init configures the machine for a run of Π̃ embedding gk. It draws
// exactly what NewParty draws: the inner machine's replacement value,
// then p1's biased coin.
func (m *pitildeParty) init(gk Protocol, id sim.PartyID, input sim.Value, out sim.Value, aborted bool, rng *rand.Rand) error {
	if err := m.inner.init(gk, id, input, out, aborted, rng); err != nil {
		return err
	}
	m.inner.offset = leakOffset
	x, _ := input.(uint64)
	m.id, m.input, m.coinLeaks, m.sawOneBit = id, x, rng.Intn(4) == 0, false
	return nil
}

// Reinit implements sim.ReusableParty, reinitializing the inner machine
// in place.
func (m *pitildeParty) Reinit(id sim.PartyID, input sim.Value, out sim.Value, aborted bool, rng *rand.Rand) bool {
	return m.init(m.inner.proto, id, input, out, aborted, rng) == nil
}

// CopyFrom implements sim.PartyCopier, copying the inner machine into
// the receiver's own.
func (m *pitildeParty) CopyFrom(src sim.Party) bool {
	s, ok := src.(*pitildeParty)
	if !ok {
		return false
	}
	if s == m {
		return true
	}
	inner := m.inner
	*m = *s
	m.inner = inner
	return m.inner.CopyFrom(s.inner)
}

// send returns the single leak-phase message.
func (m *pitildeParty) send(to sim.PartyID, lm leakMsg) []sim.Message {
	m.leak = lm
	m.msgs[0] = sim.Message{From: m.id, To: to, Payload: &m.leak}
	return m.msgs[:]
}

// asLeakMsg unwraps a leak-phase payload, by pointer (a machine's
// payload cell) or by value (the extractor's deviation).
func asLeakMsg(payload any) (leakMsg, bool) {
	switch lm := payload.(type) {
	case *leakMsg:
		return *lm, true
	case leakMsg:
		return lm, true
	}
	return leakMsg{}, false
}

func (m *pitildeParty) Round(round int, inbox []sim.Message) ([]sim.Message, error) {
	switch round {
	case 1:
		if m.id == 2 {
			return m.send(1, leakMsg{Bit: 0}), nil
		}
		return nil, nil
	case 2:
		if m.id == 1 {
			for _, msg := range inbox {
				if lm, ok := asLeakMsg(msg.Payload); ok && msg.From == 2 && lm.Bit == 1 {
					m.sawOneBit = true
				}
			}
			if m.sawOneBit && m.coinLeaks {
				return m.send(2, leakMsg{HasInput: true, Input: m.input}), nil
			}
			if m.sawOneBit {
				return m.send(2, leakMsg{}), nil
			}
		}
		return nil, nil
	default:
		return m.inner.Round(round, inbox)
	}
}

func (m *pitildeParty) Output() (sim.Value, bool) { return m.inner.Output() }

// AuditInfo implements sim.AuditedParty, forwarding the embedded
// machine's iteration counter.
func (m *pitildeParty) AuditInfo() sim.Value { return m.inner.AuditInfo() }

func (m *pitildeParty) Clone() sim.Party {
	cp := *m
	cp.inner = m.inner.Clone().(*gkParty)
	return &cp
}

// LeakExtractor is the Lemma 26 attack on Π̃: corrupt p2, send a 1-bit in
// round 1, and read p1's input off the round-2 response when the biased
// coin cooperates (probability 1/4). The rest of the protocol is played
// honestly. The engine verifies the extraction claim against p1's true
// input; a verified claim marks the trace as a privacy breach — an event
// no simulator for F_sfe^$ (or any of the paper's functionalities) can
// produce.
type LeakExtractor struct {
	machine   sim.Party
	extracted uint64
	hasInput  bool
	learned   sim.Value
	learnedOK bool
}

var (
	_ sim.Adversary       = (*LeakExtractor)(nil)
	_ sim.InputExtractor  = (*LeakExtractor)(nil)
	_ sim.AdversaryCloner = (*LeakExtractor)(nil)
)

// NewLeakExtractor builds the attack.
func NewLeakExtractor() *LeakExtractor { return &LeakExtractor{} }

// CloneAdversary implements sim.AdversaryCloner.
func (l *LeakExtractor) CloneAdversary() sim.Adversary { return NewLeakExtractor() }

// Reset implements sim.Adversary.
func (l *LeakExtractor) Reset(*sim.AdvContext) {
	l.machine, l.extracted, l.hasInput = nil, 0, false
	l.learned, l.learnedOK = nil, false
}

// InitialCorruptions implements sim.Adversary.
func (l *LeakExtractor) InitialCorruptions() []sim.PartyID { return []sim.PartyID{2} }

// SubstituteInput implements sim.Adversary.
func (l *LeakExtractor) SubstituteInput(_ sim.PartyID, orig sim.Value) sim.Value { return orig }

// ObserveSetup implements sim.Adversary.
func (l *LeakExtractor) ObserveSetup(map[sim.PartyID]sim.Value) bool { return false }

// CorruptBefore implements sim.Adversary.
func (l *LeakExtractor) CorruptBefore(int) []sim.PartyID { return nil }

// OnCorrupt implements sim.Adversary.
func (l *LeakExtractor) OnCorrupt(_ sim.PartyID, m sim.Party, _ sim.Value) { l.machine = m }

// Act implements sim.Adversary.
func (l *LeakExtractor) Act(round int, inboxes map[sim.PartyID][]sim.Message, _ []sim.Message) []sim.Message {
	// Watch for the leaked input.
	for _, msg := range inboxes[2] {
		if lm, ok := asLeakMsg(msg.Payload); ok && lm.HasInput {
			l.extracted, l.hasInput = lm.Input, true
		}
	}
	if round == 1 {
		// Deviate: send the 1-bit.
		return []sim.Message{{From: 2, To: 1, Payload: leakMsg{Bit: 1}}}
	}
	// Otherwise run the machine honestly.
	if l.machine == nil {
		return nil
	}
	out, err := l.machine.Round(round, inboxes[2])
	if err != nil {
		return nil
	}
	if v, ok := l.machine.Output(); ok {
		l.learned, l.learnedOK = v, true
	}
	for i := range out {
		out[i].From = 2
	}
	return out
}

// Learned implements sim.Adversary.
func (l *LeakExtractor) Learned() (sim.Value, bool) { return l.learned, l.learnedOK }

// ExtractedInput implements sim.InputExtractor.
func (l *LeakExtractor) ExtractedInput() (sim.PartyID, sim.Value, bool) {
	return 1, l.extracted, l.hasInput
}
