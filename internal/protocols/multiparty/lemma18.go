package multiparty

import (
	"fmt"
	"math/rand"

	"repro/internal/crypto/sig"
	"repro/internal/sim"
)

// Lemma18 is the artificial protocol of Lemma 18 — optimally ~γ-fair but
// NOT utility-balanced. After the F_priv-sfe^⊥ phase (as in ΠOpt-nSFE):
//
//	round 1: every party sends the value "0" to all other parties;
//	round 2: the output holder p_{i*}: if it received only 0s it
//	         broadcasts the signed output; otherwise it tosses a coin and
//	         either broadcasts (heads) or sends the output only to the
//	         parties that did NOT send a 0 (tails);
//	round 3: every party that received a validly signed output adopts it.
//
// A single corrupted party that sends "1" instead of "0" earns
// 1/n·γ10 + (n−1)/n·(γ10+γ11)/2 (the Lemma18Attacker below), pushing the
// per-t utility sum above the balanced bound while the sup over all t
// stays at the optimal ((n−1)γ10 + γ11)/n.
type Lemma18 struct {
	Fn Function
}

var _ sim.Protocol = Lemma18{}

// NewLemma18 builds the protocol for fn.
func NewLemma18(fn Function) Lemma18 { return Lemma18{Fn: fn} }

// Name implements sim.Protocol.
func (p Lemma18) Name() string { return "nSFE-lemma18-" + p.Fn.Name }

// NumParties implements sim.Protocol.
func (p Lemma18) NumParties() int { return p.Fn.N }

// NumRounds implements sim.Protocol.
func (Lemma18) NumRounds() int { return 2 }

// Func implements sim.Protocol.
func (p Lemma18) Func(inputs []sim.Value) sim.Value { return OptN{Fn: p.Fn}.Func(inputs) }

// DefaultInput implements sim.Protocol.
func (p Lemma18) DefaultInput(id sim.PartyID) sim.Value {
	return OptN{Fn: p.Fn}.DefaultInput(id)
}

// Setup implements sim.Protocol: identical to ΠOpt-nSFE's F_priv-sfe^⊥.
func (p Lemma18) Setup(inputs []sim.Value, rng *rand.Rand) ([]sim.Value, error) {
	return OptN{Fn: p.Fn}.Setup(inputs, rng)
}

// zeroMsg is the round-1 token; NonZero marks the Lemma 18 deviation.
type zeroMsg struct {
	NonZero bool
}

// NewParty implements sim.Protocol. The holder's coin is drawn here
// (Clone safety).
func (p Lemma18) NewParty(id sim.PartyID, _ sim.Value, out sim.Value, aborted bool, rng *rand.Rand) (sim.Party, error) {
	m := &lemma18Machine{id: id, n: p.Fn.N, aborted: aborted, coinHeads: rng.Intn(2) == 0}
	if !aborted {
		so, ok := out.(optnSetupOut)
		if !ok {
			return nil, fmt.Errorf("multiparty: party %d: bad setup output %T", id, out)
		}
		m.setup = so
	}
	return m, nil
}

type lemma18Machine struct {
	id        sim.PartyID
	n         int
	aborted   bool
	coinHeads bool
	setup     optnSetupOut

	nonZeroSenders map[sim.PartyID]bool
	result         uint64
	done           bool
}

func (m *lemma18Machine) Round(round int, inbox []sim.Message) ([]sim.Message, error) {
	if m.aborted {
		return nil, nil
	}
	switch round {
	case 1:
		// Everybody sends "0" to everybody else.
		msgs := make([]sim.Message, 0, m.n-1)
		for id := sim.PartyID(1); id <= sim.PartyID(m.n); id++ {
			if id != m.id {
				msgs = append(msgs, sim.Message{From: m.id, To: id, Payload: zeroMsg{}})
			}
		}
		return msgs, nil
	case 2:
		m.nonZeroSenders = make(map[sim.PartyID]bool)
		for _, msg := range inbox {
			if zm, ok := msg.Payload.(zeroMsg); ok && zm.NonZero {
				m.nonZeroSenders[msg.From] = true
			}
		}
		if !m.setup.HasOutput {
			return nil, nil
		}
		// The holder adopts its own value either way.
		m.result, m.done = m.setup.Y, true
		payload := outMsg{HasOutput: true, Y: m.setup.Y, Sigma: m.setup.Sigma}
		if len(m.nonZeroSenders) == 0 || m.coinHeads {
			return []sim.Message{{From: m.id, To: sim.Broadcast, Payload: payload}}, nil
		}
		// Tails: send the output only to the non-zero senders.
		var msgs []sim.Message
		for id := range m.nonZeroSenders {
			msgs = append(msgs, sim.Message{From: m.id, To: id, Payload: payload})
		}
		return msgs, nil
	case 3:
		for _, msg := range inbox {
			om, ok := msg.Payload.(outMsg)
			if !ok || !om.HasOutput {
				continue
			}
			if sig.Ver(m.setup.VK, encodeOutput(om.Y), om.Sigma) {
				m.result, m.done = om.Y, true
				return nil, nil
			}
		}
	}
	return nil, nil
}

func (m *lemma18Machine) Output() (sim.Value, bool) {
	if !m.done {
		return nil, false
	}
	return m.result, true
}

func (m *lemma18Machine) Clone() sim.Party {
	cp := *m
	if m.nonZeroSenders != nil {
		cp.nonZeroSenders = make(map[sim.PartyID]bool, len(m.nonZeroSenders))
		for k, v := range m.nonZeroSenders {
			cp.nonZeroSenders[k] = v
		}
	}
	return &cp
}

// Lemma18Attacker is the single-corruption strategy from the proof of
// Lemma 18: corrupt one party; if it is the output holder, abort having
// learned the output (E10); otherwise send "1" instead of "0" and hope
// the holder's coin lands tails, in which case only the corrupted party
// receives the output (E10 again) — heads gives everyone the output
// (E11).
type Lemma18Attacker struct {
	target    sim.PartyID
	ctx       *sim.AdvContext
	setupOut  optnSetupOut
	hasSetup  bool
	learned   sim.Value
	learnedOK bool
}

var (
	_ sim.Adversary       = (*Lemma18Attacker)(nil)
	_ sim.AdversaryCloner = (*Lemma18Attacker)(nil)
)

// NewLemma18Attacker corrupts target.
func NewLemma18Attacker(target sim.PartyID) *Lemma18Attacker {
	return &Lemma18Attacker{target: target}
}

// CloneAdversary implements sim.AdversaryCloner.
func (a *Lemma18Attacker) CloneAdversary() sim.Adversary {
	return NewLemma18Attacker(a.target)
}

// Reset implements sim.Adversary.
func (a *Lemma18Attacker) Reset(ctx *sim.AdvContext) {
	a.ctx = ctx
	a.setupOut, a.hasSetup = optnSetupOut{}, false
	a.learned, a.learnedOK = nil, false
}

// InitialCorruptions implements sim.Adversary.
func (a *Lemma18Attacker) InitialCorruptions() []sim.PartyID { return []sim.PartyID{a.target} }

// SubstituteInput implements sim.Adversary.
func (a *Lemma18Attacker) SubstituteInput(_ sim.PartyID, orig sim.Value) sim.Value { return orig }

// ObserveSetup implements sim.Adversary: never aborts the hybrid.
func (a *Lemma18Attacker) ObserveSetup([]sim.Value) bool { return false }

// CorruptBefore implements sim.Adversary.
func (a *Lemma18Attacker) CorruptBefore(int) []sim.PartyID { return nil }

// OnCorrupt implements sim.Adversary: capture the setup output.
func (a *Lemma18Attacker) OnCorrupt(_ sim.PartyID, _ sim.Party, setupOut sim.Value) {
	if so, ok := setupOut.(optnSetupOut); ok {
		a.setupOut, a.hasSetup = so, true
	}
}

// Act implements sim.Adversary.
func (a *Lemma18Attacker) Act(round int, inboxes [][]sim.Message, rushed []sim.Message) []sim.Message {
	if a.hasSetup && a.setupOut.HasOutput {
		// Corrupted the holder: learn and abort immediately.
		a.learned, a.learnedOK = a.setupOut.Y, true
		return nil
	}
	if round == 1 {
		// Send "1" to everybody else.
		var msgs []sim.Message
		n := a.ctx.Protocol.NumParties()
		for id := sim.PartyID(1); id <= sim.PartyID(n); id++ {
			if id != a.target {
				msgs = append(msgs, sim.Message{From: a.target, To: id, Payload: zeroMsg{NonZero: true}})
			}
		}
		return msgs
	}
	// Watch for the (direct or broadcast) output delivery.
	for _, msg := range append(append([]sim.Message(nil), inboxes[a.target-1]...), rushed...) {
		if om, ok := msg.Payload.(outMsg); ok && om.HasOutput {
			a.learned, a.learnedOK = om.Y, true
		}
	}
	return nil
}

// Learned implements sim.Adversary.
func (a *Lemma18Attacker) Learned() (sim.Value, bool) { return a.learned, a.learnedOK }
