// Package contract implements the two contract-signing protocols Π1 and
// Π2 from the paper's Introduction — the motivating example for
// comparative fairness.
//
// Both protocols exchange locally signed contracts through commitments
// over secure channels:
//
//	Π1: the parties exchange commitments on their signed contracts; then
//	    p1 opens first, then p2. A corrupted p2 can always abort after
//	    p1's opening, so the best attacker earns γ10 with probability 1.
//
//	Π2: before the contract openings, the parties run a Blum coin toss
//	    (commit–exchange–open) and use the resulting bit to decide who
//	    opens first. The corrupted party receives the output first only
//	    with probability 1/2, halving the best attacker's advantage:
//	    u = (γ10 + γ11)/2. Π2 is "twice as fair as" Π1.
//
// Inputs are modeled as uint64 contract signatures; the (global) output
// is the pair of both signatures.
//
// Both machines implement sim.ReusableParty and sim.PartyCopier and send
// through machine-owned payload cells, so the estimation hot path runs
// them without allocating machines, commitments or messages.
package contract

import (
	"encoding/binary"
	"math/rand"

	"repro/internal/crypto/commitment"
	"repro/internal/sim"
)

// Pair is the global output: both parties' signed contracts.
type Pair struct {
	S1, S2 uint64
}

// commitMsg carries a commitment (round 1 of both protocols).
type commitMsg struct {
	Contract commitment.Commitment
	Coin     commitment.Commitment // only set in Π2
}

// openMsg carries an opening.
type openMsg struct {
	Opening commitment.Opening
}

// asCommitMsg unwraps a commitment payload, delivered as a pointer into
// the sender's payload cell (the hot path) or by value (hand-built
// messages, gob decodes).
func asCommitMsg(payload any) (commitMsg, bool) {
	switch m := payload.(type) {
	case *commitMsg:
		return *m, true
	case commitMsg:
		return m, true
	}
	return commitMsg{}, false
}

// asOpenMsg unwraps an opening payload, by pointer or by value.
func asOpenMsg(payload any) (openMsg, bool) {
	switch m := payload.(type) {
	case *openMsg:
		return *m, true
	case openMsg:
		return m, true
	}
	return openMsg{}, false
}

// encodeSig serializes a signature for committing. It inlines, so the
// buffer stays on the caller's stack.
func encodeSig(s uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, s)
	return b
}

func decodeSig(b []byte) (uint64, bool) {
	if len(b) != 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(b), true
}

// copyOpening overwrites dst with src, reusing dst's buffers.
func copyOpening(dst *commitment.Opening, src commitment.Opening) {
	dst.Randomness = append(dst.Randomness[:0], src.Randomness...)
	dst.Message = append(dst.Message[:0], src.Message...)
}

// pairFunc is the shared ideal function of Π1 and Π2.
func pairFunc(inputs []sim.Value) sim.Value {
	s1, _ := inputs[0].(uint64)
	s2, _ := inputs[1].(uint64)
	return Pair{S1: s1, S2: s2}
}

// Pi1 is the naive protocol Π1.
type Pi1 struct{}

var _ sim.Protocol = Pi1{}

// Name implements sim.Protocol.
func (Pi1) Name() string { return "Pi1-contract" }

// NumParties implements sim.Protocol.
func (Pi1) NumParties() int { return 2 }

// NumRounds implements sim.Protocol: commitments, p1 opens, p2 opens.
func (Pi1) NumRounds() int { return 3 }

// Func implements sim.Protocol.
func (Pi1) Func(inputs []sim.Value) sim.Value { return pairFunc(inputs) }

// DefaultInput implements sim.Protocol. Contract signing has no
// meaningful default — a missing counterparty signature cannot be
// substituted — so local fallback computation never applies.
func (Pi1) DefaultInput(sim.PartyID) sim.Value { return uint64(0) }

// Setup implements sim.Protocol: Π1 has no hybrid phase.
func (Pi1) Setup([]sim.Value, *rand.Rand) ([]sim.Value, error) { return nil, nil }

// NewParty implements sim.Protocol. All randomness (the commitment) is
// drawn here so Round is deterministic and Clone-safe.
func (Pi1) NewParty(id sim.PartyID, input sim.Value, _ sim.Value, _ bool, rng *rand.Rand) (sim.Party, error) {
	p := &pi1Party{}
	if err := p.init(id, input, rng); err != nil {
		return nil, err
	}
	return p, nil
}

type pi1Party struct {
	id      sim.PartyID
	sig     uint64
	commit  commitment.Commitment
	opening commitment.Opening
	theirC  commitment.Commitment
	result  Pair
	done    bool
	failed  bool
	// outBox caches a boxed result, and boxed the value it holds.
	// Output boxes only when the result differs from boxed, so
	// repeated lookaheads reaching the same result share one box.
	outBox sim.Value
	boxed  Pair

	// Message scratch. p1 sends in rounds 1 and 2, so each message has
	// its own payload cell: a cell is rewritten only after its receiver
	// has read it. The returned slice and the payload pointers are
	// machine-owned, per the Party contract.
	commitCell commitMsg
	openCell   openMsg
	msgs       [1]sim.Message
}

var (
	_ sim.ReusableParty = (*pi1Party)(nil)
	_ sim.PartyCopier   = (*pi1Party)(nil)
)

// init configures the machine for a run, reusing its buffers. It draws
// exactly what NewParty draws: the contract commitment.
func (p *pi1Party) init(id sim.PartyID, input sim.Value, rng *rand.Rand) error {
	sig, _ := input.(uint64)
	if err := commitment.CommitInto(rng, encodeSig(sig), &p.commit, &p.opening); err != nil {
		return err
	}
	p.id, p.sig = id, sig
	p.theirC = p.theirC[:0]
	p.result, p.done, p.failed = Pair{}, false, false
	return nil
}

// Reinit implements sim.ReusableParty.
func (p *pi1Party) Reinit(id sim.PartyID, input sim.Value, _ sim.Value, _ bool, rng *rand.Rand) bool {
	return p.init(id, input, rng) == nil
}

// CopyFrom implements sim.PartyCopier: a deep copy into the receiver's
// own buffers.
func (p *pi1Party) CopyFrom(src sim.Party) bool {
	s, ok := src.(*pi1Party)
	if !ok {
		return false
	}
	if s == p {
		return true
	}
	commit, opening, theirC := p.commit, p.opening, p.theirC
	box, boxed := p.outBox, p.boxed
	*p = *s
	if p.outBox == nil {
		p.outBox, p.boxed = box, boxed // keep the receiver's box cache
	}
	p.commit = append(commit[:0], s.commit...)
	p.opening = opening
	copyOpening(&p.opening, s.opening)
	p.theirC = append(theirC[:0], s.theirC...)
	return true
}

func (p *pi1Party) other() sim.PartyID { return sim.PartyID(3 - int(p.id)) }

// send returns the single outgoing message carrying payload.
func (p *pi1Party) send(payload any) []sim.Message {
	p.msgs[0] = sim.Message{From: p.id, To: p.other(), Payload: payload}
	return p.msgs[:]
}

func (p *pi1Party) sendOpening() []sim.Message {
	p.openCell = openMsg{Opening: p.opening}
	return p.send(&p.openCell)
}

func (p *pi1Party) setResult(r Pair) {
	p.result, p.done = r, true
}

func (p *pi1Party) Round(round int, inbox []sim.Message) ([]sim.Message, error) {
	if p.failed {
		return nil, nil
	}
	switch round {
	case 1:
		p.commitCell = commitMsg{Contract: p.commit}
		return p.send(&p.commitCell), nil
	case 2:
		// Both receive the counterparty's commitment; p1 opens.
		if !p.recvCommit(inbox) {
			p.failed = true
			return nil, nil
		}
		if p.id == 1 {
			return p.sendOpening(), nil
		}
	case 3:
		// p2 verifies p1's opening and, if valid, opens in return.
		if p.id == 2 {
			s1, ok := p.recvOpening(inbox)
			if !ok {
				p.failed = true
				return nil, nil
			}
			p.setResult(Pair{S1: s1, S2: p.sig})
			return p.sendOpening(), nil
		}
	case 4:
		// p1 verifies p2's opening.
		if p.id == 1 {
			s2, ok := p.recvOpening(inbox)
			if !ok {
				p.failed = true
				return nil, nil
			}
			p.setResult(Pair{S1: p.sig, S2: s2})
		}
	}
	return nil, nil
}

func (p *pi1Party) recvCommit(inbox []sim.Message) bool {
	for _, m := range inbox {
		if cm, ok := asCommitMsg(m.Payload); ok && m.From == p.other() {
			p.theirC = append(p.theirC[:0], cm.Contract...)
			return true
		}
	}
	return false
}

func (p *pi1Party) recvOpening(inbox []sim.Message) (uint64, bool) {
	for _, m := range inbox {
		om, ok := asOpenMsg(m.Payload)
		if !ok || m.From != p.other() {
			continue
		}
		if !commitment.Verify(p.theirC, om.Opening) {
			return 0, false
		}
		return decodeSig(om.Opening.Message)
	}
	return 0, false
}

func (p *pi1Party) Output() (sim.Value, bool) {
	if !p.done {
		return nil, false
	}
	if p.outBox == nil || p.boxed != p.result {
		p.outBox, p.boxed = p.result, p.result
	}
	return p.outBox, true
}

func (p *pi1Party) Clone() sim.Party {
	cp := &pi1Party{}
	cp.CopyFrom(p)
	return cp
}
