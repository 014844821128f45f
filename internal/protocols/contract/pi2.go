package contract

import (
	"math/rand"

	"repro/internal/crypto/commitment"
	"repro/internal/sim"
)

// Pi2 is the coin-toss-ordered protocol Π2: as Π1, but the order of the
// contract openings is decided by a Blum coin toss, halving the best
// attacker's advantage.
type Pi2 struct{}

var _ sim.Protocol = Pi2{}

// Name implements sim.Protocol.
func (Pi2) Name() string { return "Pi2-contract" }

// NumParties implements sim.Protocol.
func (Pi2) NumParties() int { return 2 }

// NumRounds implements sim.Protocol: commitments, coin openings, first
// contract opening, second contract opening.
func (Pi2) NumRounds() int { return 4 }

// Func implements sim.Protocol.
func (Pi2) Func(inputs []sim.Value) sim.Value { return pairFunc(inputs) }

// DefaultInput implements sim.Protocol (see Pi1.DefaultInput).
func (Pi2) DefaultInput(sim.PartyID) sim.Value { return uint64(0) }

// Setup implements sim.Protocol: Π2 has no hybrid phase.
func (Pi2) Setup([]sim.Value, *rand.Rand) ([]sim.Value, error) { return nil, nil }

// NewParty implements sim.Protocol. The contract commitment, the random
// coin bit, and its commitment are all drawn here (Clone safety).
func (Pi2) NewParty(id sim.PartyID, input sim.Value, _ sim.Value, _ bool, rng *rand.Rand) (sim.Party, error) {
	p := &pi2Party{}
	if err := p.init(id, input, rng); err != nil {
		return nil, err
	}
	return p, nil
}

type pi2Party struct {
	id   sim.PartyID
	sig  uint64
	coin byte

	contractCommit commitment.Commitment
	contractOpen   commitment.Opening
	coinCommit     commitment.Commitment
	coinOpen       commitment.Opening

	theirContractC commitment.Commitment
	theirCoinC     commitment.Commitment

	// first is the party that opens its contract first (valid once the
	// coin toss completed).
	first  sim.PartyID
	tossed bool

	result Pair
	done   bool
	failed bool
	// outBox caches a boxed result, and boxed the value it holds.
	// Output boxes only when the result differs from boxed, so
	// repeated lookaheads reaching the same result share one box.
	outBox sim.Value
	boxed  Pair

	// Message scratch: a party sends in rounds 1, 2, and 3 or 4, so each
	// message has its own payload cell (see pi1Party).
	commitCell   commitMsg
	coinCell     openMsg
	contractCell openMsg
	msgs         [1]sim.Message
}

var (
	_ sim.ReusableParty = (*pi2Party)(nil)
	_ sim.PartyCopier   = (*pi2Party)(nil)
)

// init configures the machine for a run, reusing its buffers. It draws
// exactly what NewParty draws, in order: the contract commitment, the
// coin bit, the coin commitment.
func (p *pi2Party) init(id sim.PartyID, input sim.Value, rng *rand.Rand) error {
	sig, _ := input.(uint64)
	if err := commitment.CommitInto(rng, encodeSig(sig), &p.contractCommit, &p.contractOpen); err != nil {
		return err
	}
	bit := byte(rng.Intn(2))
	coin := [1]byte{bit}
	if err := commitment.CommitInto(rng, coin[:], &p.coinCommit, &p.coinOpen); err != nil {
		return err
	}
	p.id, p.sig, p.coin = id, sig, bit
	p.theirContractC, p.theirCoinC = p.theirContractC[:0], p.theirCoinC[:0]
	p.first, p.tossed = 0, false
	p.result, p.done, p.failed = Pair{}, false, false
	return nil
}

// Reinit implements sim.ReusableParty.
func (p *pi2Party) Reinit(id sim.PartyID, input sim.Value, _ sim.Value, _ bool, rng *rand.Rand) bool {
	return p.init(id, input, rng) == nil
}

// CopyFrom implements sim.PartyCopier: a deep copy into the receiver's
// own buffers.
func (p *pi2Party) CopyFrom(src sim.Party) bool {
	s, ok := src.(*pi2Party)
	if !ok {
		return false
	}
	if s == p {
		return true
	}
	cc, co, bc, bo := p.contractCommit, p.contractOpen, p.coinCommit, p.coinOpen
	tc, tb := p.theirContractC, p.theirCoinC
	box, boxed := p.outBox, p.boxed
	*p = *s
	if p.outBox == nil {
		p.outBox, p.boxed = box, boxed // keep the receiver's box cache
	}
	p.contractCommit = append(cc[:0], s.contractCommit...)
	p.contractOpen = co
	copyOpening(&p.contractOpen, s.contractOpen)
	p.coinCommit = append(bc[:0], s.coinCommit...)
	p.coinOpen = bo
	copyOpening(&p.coinOpen, s.coinOpen)
	p.theirContractC = append(tc[:0], s.theirContractC...)
	p.theirCoinC = append(tb[:0], s.theirCoinC...)
	return true
}

func (p *pi2Party) other() sim.PartyID { return sim.PartyID(3 - int(p.id)) }

// send returns the single outgoing message carrying payload.
func (p *pi2Party) send(payload any) []sim.Message {
	p.msgs[0] = sim.Message{From: p.id, To: p.other(), Payload: payload}
	return p.msgs[:]
}

func (p *pi2Party) sendContractOpening() []sim.Message {
	p.contractCell = openMsg{Opening: p.contractOpen}
	return p.send(&p.contractCell)
}

func (p *pi2Party) Round(round int, inbox []sim.Message) ([]sim.Message, error) {
	if p.failed {
		return nil, nil
	}
	switch round {
	case 1:
		// Exchange contract and coin commitments.
		p.commitCell = commitMsg{Contract: p.contractCommit, Coin: p.coinCommit}
		return p.send(&p.commitCell), nil
	case 2:
		// Receive commitments; open the coin commitment (single round,
		// both parties simultaneously).
		if !p.recvCommits(inbox) {
			p.failed = true
			return nil, nil
		}
		p.coinCell = openMsg{Opening: p.coinOpen}
		return p.send(&p.coinCell), nil
	case 3:
		// Verify the counterparty's coin opening, derive the order, and
		// open the contract if we go first.
		theirBit, ok := p.recvCoinOpening(inbox)
		if !ok {
			p.failed = true
			return nil, nil
		}
		b := (p.coin ^ theirBit) & 1
		p.first = sim.PartyID(1 + int(b))
		p.tossed = true
		if p.first == p.id {
			return p.sendContractOpening(), nil
		}
	case 4:
		// The second opener verifies the first opening and responds; the
		// first opener idles this round.
		if p.tossed && p.first != p.id {
			theirSig, ok := p.recvContractOpening(inbox)
			if !ok {
				p.failed = true
				return nil, nil
			}
			p.setResult(theirSig)
			return p.sendContractOpening(), nil
		}
	case 5:
		// The first opener verifies the second opening.
		if p.tossed && p.first == p.id {
			theirSig, ok := p.recvContractOpening(inbox)
			if !ok {
				p.failed = true
				return nil, nil
			}
			p.setResult(theirSig)
		}
	}
	return nil, nil
}

func (p *pi2Party) setResult(theirSig uint64) {
	if p.id == 1 {
		p.result = Pair{S1: p.sig, S2: theirSig}
	} else {
		p.result = Pair{S1: theirSig, S2: p.sig}
	}
	p.done = true
}

func (p *pi2Party) recvCommits(inbox []sim.Message) bool {
	for _, m := range inbox {
		if cm, ok := asCommitMsg(m.Payload); ok && m.From == p.other() {
			p.theirContractC = append(p.theirContractC[:0], cm.Contract...)
			p.theirCoinC = append(p.theirCoinC[:0], cm.Coin...)
			return len(cm.Contract) > 0 && len(cm.Coin) > 0
		}
	}
	return false
}

func (p *pi2Party) recvCoinOpening(inbox []sim.Message) (byte, bool) {
	for _, m := range inbox {
		om, ok := asOpenMsg(m.Payload)
		if !ok || m.From != p.other() {
			continue
		}
		if !commitment.Verify(p.theirCoinC, om.Opening) || len(om.Opening.Message) != 1 {
			return 0, false
		}
		return om.Opening.Message[0] & 1, true
	}
	return 0, false
}

func (p *pi2Party) recvContractOpening(inbox []sim.Message) (uint64, bool) {
	for _, m := range inbox {
		om, ok := asOpenMsg(m.Payload)
		if !ok || m.From != p.other() {
			continue
		}
		if !commitment.Verify(p.theirContractC, om.Opening) {
			return 0, false
		}
		return decodeSig(om.Opening.Message)
	}
	return 0, false
}

func (p *pi2Party) Output() (sim.Value, bool) {
	if !p.done {
		return nil, false
	}
	if p.outBox == nil || p.boxed != p.result {
		p.outBox, p.boxed = p.result, p.result
	}
	return p.outBox, true
}

func (p *pi2Party) Clone() sim.Party {
	cp := &pi2Party{}
	cp.CopyFrom(p)
	return cp
}
