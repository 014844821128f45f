// Package twoparty implements ΠOpt-2SFE, the optimally ~γ-fair two-party
// SFE protocol of Section 4.1, plus a deliberately unfair fixed-order
// variant used as the comparison baseline in the experiments.
//
// The protocol evaluates a function f in two phases:
//
//  1. An adaptively secure but unfair SFE (the Π_GMW hybrid, here the
//     engine's Setup phase) computes f′: it evaluates y = f(x1, x2),
//     produces an authenticated two-out-of-two sharing ⟨y⟩ (Appendix A),
//     and draws a uniformly random index i ∈ {1, 2}. Party p_j receives
//     (⟨y⟩_j, i). If this phase aborts, the honest party substitutes the
//     default input for the corrupted party and computes f locally.
//
//  2. Two reconstruction rounds: the sharing is first reconstructed
//     toward p_i (round 1), then toward p_¬i (round 2). If p_¬i fails to
//     send a valid share in round 1, p_i computes f locally on the
//     default input; if p_i fails in round 2, p_¬i outputs ⊥.
//
// Theorem 3: no adversary earns more than (γ10+γ11)/2 + negl. Theorem 4:
// for the swap function this is tight for every protocol.
package twoparty

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/crypto/share"
	"repro/internal/field"
	"repro/internal/sim"
)

// Function is the two-party function the protocol evaluates. Outputs must
// fit in the field GF(2^61−1).
type Function struct {
	// Name labels the function in traces.
	Name string
	// Eval is the reference semantics (single global output, wlog).
	Eval func(x1, x2 uint64) uint64
	// Default1 and Default2 are the default inputs substituted for an
	// aborting party.
	Default1, Default2 uint64
}

// SwapBits is the input width of the swap function below.
const SwapBits = 30

// Swap is the paper's swap function f_swp(x1, x2) = (x2, x1), packed into
// a single global output x2·2^30 + x1 (Appendix A treats the multi-output
// case via the standard one-time-pad embedding; packing both halves into
// the global output is the same device). Theorem 4's lower bound is
// proved for this function.
func Swap() Function {
	return Function{
		Name: "swap",
		Eval: func(x1, x2 uint64) uint64 {
			mask := uint64(1)<<SwapBits - 1
			return (x2&mask)<<SwapBits | (x1 & mask)
		},
	}
}

// Millionaires is [x1 > x2] — a small-range function used by examples.
func Millionaires() Function {
	return Function{
		Name: "millionaires",
		Eval: func(x1, x2 uint64) uint64 {
			if x1 > x2 {
				return 1
			}
			return 0
		},
	}
}

// setupOut is one party's private output of the f′ hybrid.
type setupOut struct {
	Share share.AuthShare
	First sim.PartyID
}

// Protocol is ΠOpt-2SFE (FixedFirst == 0) or its unfair fixed-order
// variant (FixedFirst ∈ {1, 2}), which always reconstructs toward the
// same party first and therefore grants its best attacker γ10 — the
// baseline showing what optimality buys.
type Protocol struct {
	Fn Function
	// FixedFirst, when 1 or 2, pins the reconstruction order instead of
	// drawing i uniformly.
	FixedFirst int
	// FirstBias, when in (0, 1), draws i = 1 with that probability
	// instead of uniformly — the order-selection ablation knob. The
	// uniform choice q = 1/2 minimizes the best attacker's utility
	// max{q, 1−q}·γ10 + min{q, 1−q}·γ11 (experiment E13).
	FirstBias float64
}

var _ sim.Protocol = Protocol{}

// New returns the optimally fair protocol for fn.
func New(fn Function) Protocol { return Protocol{Fn: fn} }

// NewFixedOrder returns the unfair baseline reconstructing toward party
// first every time.
func NewFixedOrder(fn Function, first int) Protocol {
	return Protocol{Fn: fn, FixedFirst: first}
}

// NewBiasedOrder returns the ablation variant that reconstructs toward
// p1 first with probability q in (0, 1).
func NewBiasedOrder(fn Function, q float64) Protocol {
	return Protocol{Fn: fn, FirstBias: q}
}

// Name implements sim.Protocol.
func (p Protocol) Name() string {
	if p.FixedFirst != 0 {
		return fmt.Sprintf("2SFE-fixed%d-%s", p.FixedFirst, p.Fn.Name)
	}
	if p.FirstBias > 0 && p.FirstBias < 1 {
		return fmt.Sprintf("2SFE-biased%.2f-%s", p.FirstBias, p.Fn.Name)
	}
	return "2SFE-opt-" + p.Fn.Name
}

// NumParties implements sim.Protocol.
func (Protocol) NumParties() int { return 2 }

// NumRounds implements sim.Protocol: the two reconstruction rounds.
func (Protocol) NumRounds() int { return 2 }

// Func implements sim.Protocol.
func (p Protocol) Func(inputs []sim.Value) sim.Value {
	x1, _ := inputs[0].(uint64)
	x2, _ := inputs[1].(uint64)
	return p.Fn.Eval(x1, x2)
}

// DefaultInput implements sim.Protocol.
func (p Protocol) DefaultInput(id sim.PartyID) sim.Value {
	if id == 1 {
		return p.Fn.Default1
	}
	return p.Fn.Default2
}

// ErrOutputRange is returned when f's output does not fit in the field.
var ErrOutputRange = errors.New("twoparty: function output exceeds field modulus")

// setupCore is the shared body of Setup and the scratch evaluator: deal
// the authenticated sharing of y = f(effective inputs) and draw the
// reconstruction order.
func (p Protocol) setupCore(inputs []sim.Value, rng *rand.Rand) (s1, s2 share.AuthShare, first sim.PartyID, err error) {
	y, ok := p.Func(inputs).(uint64)
	if !ok {
		return s1, s2, 0, errors.New("twoparty: non-integer function output")
	}
	if y >= field.Modulus {
		return s1, s2, 0, ErrOutputRange
	}
	s1, s2, err = share.AuthDeal(rng, field.Element(y))
	if err != nil {
		return s1, s2, 0, fmt.Errorf("twoparty: setup: %w", err)
	}
	first = sim.PartyID(1 + rng.Intn(2))
	if p.FirstBias > 0 && p.FirstBias < 1 {
		first = 2
		if rng.Float64() < p.FirstBias {
			first = 1
		}
	}
	if p.FixedFirst == 1 || p.FixedFirst == 2 {
		first = sim.PartyID(p.FixedFirst)
	}
	return s1, s2, first, nil
}

// Setup implements sim.Protocol: the f′ hybrid of phase 1.
func (p Protocol) Setup(inputs []sim.Value, rng *rand.Rand) ([]sim.Value, error) {
	s1, s2, first, err := p.setupCore(inputs, rng)
	if err != nil {
		return nil, err
	}
	return []sim.Value{
		setupOut{Share: s1, First: first},
		setupOut{Share: s2, First: first},
	}, nil
}

// NewSetupScratch implements sim.ScratchSetupProtocol: a setup evaluator
// whose output slice and setupOut cells are reused across runs, so the
// estimation hot path allocates nothing per setup. The cells are boxed
// as pointers once at construction.
func (p Protocol) NewSetupScratch() func([]sim.Value, *rand.Rand) ([]sim.Value, error) {
	var cells [2]setupOut
	outs := []sim.Value{&cells[0], &cells[1]}
	return func(inputs []sim.Value, rng *rand.Rand) ([]sim.Value, error) {
		s1, s2, first, err := p.setupCore(inputs, rng)
		if err != nil {
			return nil, err
		}
		cells[0] = setupOut{Share: s1, First: first}
		cells[1] = setupOut{Share: s2, First: first}
		return outs, nil
	}
}

// asSetupOut unwraps a setup output delivered either by value (plain
// Setup) or as a pointer into scratch (NewSetupScratch).
func asSetupOut(v sim.Value) (setupOut, bool) {
	switch s := v.(type) {
	case setupOut:
		return s, true
	case *setupOut:
		return *s, true
	}
	return setupOut{}, false
}

// NewParty implements sim.Protocol.
func (p Protocol) NewParty(id sim.PartyID, input sim.Value, out sim.Value, aborted bool, _ *rand.Rand) (sim.Party, error) {
	x, _ := input.(uint64)
	m := &machine{id: id, input: x, fn: p.Fn, setupAborted: aborted}
	if !aborted {
		so, ok := asSetupOut(out)
		if !ok {
			return nil, fmt.Errorf("twoparty: party %d: bad setup output %T", id, out)
		}
		m.share = so.Share
		m.first = so.First
	}
	return m, nil
}

type machine struct {
	id           sim.PartyID
	input        uint64
	fn           Function
	setupAborted bool

	share share.AuthShare
	first sim.PartyID

	result uint64
	done   bool
	// outBox caches the boxed result so Output never allocates.
	outBox sim.Value

	// Message scratch: a machine opens its share at most once per run,
	// so one message cell and one payload cell suffice. The returned
	// slice and the payload pointer are machine-owned, per the Party
	// contract (valid until the next Round call).
	open share.OpenMsg
	msgs [1]sim.Message
}

// Reinit implements sim.ReusableParty: reset the machine in place for a
// new run, exactly as a fresh NewParty would configure it.
func (m *machine) Reinit(id sim.PartyID, input sim.Value, out sim.Value, aborted bool, _ *rand.Rand) bool {
	x, _ := input.(uint64)
	m.id, m.input, m.setupAborted = id, x, aborted
	m.share, m.first = share.AuthShare{}, 0
	m.result, m.done, m.outBox = 0, false, nil
	if !aborted {
		so, ok := asSetupOut(out)
		if !ok {
			return false // fall back to NewParty, which reports the defect
		}
		m.share, m.first = so.Share, so.First
	}
	return true
}

// CopyFrom implements sim.PartyCopier, so lookahead adversaries can
// reuse clone machines.
func (m *machine) CopyFrom(src sim.Party) bool {
	s, ok := src.(*machine)
	if !ok {
		return false
	}
	*m = *s
	return true
}

// setResult records the machine's final output, boxing it once.
func (m *machine) setResult(y uint64) {
	m.result, m.done = y, true
	m.outBox = y
}

// openMsg prepares the single opening message toward the counterparty.
func (m *machine) openMsg() []sim.Message {
	m.open = m.share.Open()
	m.msgs[0] = sim.Message{From: m.id, To: m.other(), Payload: &m.open}
	return m.msgs[:]
}

func (m *machine) other() sim.PartyID { return sim.PartyID(3 - int(m.id)) }

// localFallback evaluates f on the default input for the counterparty.
func (m *machine) localFallback() {
	if m.id == 1 {
		m.setResult(m.fn.Eval(m.input, m.fn.Default2))
	} else {
		m.setResult(m.fn.Eval(m.fn.Default1, m.input))
	}
}

func (m *machine) Round(round int, inbox []sim.Message) ([]sim.Message, error) {
	if m.setupAborted {
		// Phase-1 abort: local evaluation with the default input.
		if round == 1 && !m.done {
			m.localFallback()
		}
		return nil, nil
	}
	switch round {
	case 1:
		// p_¬i opens its share toward p_i.
		if m.id != m.first {
			return m.openMsg(), nil
		}
	case 2:
		// p_i reconstructs; on success it opens toward p_¬i, on failure
		// it computes f locally with the default input (second round
		// omitted).
		if m.id == m.first {
			y, ok := m.reconstruct(inbox)
			if !ok {
				m.localFallback()
				return nil, nil
			}
			m.setResult(y)
			return m.openMsg(), nil
		}
	case 3:
		// p_¬i reconstructs; on failure it outputs ⊥ (the output is
		// already out — only an ideal-world abort is simulatable).
		if m.id != m.first {
			if y, ok := m.reconstruct(inbox); ok {
				m.setResult(y)
			}
		}
	}
	return nil, nil
}

// asOpenMsg unwraps an opening payload, delivered as a pointer into the
// sender's scratch (the hot path) or by value (an adversary's hand-built
// messages).
func asOpenMsg(payload any) (share.OpenMsg, bool) {
	switch o := payload.(type) {
	case *share.OpenMsg:
		return *o, true
	case share.OpenMsg:
		return o, true
	}
	return share.OpenMsg{}, false
}

func (m *machine) reconstruct(inbox []sim.Message) (uint64, bool) {
	for _, msg := range inbox {
		open, ok := asOpenMsg(msg.Payload)
		if !ok || msg.From != m.other() {
			continue
		}
		y, err := share.AuthReconstruct(m.share, open)
		if err != nil {
			return 0, false
		}
		return y.Uint64(), true
	}
	return 0, false
}

func (m *machine) Output() (sim.Value, bool) {
	if !m.done {
		return nil, false
	}
	return m.outBox, true
}

func (m *machine) Clone() sim.Party { cp := *m; return &cp }
