package gordonkatz

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/crypto/share"
	"repro/internal/field"
	"repro/internal/sim"
)

// fakeMode selects how pre-switch values are generated.
type fakeMode int

const (
	// fakeByDomain: a_i = f(x, ŷ), b_i = f(x̂, y) with uniform ŷ, x̂
	// (the poly-domain protocol).
	fakeByDomain fakeMode = iota + 1
	// fakeByRange: fake values uniform over the output range (the
	// poly-range protocol).
	fakeByRange
)

// Protocol is a Gordon–Katz iterated-reveal protocol in the ShareGen-
// hybrid model. Engine round 2i−1 carries p2's opening of p1's i-th
// value a_i; round 2i carries p1's opening of p2's i-th value b_i —
// within each iteration p1 learns first, as in [GK10].
type Protocol struct {
	Fn TwoPartyFn
	// P is the fairness parameter: utility ≤ 1/P under ~γ = (0,0,1,0).
	P int
	// Iterations is the number of value pairs r.
	Iterations int
	mode       fakeMode
}

var (
	_ sim.Protocol             = Protocol{}
	_ sim.OutcomeAuditor       = Protocol{}
	_ sim.ScratchSetupProtocol = Protocol{}
)

// ErrBadParam is returned for nonsensical parameters: p < 1, or a p so
// large that the protocol's round count overflows an int.
var ErrBadParam = errors.New("gordonkatz: p out of range")

// NewPolyDomain builds the [GK10] §3.2 protocol: r = p·|Y| iterations.
func NewPolyDomain(fn TwoPartyFn, p int) (Protocol, error) {
	if err := fn.Validate(); err != nil {
		return Protocol{}, err
	}
	// NumRounds is 2r = 2p·|Y|.
	if p < 1 || p > math.MaxInt/2/len(fn.YDomain) {
		return Protocol{}, ErrBadParam
	}
	return Protocol{Fn: fn, P: p, Iterations: p * len(fn.YDomain), mode: fakeByDomain}, nil
}

// NewPolyRange builds the [GK10] §3.3 protocol: r = p²·|Z| iterations.
func NewPolyRange(fn TwoPartyFn, p int) (Protocol, error) {
	if err := fn.Validate(); err != nil {
		return Protocol{}, err
	}
	if len(fn.Range) == 0 {
		return Protocol{}, fmt.Errorf("gordonkatz: %s: empty range", fn.Name)
	}
	// NumRounds is 2r = 2p²·|Z|.
	if p < 1 || p > math.MaxInt/2/len(fn.Range)/p {
		return Protocol{}, ErrBadParam
	}
	return Protocol{Fn: fn, P: p, Iterations: p * p * len(fn.Range), mode: fakeByRange}, nil
}

// Name implements sim.Protocol.
func (p Protocol) Name() string {
	kind := "polydomain"
	if p.mode == fakeByRange {
		kind = "polyrange"
	}
	return fmt.Sprintf("gk-%s-%s-p%d", kind, p.Fn.Name, p.P)
}

// NumParties implements sim.Protocol.
func (Protocol) NumParties() int { return 2 }

// NumRounds implements sim.Protocol: two engine rounds per iteration.
func (p Protocol) NumRounds() int { return 2 * p.Iterations }

// Func implements sim.Protocol.
func (p Protocol) Func(inputs []sim.Value) sim.Value {
	x, _ := inputs[0].(uint64)
	y, _ := inputs[1].(uint64)
	return p.Fn.Eval(x, y)
}

// DefaultInput implements sim.Protocol.
func (p Protocol) DefaultInput(id sim.PartyID) sim.Value {
	if id == 1 {
		return p.Fn.Default1
	}
	return p.Fn.Default2
}

// gkSetupOut is one party's ShareGen output: for each iteration, its
// half of the sharing it will reconstruct (mine) and its half of the
// sharing it must open toward the counterparty (theirs). Machines read
// it through at, which deals the iteration first if no one has.
type gkSetupOut struct {
	gen          *shareGen
	mine, theirs []share.AuthShare
}

// at returns the party's halves of iteration iter's two sharings.
func (s *gkSetupOut) at(iter int) (mine, theirs share.AuthShare, err error) {
	if err := s.gen.deal(iter); err != nil {
		return share.AuthShare{}, share.AuthShare{}, err
	}
	return s.mine[iter-1], s.theirs[iter-1], nil
}

// gkAudit is the hidden audit state: the switch round.
type gkAudit struct {
	IStar int
}

// shareGen is one run of the ShareGen functionality. start checks the
// field bound and draws the switch round i*; deal then deals the value
// pairs in iteration order on the run's protocol stream. Setup deals
// them all at once. The setup scratch deals pair i the first time a
// machine, or a lookahead clone of one, reads iteration i, so a run
// that ends early never draws the pairs it does not reach. Pair i is
// the i-th pair dealt on the stream either way, so both yield the same
// values.
type shareGen struct {
	p            Protocol
	rng          *rand.Rand
	x, y, real   uint64
	istar, dealt int
	err          error
	out          [2]gkSetupOut
}

// start begins a run of ShareGen on inputs, reusing the receiver's
// share slices.
func (g *shareGen) start(p Protocol, inputs []sim.Value, rng *rand.Rand) error {
	x, _ := inputs[0].(uint64)
	y, _ := inputs[1].(uint64)
	real := p.Fn.Eval(x, y)
	if real >= field.Modulus {
		return fmt.Errorf("gordonkatz: output %d exceeds field", real)
	}
	g.p, g.rng, g.x, g.y, g.real = p, rng, x, y, real
	g.istar, g.dealt, g.err = 1+rng.Intn(p.Iterations), 0, nil
	for k := range g.out {
		o := &g.out[k]
		o.gen, o.mine, o.theirs = g, o.mine[:0], o.theirs[:0]
	}
	return nil
}

// deal deals the pairs up to iteration iter that are not dealt yet.
func (g *shareGen) deal(iter int) error {
	for g.dealt < iter && g.err == nil {
		ai, bi := g.real, g.real
		if g.dealt+1 < g.istar {
			ai, bi = g.p.fakePair(g.x, g.y, g.rng)
		}
		a1, a2, err := share.AuthDeal(g.rng, field.Element(ai))
		if err != nil {
			g.err = fmt.Errorf("gordonkatz: setup: %w", err)
			break
		}
		b1, b2, err := share.AuthDeal(g.rng, field.Element(bi))
		if err != nil {
			g.err = fmt.Errorf("gordonkatz: setup: %w", err)
			break
		}
		// p1 reconstructs the a-sequence and opens the b-sequence; p2
		// reconstructs the b-sequence and opens the a-sequence.
		p1, p2 := &g.out[0], &g.out[1]
		p1.mine, p1.theirs = append(p1.mine, a1), append(p1.theirs, b1)
		p2.mine, p2.theirs = append(p2.mine, b2), append(p2.theirs, a2)
		g.dealt++
	}
	return g.err
}

// Setup implements sim.Protocol: the ShareGen functionality, dealing
// every pair.
func (p Protocol) Setup(inputs []sim.Value, rng *rand.Rand) ([]sim.Value, error) {
	g := new(shareGen)
	if err := g.start(p, inputs, rng); err != nil {
		return nil, err
	}
	if err := g.deal(p.Iterations); err != nil {
		return nil, err
	}
	return []sim.Value{&g.out[0], &g.out[1], gkAudit{IStar: g.istar}}, nil
}

// NewSetupScratch implements sim.ScratchSetupProtocol: a ShareGen run
// that deals each pair when a machine first reads it (see shareGen) and
// whose output slice, setup cells and share slices are reused across
// runs. The audit stays a gkAudit value (AuditOutcome and trace
// comparisons read it by value, and boxing it allocates nothing while
// i* < 256).
func (p Protocol) NewSetupScratch() func([]sim.Value, *rand.Rand) ([]sim.Value, error) {
	g := new(shareGen)
	outs := []sim.Value{&g.out[0], &g.out[1], nil}
	return func(inputs []sim.Value, rng *rand.Rand) ([]sim.Value, error) {
		if err := g.start(p, inputs, rng); err != nil {
			return nil, err
		}
		outs[2] = gkAudit{IStar: g.istar}
		return outs, nil
	}
}

// fakePair draws the pre-switch values per the protocol variant.
func (p Protocol) fakePair(x, y uint64, rng *rand.Rand) (uint64, uint64) {
	switch p.mode {
	case fakeByRange:
		return p.Fn.Range[rng.Intn(len(p.Fn.Range))], p.Fn.Range[rng.Intn(len(p.Fn.Range))]
	default:
		yhat := p.Fn.YDomain[rng.Intn(len(p.Fn.YDomain))]
		xhat := p.Fn.XDomain[rng.Intn(len(p.Fn.XDomain))]
		return p.Fn.Eval(x, yhat), p.Fn.Eval(xhat, y)
	}
}

// NewParty implements sim.Protocol. The F_sfe^$ replacement value (used
// when the counterparty aborts before any reconstruction) is pre-drawn
// here from the distribution Y_i(x_i) of Appendix C.2.
func (p Protocol) NewParty(id sim.PartyID, input sim.Value, out sim.Value, aborted bool, rng *rand.Rand) (sim.Party, error) {
	m := &gkParty{}
	if err := m.init(p, id, input, out, aborted, rng); err != nil {
		return nil, err
	}
	return m, nil
}

// gkParty is one Gordon–Katz machine. It also serves, with a round
// offset, as the second stage of the leaky protocol Π̃.
type gkParty struct {
	// proto is the machine's protocol: Reinit redraws the replacement
	// value through it.
	proto        Protocol
	id           sim.PartyID
	input        uint64
	setupAborted bool
	// setup aliases the ShareGen output, which the engine keeps valid
	// for the whole run; clones share it, and reading it deals.
	setup *gkSetupOut
	// offset shifts the engine round numbering (used by Π̃).
	offset int
	// replacement is the pre-drawn F_sfe^$ random-replacement value.
	replacement uint64

	lastIter int    // last successfully reconstructed iteration
	lastVal  uint64 // its value
	done     bool   // terminated (abort or completion)
	failed   bool   // counterpart aborted

	// Message scratch. A party sends every other engine round, and each
	// opening is read in the round after it is sent, so one payload cell
	// suffices. The returned slice and the payload pointer are
	// machine-owned, per the Party contract.
	open gkOpen
	msgs [1]sim.Message
}

var (
	_ sim.ReusableParty = (*gkParty)(nil)
	_ sim.PartyCopier   = (*gkParty)(nil)
)

// init configures the machine for a run of p. It draws exactly what
// NewParty draws: one fakePair for the replacement value.
func (m *gkParty) init(p Protocol, id sim.PartyID, input sim.Value, out sim.Value, aborted bool, rng *rand.Rand) error {
	x, _ := input.(uint64)
	a, b := p.fakePair(x, x, rng) // only the own-input side is used below
	replacement := a
	if id == 2 {
		replacement = b
	}
	*m = gkParty{proto: p, id: id, input: x, setupAborted: aborted, replacement: replacement}
	if !aborted {
		so, ok := out.(*gkSetupOut)
		if !ok {
			return fmt.Errorf("gordonkatz: party %d: bad setup output %T", id, out)
		}
		m.setup = so
	}
	return nil
}

// Reinit implements sim.ReusableParty.
func (m *gkParty) Reinit(id sim.PartyID, input sim.Value, out sim.Value, aborted bool, rng *rand.Rand) bool {
	return m.init(m.proto, id, input, out, aborted, rng) == nil
}

// CopyFrom implements sim.PartyCopier. The setup output is shared, not
// copied: no machine writes the shares, and the engine keeps them valid
// for the run.
func (m *gkParty) CopyFrom(src sim.Party) bool {
	s, ok := src.(*gkParty)
	if !ok {
		return false
	}
	*m = *s
	return true
}

var _ sim.AuditedParty = (*gkParty)(nil)

func (m *gkParty) other() sim.PartyID { return sim.PartyID(3 - int(m.id)) }

// fallbackOutput is the value adopted on an abort before any successful
// reconstruction: a fresh draw from the F_sfe^$ replacement distribution
// (after a ShareGen abort the default-input evaluation is used instead,
// matching the simulator that substitutes the default input).
func (m *gkParty) fallbackOutput() uint64 {
	if m.setupAborted {
		fn := &m.proto.Fn
		if m.id == 1 {
			return fn.Eval(m.input, fn.Default2)
		}
		return fn.Eval(fn.Default1, m.input)
	}
	return m.replacement
}

func (m *gkParty) Round(round int, inbox []sim.Message) ([]sim.Message, error) {
	if m.setupAborted {
		if !m.done {
			m.lastVal, m.done = m.fallbackOutput(), true
		}
		return nil, nil
	}
	r := round - m.offset
	if r < 1 || m.failed || m.done && r > 2*m.proto.Iterations {
		return nil, nil
	}
	odd := r%2 == 1
	iter := (r + 1) / 2 // iteration this engine round belongs to

	if m.id == 2 && odd {
		// p2: reconstruct b_{iter−1} (sent by p1 last round), then open
		// a_iter toward p1.
		if iter > 1 {
			if ok, err := m.reconstruct(iter-1, inbox); !ok {
				m.abort()
				return nil, err
			}
		}
		if iter > m.proto.Iterations {
			// Past the last iteration: the final reconstruct concluded.
			m.done = true
			return nil, nil
		}
		return m.openIter(iter)
	}
	if m.id == 1 && !odd {
		// p1: reconstruct a_iter (sent by p2 last round), then open
		// b_iter toward p2.
		if ok, err := m.reconstruct(iter, inbox); !ok {
			m.abort()
			return nil, err
		}
		if iter == m.proto.Iterations {
			m.done = true
		}
		return m.openIter(iter)
	}
	return nil, nil
}

// openIter prepares the opening of the counterparty's iter-th value.
func (m *gkParty) openIter(iter int) ([]sim.Message, error) {
	_, theirs, err := m.setup.at(iter)
	if err != nil {
		return nil, err
	}
	m.open = gkOpen{Iter: iter, Open: theirs.Open()}
	m.msgs[0] = sim.Message{From: m.id, To: m.other(), Payload: &m.open}
	return m.msgs[:], nil
}

// gkOpen is an iteration opening.
type gkOpen struct {
	Iter int
	Open share.OpenMsg
}

// asOpen unwraps an iteration opening, delivered as a pointer into the
// sender's payload cell (the hot path) or by value (an adversary's
// hand-built messages).
func asOpen(payload any) (gkOpen, bool) {
	switch o := payload.(type) {
	case *gkOpen:
		return *o, true
	case gkOpen:
		return o, true
	}
	return gkOpen{}, false
}

// reconstruct reconstructs the party's iter-th value from the
// counterparty's opening in inbox and reports whether it succeeded; the
// error is a failed deal.
func (m *gkParty) reconstruct(iter int, inbox []sim.Message) (bool, error) {
	for _, msg := range inbox {
		op, ok := asOpen(msg.Payload)
		if !ok || msg.From != m.other() || op.Iter != iter {
			continue
		}
		mine, _, err := m.setup.at(iter)
		if err != nil {
			return false, err
		}
		v, err := share.AuthReconstruct(mine, op.Open)
		if err != nil {
			return false, nil
		}
		m.lastIter, m.lastVal = iter, v.Uint64()
		return true, nil
	}
	return false, nil
}

// abort finalizes the machine with its last reconstructed value.
func (m *gkParty) abort() {
	m.failed, m.done = true, true
	if m.lastIter == 0 {
		m.lastVal = m.fallbackOutput()
	}
}

func (m *gkParty) Output() (sim.Value, bool) {
	// The machine always has a value: the last reconstructed one, or the
	// default-input fallback (never ⊥ — F_sfe^$ replaces, not erases).
	if m.setupAborted && !m.done {
		return nil, false
	}
	if !m.done && m.lastIter == 0 {
		return nil, false
	}
	if !m.done {
		return m.lastVal, true
	}
	return m.lastVal, true
}

func (m *gkParty) Clone() sim.Party {
	cp := *m
	return &cp
}

// AuditInfo implements sim.AuditedParty: the last reconstructed
// iteration.
func (m *gkParty) AuditInfo() sim.Value { return m.lastIter }

// AuditOutcome implements sim.OutcomeAuditor, reconstructing the ideal-
// world events of the F_sfe^$ simulator from the hidden switch round i*
// and the honest machines' iteration counters:
//
//   - corrupted p1 saw a_1..a_k where k = (honest p2's lastIter) + 1
//     (p2 opens a_k before it can detect p1's abort of iteration k), so
//     it learned iff k ≥ i*;
//   - corrupted p2 saw b_1..b_j where j = honest p1's lastIter (p1 only
//     opens b_j after successfully reconstructing a_j), so it learned
//     iff j ≥ i*;
//   - an honest party's output is real iff its lastIter ≥ i*, a random
//     F_sfe^$ replacement iff 0 ≤ lastIter < i* (with lastIter = 0 the
//     replacement draw happens at abort time), and a default-input
//     evaluation only after a ShareGen abort.
func (p Protocol) AuditOutcome(tr *sim.Trace) sim.OutcomeAudit {
	audit, ok := tr.SetupAudit.(gkAudit)
	if !ok {
		return sim.OutcomeAudit{}
	}
	t := tr.NumCorrupted()
	if tr.SetupAborted {
		// Honest parties evaluated on the default input: delivery.
		return sim.OutcomeAudit{Delivered: allOK(tr)}
	}
	switch t {
	case 0:
		return sim.OutcomeAudit{Delivered: allOK(tr)}
	case 2:
		return sim.OutcomeAudit{Learned: true, LearnedValue: tr.HybridOutput, Delivered: true}
	}
	out := sim.OutcomeAudit{}
	honest := sim.PartyID(2)
	if tr.Corrupted[2] {
		honest = 1
	}
	last, _ := tr.HonestAudits[honest].(int)
	if honest == 2 {
		// Corrupted p1 saw a_{last+1}.
		out.Learned = last+1 >= audit.IStar
	} else {
		// Corrupted p2 saw b_last.
		out.Learned = last >= audit.IStar
	}
	if out.Learned {
		out.LearnedValue = tr.HybridOutput
	}
	switch {
	case !allOK(tr):
		// ⊥ output (should not occur for this protocol family).
	case last >= audit.IStar:
		out.Delivered = true
	default:
		out.RandomReplaced = true
	}
	return out
}

// allOK reports whether every honest party produced a non-⊥ output.
func allOK(tr *sim.Trace) bool {
	for _, rec := range tr.HonestOutputs {
		if !rec.OK {
			return false
		}
	}
	return true
}
