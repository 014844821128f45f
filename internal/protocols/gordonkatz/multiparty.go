package gordonkatz

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/crypto/mac"
	"repro/internal/crypto/share"
	"repro/internal/field"
	"repro/internal/sim"
)

// MultiParty is the n-party generalization of the Gordon–Katz iterated-
// reveal protocol, in the spirit of Beimel–Lindell–Omri–Orlov's
// "1/p-secure multiparty computation without honest majority" (the
// extension the paper cites in Section 1 and Section 5): ShareGen picks a
// uniform switch round i* ∈ [r], prepares values v_1..v_r with v_i = f(x)
// for i ≥ i* and v_i = f(x̂) on fresh uniform inputs before it, and deals
// each v_i as an authenticated n-of-n sharing. The online phase publicly
// reconstructs one v_i per broadcast round; a party that withholds its
// summand at round i denies everyone v_i while — being rushing — having
// already seen the honest summands, so it learns v_i itself. Aborting at
// exactly i* is therefore the only profitable deviation, and it succeeds
// with probability 1/r ≤ 1/p.
type MultiParty struct {
	// Fn is the evaluated function.
	Fn NPartyFn
	// P is the fairness parameter.
	P int
	// Iterations is r = p·|X1×…×Xn|.
	Iterations int
}

// NPartyFn is an n-party function with explicit finite per-party domains
// and output range.
type NPartyFn struct {
	// Name labels the function.
	Name string
	// Domains lists each party's input domain.
	Domains [][]uint64
	// Range enumerates the output range.
	Range []uint64
	// Eval is the reference semantics.
	Eval func(xs []uint64) uint64
	// Defaults are per-party default inputs.
	Defaults []uint64
}

// Validate checks the function description.
func (f NPartyFn) Validate() error {
	if len(f.Domains) < 2 {
		return fmt.Errorf("gordonkatz: %s: need ≥ 2 parties", f.Name)
	}
	for i, d := range f.Domains {
		if len(d) == 0 {
			return fmt.Errorf("gordonkatz: %s: empty domain for party %d", f.Name, i+1)
		}
	}
	if len(f.Range) == 0 {
		return fmt.Errorf("gordonkatz: %s: empty range", f.Name)
	}
	if f.Eval == nil {
		return fmt.Errorf("gordonkatz: %s: nil Eval", f.Name)
	}
	return nil
}

// ANDn is the n-way conjunction with boolean domains.
func ANDn(n int) NPartyFn {
	domains := make([][]uint64, n)
	for i := range domains {
		domains[i] = []uint64{0, 1}
	}
	return NPartyFn{
		Name:    fmt.Sprintf("and%d", n),
		Domains: domains,
		Range:   []uint64{0, 1},
		Eval: func(xs []uint64) uint64 {
			out := uint64(1)
			for _, x := range xs {
				out &= x
			}
			return out
		},
		Defaults: make([]uint64, n),
	}
}

var (
	_ sim.Protocol       = MultiParty{}
	_ sim.OutcomeAuditor = MultiParty{}
)

// NewMultiParty builds the protocol. The iteration count is
// r = p·|X1 × … × Xn| — the product-domain analogue of Gordon–Katz's
// p·|Y| (Beimel et al. require a polynomial product domain for exactly
// this reason): every achievable output is hit by a fake value with
// probability ≥ 1/|X1×…×Xn| per pre-switch round, so the first-hit abort
// succeeds at exactly i* with probability ≤ |X1×…×Xn|/r = 1/p.
func NewMultiParty(fn NPartyFn, p int) (MultiParty, error) {
	if err := fn.Validate(); err != nil {
		return MultiParty{}, err
	}
	if p < 1 {
		return MultiParty{}, ErrBadParam
	}
	product := 1
	for _, d := range fn.Domains {
		product *= len(d)
		if product > 1<<16 {
			return MultiParty{}, fmt.Errorf("gordonkatz: %s: product domain too large (> 2^16)", fn.Name)
		}
	}
	return MultiParty{Fn: fn, P: p, Iterations: p * product}, nil
}

// Name implements sim.Protocol.
func (m MultiParty) Name() string {
	return fmt.Sprintf("gk-multiparty-%s-p%d", m.Fn.Name, m.P)
}

// NumParties implements sim.Protocol.
func (m MultiParty) NumParties() int { return len(m.Fn.Domains) }

// NumRounds implements sim.Protocol: one broadcast round per iteration.
func (m MultiParty) NumRounds() int { return m.Iterations }

// Func implements sim.Protocol.
func (m MultiParty) Func(inputs []sim.Value) sim.Value {
	xs := make([]uint64, len(inputs))
	for i, v := range inputs {
		xs[i], _ = v.(uint64)
	}
	return m.Fn.Eval(xs)
}

// DefaultInput implements sim.Protocol.
func (m MultiParty) DefaultInput(id sim.PartyID) sim.Value {
	if int(id) >= 1 && int(id) <= len(m.Fn.Defaults) {
		return m.Fn.Defaults[id-1]
	}
	return uint64(0)
}

// mpSetupOut is one party's ShareGen output.
type mpSetupOut struct {
	// Mine[i] is this party's summand of v_{i+1}'s sharing.
	Mine []share.AuthNShare
	// Keys[i] verifies iteration i+1's announced summands.
	Keys []mac.ByteKey
}

// Setup implements sim.Protocol.
func (m MultiParty) Setup(inputs []sim.Value, rng *rand.Rand) ([]sim.Value, error) {
	n := m.NumParties()
	real, ok := m.Func(inputs).(uint64)
	if !ok || real >= field.Modulus {
		return nil, errors.New("gordonkatz: bad function output")
	}
	istar := 1 + rng.Intn(m.Iterations)
	outs := make([]mpSetupOut, n)
	for i := 1; i <= m.Iterations; i++ {
		v := real
		if i < istar {
			v = m.fakeValue(rng)
		}
		sharing, err := share.AuthDealN(rng, field.Element(v), n)
		if err != nil {
			return nil, fmt.Errorf("gordonkatz: multiparty setup: %w", err)
		}
		for j := range outs {
			outs[j].Mine = append(outs[j].Mine, sharing.Shares[j])
			outs[j].Keys = append(outs[j].Keys, sharing.Key)
		}
	}
	values := make([]sim.Value, n)
	for j := range outs {
		values[j] = outs[j]
	}
	return append(values, gkAudit{IStar: istar}), nil
}

// fakeValue draws f on fresh uniform inputs.
func (m MultiParty) fakeValue(rng *rand.Rand) uint64 {
	xs := make([]uint64, len(m.Fn.Domains))
	for i, d := range m.Fn.Domains {
		xs[i] = d[rng.Intn(len(d))]
	}
	return m.Fn.Eval(xs)
}

// NewParty implements sim.Protocol.
func (m MultiParty) NewParty(id sim.PartyID, _ sim.Value, out sim.Value, aborted bool, rng *rand.Rand) (sim.Party, error) {
	mach := &mpMachine{
		id: id, n: m.NumParties(), iters: m.Iterations,
		setupAborted: aborted,
		replacement:  m.fakeValue(rng),
	}
	if !aborted {
		so, ok := out.(mpSetupOut)
		if !ok {
			return nil, fmt.Errorf("gordonkatz: party %d: bad setup output %T", id, out)
		}
		mach.setup = so
	}
	return mach, nil
}

// mpShareMsg is the broadcast of one iteration's summand.
type mpShareMsg struct {
	Iter  int
	Share share.AuthNShare
}

type mpMachine struct {
	id           sim.PartyID
	n            int
	iters        int
	setupAborted bool
	setup        mpSetupOut
	replacement  uint64

	lastIter int
	lastVal  uint64
	done     bool
}

var _ sim.AuditedParty = (*mpMachine)(nil)

func (m *mpMachine) Round(round int, inbox []sim.Message) ([]sim.Message, error) {
	if m.setupAborted {
		if !m.done {
			// ShareGen abort: local default evaluation is impossible
			// without the others' inputs; adopt the F$ replacement.
			m.lastVal, m.done = m.replacement, true
		}
		return nil, nil
	}
	if m.done {
		return nil, nil
	}
	// Reconstruct the previous iteration first.
	if round >= 2 && !m.reconstruct(round-1, inbox) {
		m.abort()
		return nil, nil
	}
	if round > m.iters {
		m.done = true
		return nil, nil
	}
	return []sim.Message{{From: m.id, To: sim.Broadcast,
		Payload: mpShareMsg{Iter: round, Share: m.setup.Mine[round-1]}}}, nil
}

func (m *mpMachine) reconstruct(iter int, inbox []sim.Message) bool {
	announced := []share.AuthNShare{m.setup.Mine[iter-1]}
	for _, msg := range inbox {
		if sm, ok := msg.Payload.(mpShareMsg); ok && sm.Iter == iter {
			announced = append(announced, sm.Share)
		}
	}
	v, err := share.AuthReconstructN(m.setup.Keys[iter-1], m.n, announced)
	if err != nil {
		return false
	}
	m.lastIter, m.lastVal = iter, v.Uint64()
	return true
}

// abort finalizes with the last reconstructed value, or the F$
// replacement when nothing was reconstructed.
func (m *mpMachine) abort() {
	if m.lastIter == 0 {
		m.lastVal = m.replacement
	}
	m.done = true
}

func (m *mpMachine) Output() (sim.Value, bool) {
	if m.setupAborted && !m.done {
		return nil, false
	}
	if !m.done && m.lastIter == 0 {
		return nil, false
	}
	return m.lastVal, true
}

func (m *mpMachine) Clone() sim.Party {
	cp := *m
	return &cp
}

// AuditInfo implements sim.AuditedParty.
func (m *mpMachine) AuditInfo() sim.Value { return m.lastIter }

// AuditOutcome implements sim.OutcomeAuditor. A rushing coalition that
// aborts at iteration i has already seen the honest summands of v_i, so
// it learned iff i = (honest lastIter)+1 ≥ i*; honest outputs are real
// iff lastIter ≥ i*, F$ replacements otherwise.
func (m MultiParty) AuditOutcome(tr *sim.Trace) sim.OutcomeAudit {
	audit, ok := tr.SetupAudit.(gkAudit)
	if !ok {
		return sim.OutcomeAudit{}
	}
	t := tr.NumCorrupted()
	if tr.SetupAborted {
		// Honest parties adopted F$ replacements.
		return sim.OutcomeAudit{RandomReplaced: allOK(tr)}
	}
	switch t {
	case 0:
		return sim.OutcomeAudit{Delivered: allOK(tr)}
	case m.NumParties():
		return sim.OutcomeAudit{Learned: true, LearnedValue: tr.HybridOutput, Delivered: true}
	}
	last := 0
	for _, v := range tr.HonestAudits { // corrupted parties' entries are nil
		if li, ok := v.(int); ok && li > last {
			last = li
		}
	}
	out := sim.OutcomeAudit{}
	if last+1 >= audit.IStar {
		out.Learned, out.LearnedValue = true, tr.HybridOutput
	}
	switch {
	case !allOK(tr):
	case last >= audit.IStar:
		out.Delivered = true
	default:
		out.RandomReplaced = true
	}
	return out
}
