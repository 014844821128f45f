// Package gmwproto implements the paper's unfair SFE protocol Π_GMW as a
// genuine message-passing protocol over the fairness engine, in the
// standard offline/online paradigm: a trusted-dealer hybrid (the offline
// phase / F_triples functionality) XOR-shares the parties' input bits and
// one Beaver multiplication triple per AND gate; the online phase then
// needs one broadcast round per AND layer — each party opens the masked
// operands d = x⊕a, e = y⊕b — plus a final round broadcasting the output
// wires' shares.
//
// The protocol is secure *with abort*: any corrupted party can withhold
// its final-round share after (rushing) seeing everyone else's, learning
// the output exclusively. That attack surface is the whole point — it is
// what the paper's fairness layer (ΠOpt-2SFE/ΠOpt-nSFE) is wrapped around
// — and experiment E15 measures it: sup u(Π_GMW) = γ10, against
// (γ10+γ11)/2 for the optimally fair wrapper.
//
// Malicious deviations *within* the arithmetic (lying about d/e shares)
// are outside the abort-only adversary model, exactly as the ZK
// compilation of GMW is outside the paper's scope; a lying share
// manifests as a correctness violation in the trace and is flagged, not
// silently accepted.
package gmwproto

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/circuit"
	"repro/internal/sim"
)

// Protocol is the Beaver-triple GMW online protocol for a fixed circuit.
type Protocol struct {
	circ    *circuit.Circuit
	n       int
	layers  [][]int
	perBits []int // input bits owned by each party
	label   string
}

var _ sim.Protocol = (*Protocol)(nil)

// Errors from the constructor.
var (
	ErrTooManyOutputs = errors.New("gmwproto: circuit outputs exceed 64 bits")
	ErrPartyCount     = errors.New("gmwproto: need at least 2 parties")
)

// New builds the protocol for circ among n parties. The circuit's output
// bits are packed little-endian into the protocol's uint64 global output.
func New(label string, circ *circuit.Circuit, n int) (*Protocol, error) {
	if n < 2 {
		return nil, ErrPartyCount
	}
	if err := circ.Validate(); err != nil {
		return nil, fmt.Errorf("gmwproto: %w", err)
	}
	if len(circ.Outputs) > 64 {
		return nil, ErrTooManyOutputs
	}
	perBits := make([]int, n)
	for w, owner := range circ.InputOwner {
		if owner < 0 || owner >= n {
			return nil, fmt.Errorf("gmwproto: input wire %d owned by party %d of %d", w, owner, n)
		}
		perBits[owner]++
	}
	return &Protocol{
		circ:    circ,
		n:       n,
		layers:  circ.Layers(),
		perBits: perBits,
		label:   label,
	}, nil
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "gmw-online-" + p.label }

// NumParties implements sim.Protocol.
func (p *Protocol) NumParties() int { return p.n }

// NumRounds implements sim.Protocol: one broadcast round per AND layer
// plus the output-share round.
func (p *Protocol) NumRounds() int { return len(p.layers) + 1 }

// DefaultInput implements sim.Protocol.
func (p *Protocol) DefaultInput(sim.PartyID) sim.Value { return uint64(0) }

// Func implements sim.Protocol: clear-circuit evaluation on the unpacked
// inputs, outputs packed little-endian.
func (p *Protocol) Func(inputs []sim.Value) sim.Value {
	global := p.unpack(inputs)
	out, err := p.circ.Eval(global)
	if err != nil {
		return uint64(0)
	}
	return circuit.BitsToUint(out)
}

// unpack expands per-party packed inputs into the global wire assignment.
func (p *Protocol) unpack(inputs []sim.Value) []bool {
	global := make([]bool, p.circ.NumInputs)
	cursor := make([]int, p.n)
	for w, owner := range p.circ.InputOwner {
		x, _ := inputs[owner].(uint64)
		global[w] = x&(1<<uint(cursor[owner])) != 0
		cursor[owner]++
	}
	return global
}

// triple is one party's share of a Beaver triple (a, b, c) with c = a∧b.
type triple struct {
	A, B, C bool
}

// setupOut is one party's offline-phase output.
type setupOut struct {
	// InputShares[w] is this party's XOR share of input wire w.
	InputShares []bool
	// Triples[k] is this party's share of AND gate k's triple, indexed
	// by position in the circuit's AND-gate enumeration order.
	Triples map[int]triple
}

// Setup implements sim.Protocol: the F_triples dealer.
func (p *Protocol) Setup(inputs []sim.Value, rng *rand.Rand) ([]sim.Value, error) {
	global := p.unpack(inputs)
	outs := make([]setupOut, p.n)
	for i := range outs {
		outs[i] = setupOut{
			InputShares: make([]bool, p.circ.NumInputs),
			Triples:     make(map[int]triple, p.circ.NumAndGates()),
		}
	}
	shareBit := func(bit bool) []bool {
		shares := make([]bool, p.n)
		acc := false
		for i := 0; i < p.n-1; i++ {
			shares[i] = rng.Intn(2) == 1
			acc = acc != shares[i]
		}
		shares[p.n-1] = acc != bit
		return shares
	}
	for w, bit := range global {
		for i, s := range shareBit(bit) {
			outs[i].InputShares[w] = s
		}
	}
	for g, gate := range p.circ.Gates {
		if gate.Kind != circuit.KindAnd {
			continue
		}
		a := rng.Intn(2) == 1
		b := rng.Intn(2) == 1
		c := a && b
		as, bs, cs := shareBit(a), shareBit(b), shareBit(c)
		for i := 0; i < p.n; i++ {
			outs[i].Triples[g] = triple{A: as[i], B: bs[i], C: cs[i]}
		}
	}
	values := make([]sim.Value, p.n)
	for i := range outs {
		values[i] = outs[i]
	}
	return values, nil
}

// deMsg carries one party's masked-operand shares for a layer's AND
// gates, in the layer's gate order.
type deMsg struct {
	Layer int
	D, E  []bool
}

// outMsg carries one party's output-wire shares.
type outMsg struct {
	Shares []bool
}

// NewParty implements sim.Protocol.
func (p *Protocol) NewParty(id sim.PartyID, _ sim.Value, out sim.Value, aborted bool, _ *rand.Rand) (sim.Party, error) {
	m := &machine{proto: p, id: id, aborted: aborted}
	if aborted {
		return m, nil
	}
	so, ok := out.(setupOut)
	if !ok {
		return nil, fmt.Errorf("gmwproto: party %d: bad setup output %T", id, out)
	}
	m.wires = make([]bool, p.circ.NumWires())
	m.known = make([]bool, p.circ.NumWires())
	copy(m.wires, so.InputShares)
	for w := range so.InputShares {
		m.known[w] = true
	}
	m.triples = so.Triples
	m.propagateFree()
	return m, nil
}

type machine struct {
	proto   *Protocol
	id      sim.PartyID
	aborted bool

	wires   []bool
	known   []bool
	triples map[int]triple

	result uint64
	done   bool
	failed bool
}

// propagateFree evaluates XOR/NOT gates whose operands are known and
// non-AND-blocked, repeatedly until a fixpoint.
func (m *machine) propagateFree() {
	for {
		progress := false
		for g, gate := range m.proto.circ.Gates {
			w := m.proto.circ.NumInputs + g
			if m.known[w] || gate.Kind == circuit.KindAnd {
				continue
			}
			switch gate.Kind {
			case circuit.KindXor:
				if m.known[gate.A] && m.known[gate.B] {
					m.wires[w] = m.wires[gate.A] != m.wires[gate.B]
					m.known[w] = true
					progress = true
				}
			case circuit.KindNot:
				if m.known[gate.A] {
					// Only party 1 flips its share (XOR-sharing of ¬x).
					m.wires[w] = m.wires[gate.A] != (m.id == 1)
					m.known[w] = true
					progress = true
				}
			}
		}
		if !progress {
			return
		}
	}
}

// layerDE builds this party's d/e shares for the layer's gates.
func (m *machine) layerDE(layer []int) (deMsg, bool) {
	msg := deMsg{D: make([]bool, len(layer)), E: make([]bool, len(layer))}
	for i, g := range layer {
		gate := m.proto.circ.Gates[g]
		if !m.known[gate.A] || !m.known[gate.B] {
			return deMsg{}, false
		}
		tr := m.triples[g]
		msg.D[i] = m.wires[gate.A] != tr.A
		msg.E[i] = m.wires[gate.B] != tr.B
	}
	return msg, true
}

// applyLayer consumes all parties' d/e shares for the given layer.
func (m *machine) applyLayer(layerIdx int, inbox []sim.Message) bool {
	layer := m.proto.layers[layerIdx]
	// Collect one deMsg per party (including our own, recomputed).
	own, ok := m.layerDE(layer)
	if !ok {
		return false
	}
	received := map[sim.PartyID]deMsg{m.id: own}
	for _, msg := range inbox {
		dm, ok := msg.Payload.(deMsg)
		if !ok || dm.Layer != layerIdx || msg.From == m.id {
			continue
		}
		if len(dm.D) != len(layer) || len(dm.E) != len(layer) {
			return false
		}
		received[msg.From] = dm
	}
	if len(received) != m.proto.n {
		return false
	}
	ids := make([]sim.PartyID, 0, len(received))
	for id := range received {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, g := range layer {
		d, e := false, false
		for _, id := range ids {
			d = d != received[id].D[i]
			e = e != received[id].E[i]
		}
		tr := m.triples[g]
		// z_j = c_j ⊕ d·b_j ⊕ e·a_j (⊕ d·e for party 1).
		z := tr.C
		if d {
			z = z != tr.B
		}
		if e {
			z = z != tr.A
		}
		if d && e && m.id == 1 {
			z = !z
		}
		w := m.proto.circ.NumInputs + g
		m.wires[w] = z
		m.known[w] = true
	}
	m.propagateFree()
	return true
}

func (m *machine) Round(round int, inbox []sim.Message) ([]sim.Message, error) {
	if m.aborted || m.failed || m.done {
		return nil, nil
	}
	numLayers := len(m.proto.layers)
	switch {
	case round <= numLayers:
		// Consume the previous layer's openings (round ≥ 2), then send
		// this layer's d/e shares.
		if round >= 2 && !m.applyLayer(round-2, inbox) {
			m.failed = true
			return nil, nil
		}
		msg, ok := m.layerDE(m.proto.layers[round-1])
		if !ok {
			m.failed = true
			return nil, nil
		}
		msg.Layer = round - 1
		return []sim.Message{{From: m.id, To: sim.Broadcast, Payload: msg}}, nil
	case round == numLayers+1:
		// Consume the last layer (if any), then broadcast output shares.
		if numLayers > 0 && !m.applyLayer(numLayers-1, inbox) {
			m.failed = true
			return nil, nil
		}
		shares := make([]bool, len(m.proto.circ.Outputs))
		for i, w := range m.proto.circ.Outputs {
			if !m.known[w] {
				m.failed = true
				return nil, nil
			}
			shares[i] = m.wires[w]
		}
		return []sim.Message{{From: m.id, To: sim.Broadcast, Payload: outMsg{Shares: shares}}}, nil
	default:
		// Finalize: reconstruct the outputs from all shares. Our own
		// shares are known locally; the inbox must supply everyone
		// else's.
		own := make([]bool, len(m.proto.circ.Outputs))
		for i, w := range m.proto.circ.Outputs {
			if !m.known[w] {
				m.failed = true
				return nil, nil
			}
			own[i] = m.wires[w]
		}
		received := map[sim.PartyID][]bool{m.id: own}
		for _, msg := range inbox {
			if msg.From == m.id {
				continue
			}
			if om, ok := msg.Payload.(outMsg); ok && len(om.Shares) == len(m.proto.circ.Outputs) {
				received[msg.From] = om.Shares
			}
		}
		if len(received) != m.proto.n {
			m.failed = true
			return nil, nil
		}
		out := make([]bool, len(m.proto.circ.Outputs))
		for _, shares := range received {
			for i, s := range shares {
				out[i] = out[i] != s
			}
		}
		m.result, m.done = circuit.BitsToUint(out), true
	}
	return nil, nil
}

func (m *machine) Output() (sim.Value, bool) {
	if !m.done {
		return nil, false
	}
	return m.result, true
}

func (m *machine) Clone() sim.Party {
	cp := *m
	cp.wires = append([]bool(nil), m.wires...)
	cp.known = append([]bool(nil), m.known...)
	// triples are read-only after setup; sharing the map is safe for
	// lookahead but we copy for strict isolation.
	cp.triples = make(map[int]triple, len(m.triples))
	for k, v := range m.triples {
		cp.triples[k] = v
	}
	return &cp
}
