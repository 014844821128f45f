// Package circuit provides boolean circuits over XOR/AND/NOT gates — the
// representation the Beaver-triple Π_GMW (internal/gmwproto) evaluates
// under XOR-sharing. XOR and NOT gates are free (local); each AND gate
// consumes one Beaver triple, and each AND layer costs one broadcast
// round.
//
// Circuits are directed acyclic graphs of gates over numbered wires.
// Wires [0, NumInputs) are input wires, each owned by a party; gate g
// drives wire NumInputs+g.
package circuit

import (
	"errors"
	"fmt"
)

// Kind enumerates gate types.
type Kind int

// Gate kinds. XOR and NOT are "free" under XOR sharing; AND requires
// interaction.
const (
	KindXor Kind = iota + 1
	KindAnd
	KindNot
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindXor:
		return "XOR"
	case KindAnd:
		return "AND"
	case KindNot:
		return "NOT"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Gate is a single gate. A and B are input wire indices; B is ignored for
// NOT gates.
type Gate struct {
	Kind Kind
	A, B int
}

// Circuit is an immutable boolean circuit.
type Circuit struct {
	// NumInputs is the number of input wires.
	NumInputs int
	// InputOwner[i] is the (0-based) party index owning input wire i.
	InputOwner []int
	// Gates in topological order; gate g drives wire NumInputs+g.
	Gates []Gate
	// Outputs lists the wire indices of the circuit outputs.
	Outputs []int
}

// NumWires returns the total wire count.
func (c *Circuit) NumWires() int { return c.NumInputs + len(c.Gates) }

// NumAndGates counts the interactive gates.
func (c *Circuit) NumAndGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind == KindAnd {
			n++
		}
	}
	return n
}

// Validate checks structural well-formedness: owners defined for each
// input, gate inputs reference earlier wires, outputs in range.
func (c *Circuit) Validate() error {
	if len(c.InputOwner) != c.NumInputs {
		return fmt.Errorf("circuit: %d inputs but %d owners", c.NumInputs, len(c.InputOwner))
	}
	for i, g := range c.Gates {
		wire := c.NumInputs + i
		if g.A < 0 || g.A >= wire {
			return fmt.Errorf("circuit: gate %d input A=%d out of range [0,%d)", i, g.A, wire)
		}
		if g.Kind != KindNot && (g.B < 0 || g.B >= wire) {
			return fmt.Errorf("circuit: gate %d input B=%d out of range [0,%d)", i, g.B, wire)
		}
		switch g.Kind {
		case KindXor, KindAnd, KindNot:
		default:
			return fmt.Errorf("circuit: gate %d has unknown kind %d", i, int(g.Kind))
		}
	}
	for i, o := range c.Outputs {
		if o < 0 || o >= c.NumWires() {
			return fmt.Errorf("circuit: output %d references wire %d out of range", i, o)
		}
	}
	return nil
}

// ErrInputLength is returned by Eval when the input vector has the wrong
// length.
var ErrInputLength = errors.New("circuit: wrong number of input bits")

// Eval evaluates the circuit in the clear. It is the reference semantics
// the GMW substrate must match.
func (c *Circuit) Eval(inputs []bool) ([]bool, error) {
	if len(inputs) != c.NumInputs {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrInputLength, len(inputs), c.NumInputs)
	}
	wires := make([]bool, c.NumWires())
	copy(wires, inputs)
	for i, g := range c.Gates {
		var v bool
		switch g.Kind {
		case KindXor:
			v = wires[g.A] != wires[g.B]
		case KindAnd:
			v = wires[g.A] && wires[g.B]
		case KindNot:
			v = !wires[g.A]
		default:
			return nil, fmt.Errorf("circuit: gate %d has unknown kind %d", i, int(g.Kind))
		}
		wires[c.NumInputs+i] = v
	}
	out := make([]bool, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = wires[o]
	}
	return out, nil
}

// Builder incrementally constructs a circuit. Methods return wire indices.
type Builder struct {
	numInputs  int
	inputOwner []int
	gates      []Gate
	outputs    []int
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Input allocates one input wire owned by party.
func (b *Builder) Input(party int) int {
	if len(b.gates) > 0 {
		// Keep input wires contiguous at the front: inputs after gates
		// would break the wire-numbering convention.
		panic("circuit: all inputs must be declared before gates")
	}
	w := b.numInputs
	b.numInputs++
	b.inputOwner = append(b.inputOwner, party)
	return w
}

// Inputs allocates count input wires owned by party.
func (b *Builder) Inputs(party, count int) []int {
	ws := make([]int, count)
	for i := range ws {
		ws[i] = b.Input(party)
	}
	return ws
}

// Xor adds an XOR gate and returns its output wire.
func (b *Builder) Xor(a, x int) int { return b.gate(Gate{Kind: KindXor, A: a, B: x}) }

// And adds an AND gate and returns its output wire.
func (b *Builder) And(a, x int) int { return b.gate(Gate{Kind: KindAnd, A: a, B: x}) }

// Not adds a NOT gate and returns its output wire.
func (b *Builder) Not(a int) int { return b.gate(Gate{Kind: KindNot, A: a}) }

// Or adds a ∨ via De Morgan: a ∨ b = ¬(¬a ∧ ¬b).
func (b *Builder) Or(a, x int) int { return b.Not(b.And(b.Not(a), b.Not(x))) }

// Mux returns sel ? hi : lo, computed as lo ⊕ (sel ∧ (lo ⊕ hi)).
func (b *Builder) Mux(sel, lo, hi int) int {
	return b.Xor(lo, b.And(sel, b.Xor(lo, hi)))
}

// MuxVec multiplexes two equal-length wire vectors.
func (b *Builder) MuxVec(sel int, lo, hi []int) []int {
	if len(lo) != len(hi) {
		panic("circuit: MuxVec length mismatch")
	}
	out := make([]int, len(lo))
	for i := range lo {
		out[i] = b.Mux(sel, lo[i], hi[i])
	}
	return out
}

// GreaterThan returns a wire that is 1 iff x > y, both little-endian
// unsigned vectors of equal length. Classic ripple comparator:
// gt_i = x_i·¬y_i ⊕ (x_i≡y_i)·gt_{i-1}, scanning from LSB to MSB.
func (b *Builder) GreaterThan(xs, ys []int) int {
	if len(xs) != len(ys) {
		panic("circuit: GreaterThan length mismatch")
	}
	if len(xs) == 0 {
		panic("circuit: GreaterThan on empty vectors")
	}
	gt := b.And(xs[0], b.Not(ys[0]))
	for i := 1; i < len(xs); i++ {
		bitGT := b.And(xs[i], b.Not(ys[i]))
		eq := b.Not(b.Xor(xs[i], ys[i]))
		gt = b.Xor(bitGT, b.And(eq, gt))
	}
	return gt
}

// Output marks wires as circuit outputs (appended in order).
func (b *Builder) Output(ws ...int) { b.outputs = append(b.outputs, ws...) }

// Build finalizes and validates the circuit.
func (b *Builder) Build() (*Circuit, error) {
	c := &Circuit{
		NumInputs:  b.numInputs,
		InputOwner: append([]int(nil), b.inputOwner...),
		Gates:      append([]Gate(nil), b.gates...),
		Outputs:    append([]int(nil), b.outputs...),
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func (b *Builder) gate(g Gate) int {
	w := b.numInputs + len(b.gates)
	b.gates = append(b.gates, g)
	return w
}
