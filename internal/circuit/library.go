package circuit

import "fmt"

// Library of circuits that Π_GMW (internal/gmwproto) runs: experiment E15
// evaluates MillionairesCircuit, and gmwproto's tests cover the rest.

// AndCircuit computes x1 ∧ x2 for one bit per party — the function of the
// leaky protocol Π̃ (Appendix C.5).
func AndCircuit() (*Circuit, error) {
	b := NewBuilder()
	x := b.Input(0)
	y := b.Input(1)
	b.Output(b.And(x, y))
	return b.Build()
}

// SwapCircuit computes the paper's swap function f_swp(x1, x2) = (x2, x1)
// as a public-output circuit: the global output is x2 ‖ x1 (bits little-
// endian per operand). Each party's private half is extracted by the
// application layer; the paper's lower bounds (Theorem 4) use this f.
func SwapCircuit(bits int) (*Circuit, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("circuit: swap: bits must be positive, got %d", bits)
	}
	b := NewBuilder()
	xs := b.Inputs(0, bits)
	ys := b.Inputs(1, bits)
	b.Output(ys...)
	b.Output(xs...)
	return b.Build()
}

// MillionairesCircuit computes [x1 > x2] for two `bits`-bit unsigned
// inputs — Yao's millionaires' problem, the circuit E15 runs Π_GMW on.
func MillionairesCircuit(bits int) (*Circuit, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("circuit: millionaires: bits must be positive, got %d", bits)
	}
	b := NewBuilder()
	xs := b.Inputs(0, bits)
	ys := b.Inputs(1, bits)
	b.Output(b.GreaterThan(xs, ys))
	return b.Build()
}

// ConcatCircuit computes the multi-party concatenation function
// f(x1, …, xn) = x1 ‖ x2 ‖ … ‖ xn of Lemmas 12/13/15/16 — every party
// contributes `bits` bits and the public output is the concatenation.
func ConcatCircuit(n, bits int) (*Circuit, error) {
	if n < 2 || bits <= 0 {
		return nil, fmt.Errorf("circuit: concat: need n >= 2 and bits > 0, got n=%d bits=%d", n, bits)
	}
	b := NewBuilder()
	for p := 0; p < n; p++ {
		b.Output(b.Inputs(p, bits)...)
	}
	return b.Build()
}

// MaxCircuit computes the maximum of n unsigned `bits`-bit inputs — the
// sealed-bid auction example's function (winner price; the application
// derives the winner index by comparing to its own bid).
func MaxCircuit(n, bits int) (*Circuit, error) {
	if n < 2 || bits <= 0 {
		return nil, fmt.Errorf("circuit: max: need n >= 2 and bits > 0, got n=%d bits=%d", n, bits)
	}
	b := NewBuilder()
	all := make([][]int, n)
	for p := 0; p < n; p++ {
		all[p] = b.Inputs(p, bits)
	}
	best := all[0]
	for p := 1; p < n; p++ {
		gt := b.GreaterThan(all[p], best)
		best = b.MuxVec(gt, best, all[p])
	}
	b.Output(best...)
	return b.Build()
}

// BitsToUint packs little-endian bits into a uint64.
func BitsToUint(bs []bool) uint64 {
	var v uint64
	for i, b := range bs {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

// UintToBits unpacks a uint64 into `bits` little-endian booleans.
func UintToBits(v uint64, bits int) []bool {
	out := make([]bool, bits)
	for i := range out {
		out[i] = v&(1<<uint(i)) != 0
	}
	return out
}
