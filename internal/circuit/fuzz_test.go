package circuit

import "testing"

// FuzzBuilderEval cross-checks random builder programs against a direct
// reference evaluation.
func FuzzBuilderEval(f *testing.F) {
	f.Add(uint16(0x1234), uint8(3))
	f.Add(uint16(0xffff), uint8(7))
	f.Fuzz(func(t *testing.T, program uint16, inBits uint8) {
		n := int(inBits%6) + 2
		b := NewBuilder()
		wires := b.Inputs(0, n)
		// Interpret `program` as a sequence of gate ops over the wire pool.
		p := program
		for step := 0; step < 8; step++ {
			op := p & 3
			a := wires[int(p>>2)%len(wires)]
			c := wires[int(p>>5)%len(wires)]
			p = p>>3 | p<<13
			switch op {
			case 0:
				wires = append(wires, b.Xor(a, c))
			case 1:
				wires = append(wires, b.And(a, c))
			case 2:
				wires = append(wires, b.Not(a))
			default:
				wires = append(wires, b.Or(a, c))
			}
		}
		b.Output(wires[len(wires)-1])
		circ, err := b.Build()
		if err != nil {
			t.Fatalf("builder produced invalid circuit: %v", err)
		}
		in := make([]bool, n)
		for i := range in {
			in[i] = program&(1<<uint(i)) != 0
		}
		if _, err := circ.Eval(in); err != nil {
			t.Fatalf("eval: %v", err)
		}
		// Layers must cover exactly the AND gates.
		total := 0
		for _, layer := range circ.Layers() {
			total += len(layer)
		}
		if total != circ.NumAndGates() {
			t.Fatalf("layers cover %d of %d AND gates", total, circ.NumAndGates())
		}
	})
}
