package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindXor, "XOR"},
		{KindAnd, "AND"},
		{KindNot, "NOT"},
		{Kind(99), "Kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestBasicGates(t *testing.T) {
	b := NewBuilder()
	x := b.Input(0)
	y := b.Input(1)
	b.Output(b.Xor(x, y), b.And(x, y), b.Not(x), b.Or(x, y))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		x, y bool
		want [4]bool // xor, and, not-x, or
	}{
		{false, false, [4]bool{false, false, true, false}},
		{false, true, [4]bool{true, false, true, true}},
		{true, false, [4]bool{true, false, false, true}},
		{true, true, [4]bool{false, true, false, true}},
	}
	for _, tt := range tests {
		got, err := c.Eval([]bool{tt.x, tt.y})
		if err != nil {
			t.Fatal(err)
		}
		for i := range tt.want {
			if got[i] != tt.want[i] {
				t.Errorf("x=%v y=%v output %d = %v, want %v", tt.x, tt.y, i, got[i], tt.want[i])
			}
		}
	}
}

func TestMux(t *testing.T) {
	b := NewBuilder()
	sel := b.Input(0)
	lo := b.Input(0)
	hi := b.Input(1)
	b.Output(b.Mux(sel, lo, hi))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []bool{false, true} {
		for _, l := range []bool{false, true} {
			for _, h := range []bool{false, true} {
				got, err := c.Eval([]bool{s, l, h})
				if err != nil {
					t.Fatal(err)
				}
				want := l
				if s {
					want = h
				}
				if got[0] != want {
					t.Errorf("mux(%v,%v,%v) = %v, want %v", s, l, h, got[0], want)
				}
			}
		}
	}
}

func TestEvalWrongInputLength(t *testing.T) {
	c, err := AndCircuit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Eval([]bool{true}); err == nil {
		t.Error("Eval with wrong input length succeeded")
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name string
		c    Circuit
	}{
		{"owner mismatch", Circuit{NumInputs: 2, InputOwner: []int{0}}},
		{"gate forward ref", Circuit{NumInputs: 1, InputOwner: []int{0}, Gates: []Gate{{Kind: KindXor, A: 0, B: 5}}}},
		{"gate negative ref", Circuit{NumInputs: 1, InputOwner: []int{0}, Gates: []Gate{{Kind: KindXor, A: -1, B: 0}}}},
		{"unknown kind", Circuit{NumInputs: 1, InputOwner: []int{0}, Gates: []Gate{{Kind: Kind(9), A: 0, B: 0}}}},
		{"output out of range", Circuit{NumInputs: 1, InputOwner: []int{0}, Outputs: []int{5}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.c.Validate(); err == nil {
				t.Error("Validate succeeded, want error")
			}
		})
	}
}

func TestNotGateIgnoresB(t *testing.T) {
	// NOT gate with arbitrary B must validate (B unused).
	c := Circuit{NumInputs: 1, InputOwner: []int{0}, Gates: []Gate{{Kind: KindNot, A: 0, B: -99}}, Outputs: []int{1}}
	if err := c.Validate(); err != nil {
		t.Errorf("NOT with junk B failed validation: %v", err)
	}
	out, err := c.Eval([]bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != false {
		t.Error("NOT(true) != false")
	}
}

func TestAndCircuit(t *testing.T) {
	c, err := AndCircuit()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []bool{false, true} {
		for _, y := range []bool{false, true} {
			got, err := c.Eval([]bool{x, y})
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != (x && y) {
				t.Errorf("AND(%v,%v) = %v", x, y, got[0])
			}
		}
	}
}

func TestSwapCircuit(t *testing.T) {
	const bits = 8
	c, err := SwapCircuit(bits)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y uint8) bool {
		in := append(UintToBits(uint64(x), bits), UintToBits(uint64(y), bits)...)
		out, err := c.Eval(in)
		if err != nil {
			return false
		}
		// Output is y ‖ x.
		return BitsToUint(out[:bits]) == uint64(y) && BitsToUint(out[bits:]) == uint64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSwapCircuitBadBits(t *testing.T) {
	if _, err := SwapCircuit(0); err == nil {
		t.Error("SwapCircuit(0) succeeded")
	}
}

func TestMillionairesCircuit(t *testing.T) {
	const bits = 8
	c, err := MillionairesCircuit(bits)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y uint8) bool {
		in := append(UintToBits(uint64(x), bits), UintToBits(uint64(y), bits)...)
		out, err := c.Eval(in)
		if err != nil {
			return false
		}
		return out[0] == (x > y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcatCircuit(t *testing.T) {
	c, err := ConcatCircuit(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		vals := []uint64{uint64(rng.Intn(16)), uint64(rng.Intn(16)), uint64(rng.Intn(16))}
		var in []bool
		for _, v := range vals {
			in = append(in, UintToBits(v, 4)...)
		}
		out, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 3; p++ {
			if got := BitsToUint(out[p*4 : (p+1)*4]); got != vals[p] {
				t.Fatalf("concat segment %d = %d, want %d", p, got, vals[p])
			}
		}
	}
}

func TestMaxCircuit(t *testing.T) {
	c, err := MaxCircuit(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		var in []bool
		want := uint64(0)
		for p := 0; p < 4; p++ {
			v := uint64(rng.Intn(64))
			if v > want {
				want = v
			}
			in = append(in, UintToBits(v, 6)...)
		}
		out, err := c.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := BitsToUint(out); got != want {
			t.Fatalf("max = %d, want %d", got, want)
		}
	}
}

func TestLibraryConstructorsRejectBadArgs(t *testing.T) {
	if _, err := MillionairesCircuit(0); err == nil {
		t.Error("MillionairesCircuit(0)")
	}
	if _, err := ConcatCircuit(1, 4); err == nil {
		t.Error("ConcatCircuit(n=1)")
	}
	if _, err := ConcatCircuit(3, 0); err == nil {
		t.Error("ConcatCircuit(bits=0)")
	}
	if _, err := MaxCircuit(1, 4); err == nil {
		t.Error("MaxCircuit(n=1)")
	}
}

func TestNumAndGates(t *testing.T) {
	b := NewBuilder()
	x := b.Input(0)
	y := b.Input(1)
	b.Output(b.And(b.Xor(x, y), b.And(x, y)))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NumAndGates(); got != 2 {
		t.Errorf("NumAndGates = %d, want 2", got)
	}
	if got := c.NumWires(); got != 5 {
		t.Errorf("NumWires = %d, want 5", got)
	}
}

func TestBitsRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		return BitsToUint(UintToBits(uint64(v), 32)) == uint64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEvalMax8Party(b *testing.B) {
	c, err := MaxCircuit(8, 16)
	if err != nil {
		b.Fatal(err)
	}
	in := make([]bool, c.NumInputs)
	for i := range in {
		in[i] = i%3 == 0
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Eval(in); err != nil {
			b.Fatal(err)
		}
	}
}
