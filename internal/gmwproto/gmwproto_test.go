package gmwproto

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/sim"
)

func mustProto(t *testing.T, label string, c *circuit.Circuit, n int) *Protocol {
	t.Helper()
	p, err := New(label, c, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestHonestANDMatchesClear(t *testing.T) {
	c, err := circuit.AndCircuit()
	if err != nil {
		t.Fatal(err)
	}
	p := mustProto(t, "and", c, 2)
	for x := uint64(0); x < 2; x++ {
		for y := uint64(0); y < 2; y++ {
			tr, err := sim.Run(p, []sim.Value{x, y}, sim.Passive{}, int64(x*2+y))
			if err != nil {
				t.Fatal(err)
			}
			if !tr.AllHonestDelivered() {
				t.Fatalf("AND(%d,%d): %+v", x, y, tr.HonestOutputs)
			}
			if !sim.ValuesEqual(tr.ExpectedOutput, x&y) {
				t.Fatalf("expected %v, circuit func gave %v", x&y, tr.ExpectedOutput)
			}
		}
	}
}

func TestHonestMillionairesManySeeds(t *testing.T) {
	const bits = 8
	c, err := circuit.MillionairesCircuit(bits)
	if err != nil {
		t.Fatal(err)
	}
	p := mustProto(t, "millionaires", c, 2)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		x := uint64(rng.Intn(256))
		y := uint64(rng.Intn(256))
		tr, err := sim.Run(p, []sim.Value{x, y}, sim.Passive{}, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		if x > y {
			want = 1
		}
		if !tr.AllHonestDelivered() || !sim.ValuesEqual(tr.ExpectedOutput, want) {
			t.Fatalf("trial %d x=%d y=%d: outputs %+v want %d", trial, x, y, tr.HonestOutputs, want)
		}
	}
}

func TestHonestThreePartyMax(t *testing.T) {
	c, err := circuit.MaxCircuit(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	p := mustProto(t, "max3", c, 3)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		in := []sim.Value{uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64))}
		tr, err := sim.Run(p, in, sim.Passive{}, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if !tr.AllHonestDelivered() {
			t.Fatalf("trial %d: %+v (expected %v)", trial, tr.HonestOutputs, tr.ExpectedOutput)
		}
	}
}

func TestRoundComplexityIsAndDepthPlusOne(t *testing.T) {
	c, err := circuit.MillionairesCircuit(8)
	if err != nil {
		t.Fatal(err)
	}
	p := mustProto(t, "m8", c, 2)
	if p.NumRounds() != c.AndDepth()+1 {
		t.Errorf("rounds = %d, AND depth = %d", p.NumRounds(), c.AndDepth())
	}
}

func TestUnfairnessRushingGrab(t *testing.T) {
	// The headline: the unfair substrate concedes γ10 with probability 1
	// to the rushing lock-and-abort adversary — the gap ΠOpt-2SFE closes.
	c, err := circuit.MillionairesCircuit(4)
	if err != nil {
		t.Fatal(err)
	}
	p := mustProto(t, "m4", c, 2)
	g := core.StandardPayoff()
	sampler := func(r *rand.Rand) []sim.Value {
		return []sim.Value{uint64(r.Intn(16)), uint64(r.Intn(16))}
	}
	rep, err := core.EstimateUtility(p, adversary.NewLockAbort(2), g, sampler, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventFreq[core.E10] < 0.99 {
		t.Errorf("E10 freq %v, want ~1 (events %v)", rep.EventFreq[core.E10], rep.EventFreq)
	}
}

func TestMidProtocolAbortDeniesEveryone(t *testing.T) {
	// Aborting during the DE rounds leaves everyone (including the
	// adversary, pre-output) without a result: E00.
	c, err := circuit.MillionairesCircuit(4)
	if err != nil {
		t.Fatal(err)
	}
	p := mustProto(t, "m4", c, 2)
	tr, err := sim.Run(p, []sim.Value{uint64(9), uint64(3)}, adversary.NewAbortAt(1, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if oc := core.Classify(tr); oc.Event != core.E00 {
		t.Errorf("event %v, want E00", oc.Event)
	}
}

func TestSetupAbortEndsBot(t *testing.T) {
	c, err := circuit.AndCircuit()
	if err != nil {
		t.Fatal(err)
	}
	p := mustProto(t, "and", c, 2)
	tr, err := sim.Run(p, []sim.Value{uint64(1), uint64(1)}, adversary.NewSetupAbort(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.SetupAborted {
		t.Fatal("setup not aborted")
	}
	if rec := tr.HonestOutputs[1]; rec.OK {
		t.Errorf("party 2 output %v after offline abort", rec.Value)
	}
}

func TestConstructorErrors(t *testing.T) {
	c, err := circuit.AndCircuit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("x", c, 1); err != ErrPartyCount {
		t.Errorf("n=1: %v", err)
	}
	wide, err := circuit.ConcatCircuit(2, 30) // keeps n·bits within concat limit
	if err != nil {
		t.Fatal(err)
	}
	if len(wide.Outputs) <= 64 {
		// Build a >64-output circuit directly.
		b := circuit.NewBuilder()
		xs := b.Inputs(0, 1)
		for i := 0; i < 65; i++ {
			b.Output(b.Not(b.Not(xs[0])))
		}
		over, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New("over", over, 2); err != ErrTooManyOutputs {
			t.Errorf("65 outputs: %v", err)
		}
	}
	bad := &circuit.Circuit{NumInputs: 1, InputOwner: []int{7}}
	if _, err := New("bad", bad, 2); err == nil {
		t.Error("bad owner accepted")
	}
	invalid := &circuit.Circuit{NumInputs: 1, InputOwner: []int{0}, Outputs: []int{9}}
	if _, err := New("invalid", invalid, 2); err == nil {
		t.Error("invalid circuit accepted")
	}
}

func TestFuncPacksOutputs(t *testing.T) {
	c, err := circuit.SwapCircuit(4)
	if err != nil {
		t.Fatal(err)
	}
	p := mustProto(t, "swap4", c, 2)
	got := p.Func([]sim.Value{uint64(0b1010), uint64(0b0011)})
	// Swap outputs y ‖ x: low 4 bits y=0011, high 4 bits x=1010.
	want := uint64(0b0011 | 0b1010<<4)
	if !sim.ValuesEqual(got, want) {
		t.Errorf("Func = %b, want %b", got, want)
	}
}

func TestLyingShareFlaggedAsViolation(t *testing.T) {
	// A corrupted party flipping its output share corrupts the honest
	// party's reconstruction — the classifier flags it as a correctness
	// violation (not simulatable), never as a clean delivery.
	c, err := circuit.AndCircuit()
	if err != nil {
		t.Fatal(err)
	}
	p := mustProto(t, "and", c, 2)
	adv := &shareFlipper{}
	// Inputs (0, 1): the true output 0 is forced by x1 = 0, so the
	// flipped reconstruction 1 is not explainable by any corrupted-input
	// substitution — a genuine correctness violation.
	tr, err := sim.Run(p, []sim.Value{uint64(0), uint64(1)}, adv, 6)
	if err != nil {
		t.Fatal(err)
	}
	oc := core.Classify(tr)
	if !oc.CorrectnessViolation {
		t.Errorf("flipped share not flagged: %+v", tr.HonestOutputs)
	}
}

// shareFlipper runs party 2 honestly but flips its output-round share.
type shareFlipper struct {
	adversary.Static
}

func (s *shareFlipper) Reset(ctx *sim.AdvContext) {
	s.Static.Targets = []sim.PartyID{2}
	s.Static.Reset(ctx)
}

func (s *shareFlipper) Act(round int, inboxes [][]sim.Message, rushed []sim.Message) []sim.Message {
	out := s.Static.Act(round, inboxes, rushed)
	for i := range out {
		if om, ok := out[i].Payload.(outMsg); ok {
			flipped := append([]bool(nil), om.Shares...)
			flipped[0] = !flipped[0]
			out[i].Payload = outMsg{Shares: flipped}
		}
	}
	return out
}

func BenchmarkOnlineMillionaires8(b *testing.B) {
	c, err := circuit.MillionairesCircuit(8)
	if err != nil {
		b.Fatal(err)
	}
	p, err := New("m8", c, 2)
	if err != nil {
		b.Fatal(err)
	}
	in := []sim.Value{uint64(200), uint64(100)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, in, sim.Passive{}, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
