package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// flipProtocol is a two-party test protocol whose only adversarial lever
// is withholding the round-1 message: party machines exchange inputs and
// output the XOR. A corrupted party that stays silent denies the honest
// party its output while (having seen the honest message first — rushing)
// learning the result itself.
type flipProtocol struct{}

func (flipProtocol) Name() string                                       { return "test-flip" }
func (flipProtocol) NumParties() int                                    { return 2 }
func (flipProtocol) NumRounds() int                                     { return 1 }
func (flipProtocol) DefaultInput(sim.PartyID) sim.Value                 { return uint64(0) }
func (flipProtocol) Setup([]sim.Value, *rand.Rand) ([]sim.Value, error) { return nil, nil }
func (flipProtocol) Func(in []sim.Value) sim.Value {
	return in[0].(uint64) ^ in[1].(uint64)
}

func (flipProtocol) NewParty(id sim.PartyID, input sim.Value, _ sim.Value, _ bool, _ *rand.Rand) (sim.Party, error) {
	return &flipParty{id: id, input: input.(uint64)}, nil
}

type flipParty struct {
	id     sim.PartyID
	input  uint64
	result uint64
	done   bool
}

func (p *flipParty) Round(round int, inbox []sim.Message) ([]sim.Message, error) {
	switch round {
	case 1:
		return []sim.Message{{From: p.id, To: sim.PartyID(3 - int(p.id)), Payload: p.input}}, nil
	case 2:
		for _, m := range inbox {
			if v, ok := m.Payload.(uint64); ok {
				p.result, p.done = p.input^v, true
			}
		}
	}
	return nil, nil
}

func (p *flipParty) Output() (sim.Value, bool) {
	if !p.done {
		return nil, false
	}
	return p.result, true
}
func (p *flipParty) Clone() sim.Party { cp := *p; return &cp }

// grabber corrupts party 1, reads the honest round-1 message (rushing),
// learns the output, and never responds — the maximal unfair strategy
// for flipProtocol.
type grabber struct {
	ctx     *sim.AdvContext
	learned sim.Value
	ok      bool
}

func (g *grabber) Reset(ctx *sim.AdvContext)                            { g.ctx, g.learned, g.ok = ctx, nil, false }
func (g *grabber) InitialCorruptions() []sim.PartyID                    { return []sim.PartyID{1} }
func (g *grabber) SubstituteInput(_ sim.PartyID, v sim.Value) sim.Value { return v }
func (g *grabber) ObserveSetup([]sim.Value) bool                        { return false }
func (g *grabber) CorruptBefore(int) []sim.PartyID                      { return nil }
func (g *grabber) OnCorrupt(sim.PartyID, sim.Party, sim.Value)          {}
func (g *grabber) Act(round int, _ [][]sim.Message, rushed []sim.Message) []sim.Message {
	if round == 1 {
		for _, m := range rushed {
			if v, ok := m.Payload.(uint64); ok {
				g.learned = g.ctx.Inputs[0].(uint64) ^ v
				g.ok = true
			}
		}
	}
	return nil
}
func (g *grabber) Learned() (sim.Value, bool) { return g.learned, g.ok }

// CloneAdversary lets the parallel-estimation tests hand each worker its
// own grabber (the strategy is stateful across a run).
func (g *grabber) CloneAdversary() sim.Adversary { return &grabber{} }

func uniformInputs(r *rand.Rand) []sim.Value {
	return []sim.Value{uint64(r.Intn(16)), uint64(r.Intn(16))}
}

func TestEstimateUtilityPassive(t *testing.T) {
	rep, err := EstimateUtility(flipProtocol{}, sim.Passive{}, StandardPayoff(), uniformInputs, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Passive ⇒ always E01 ⇒ utility γ01 = 0.
	if rep.Utility.Mean != 0 {
		t.Errorf("passive utility = %v, want 0", rep.Utility.Mean)
	}
	if rep.EventFreq[E01] != 1 {
		t.Errorf("E01 freq = %v, want 1", rep.EventFreq[E01])
	}
	if rep.MeanCorrupted != 0 {
		t.Errorf("mean corrupted = %v, want 0", rep.MeanCorrupted)
	}
	if rep.Runs != 200 {
		t.Errorf("runs = %d", rep.Runs)
	}
}

func TestEstimateUtilityGrabber(t *testing.T) {
	g := StandardPayoff()
	rep, err := EstimateUtility(flipProtocol{}, &grabber{}, g, uniformInputs, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The grabber always provokes E10 against this (maximally unfair)
	// protocol, earning γ10 every run.
	if rep.EventFreq[E10] != 1 {
		t.Errorf("E10 freq = %v, want 1 (events: %v)", rep.EventFreq[E10], rep.EventFreq)
	}
	if math.Abs(rep.Utility.Mean-g.G10) > 1e-9 {
		t.Errorf("utility = %v, want γ10 = %v", rep.Utility.Mean, g.G10)
	}
}

func TestEstimateUtilityErrors(t *testing.T) {
	if _, err := EstimateUtility(flipProtocol{}, sim.Passive{}, StandardPayoff(), uniformInputs, 0, 1); !errors.Is(err, ErrNoRuns) {
		t.Errorf("runs=0: %v, want ErrNoRuns", err)
	}
}

func TestEstimateUtilityDeterministic(t *testing.T) {
	r1, err := EstimateUtility(flipProtocol{}, &grabber{}, StandardPayoff(), uniformInputs, 50, 77)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := EstimateUtility(flipProtocol{}, &grabber{}, StandardPayoff(), uniformInputs, 50, 77)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Utility.Mean != r2.Utility.Mean {
		t.Error("same seed produced different estimates")
	}
}

func TestFixedInputs(t *testing.T) {
	s := FixedInputs(uint64(1), uint64(2))
	got := s(rand.New(rand.NewSource(1)))
	if len(got) != 2 || got[0] != uint64(1) || got[1] != uint64(2) {
		t.Errorf("FixedInputs sampler = %v", got)
	}
	// Mutating the returned slice must not affect later draws.
	got[0] = uint64(9)
	again := s(rand.New(rand.NewSource(1)))
	if again[0] != uint64(1) {
		t.Error("FixedInputs aliases its backing slice")
	}
}

func TestSupUtility(t *testing.T) {
	advs := []NamedAdversary{
		{Name: "passive", Adv: sim.Passive{}},
		{Name: "grabber", Adv: &grabber{}},
	}
	rep, err := SupUtility(flipProtocol{}, advs, StandardPayoff(), uniformInputs, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best != "grabber" {
		t.Errorf("best = %q, want grabber", rep.Best)
	}
	if len(rep.All) != 2 {
		t.Errorf("All has %d entries", len(rep.All))
	}
	if rep.All["passive"].Utility.Mean >= rep.All["grabber"].Utility.Mean {
		t.Error("grabber should dominate passive")
	}
}

func TestSupUtilityEmpty(t *testing.T) {
	if _, err := SupUtility(flipProtocol{}, nil, StandardPayoff(), uniformInputs, 10, 1); err == nil {
		t.Error("empty strategy space accepted")
	}
}

func TestCompareRelation(t *testing.T) {
	a := stats.Estimate{Mean: 0.5}
	b := stats.Estimate{Mean: 0.9}
	if got := Compare(a, b, 0.01); got != StrictlyFairer {
		t.Errorf("Compare = %v, want StrictlyFairer", got)
	}
	if got := Compare(b, a, 0.01); got != StrictlyLessFair {
		t.Errorf("Compare = %v, want StrictlyLessFair", got)
	}
	if got := Compare(a, stats.Estimate{Mean: 0.505}, 0.01); got != EquallyFair {
		t.Errorf("Compare = %v, want EquallyFair", got)
	}
	if !AtLeastAsFair(a, b, 0.01) {
		t.Error("0.5 should be at least as fair as 0.9")
	}
	if AtLeastAsFair(b, a, 0.01) {
		t.Error("0.9 is not at least as fair as 0.5")
	}
	if !AtLeastAsFair(a, a, 0.01) {
		t.Error("reflexivity")
	}
}

func TestRelationString(t *testing.T) {
	if StrictlyFairer.String() != "strictly fairer" ||
		EquallyFair.String() != "equally fair" ||
		StrictlyLessFair.String() != "strictly less fair" {
		t.Error("relation names")
	}
	if Relation(9).String() != "Relation(9)" {
		t.Error("unknown relation name")
	}
}

func TestUtilityReportString(t *testing.T) {
	rep := UtilityReport{
		Utility:   stats.Estimate{Mean: 0.75, HalfWidth: 0.01, N: 100},
		EventFreq: map[Event]float64{E10: 0.5, E11: 0.5},
	}
	s := rep.String()
	if s == "" {
		t.Error("empty report string")
	}
}
