package adversary

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// relayProtocol is a 3-party test protocol: party 1 holds the input;
// round 1 it sends the value to party 2; round 2 party 2 forwards it to
// party 3; round 3 party 3 broadcasts it; everyone outputs the broadcast
// value. The chain structure makes coalition effects observable.
type relayProtocol struct{}

func (relayProtocol) Name() string                                       { return "test-relay" }
func (relayProtocol) NumParties() int                                    { return 3 }
func (relayProtocol) NumRounds() int                                     { return 3 }
func (relayProtocol) DefaultInput(sim.PartyID) sim.Value                 { return uint64(0) }
func (relayProtocol) Func(in []sim.Value) sim.Value                      { return in[0] }
func (relayProtocol) Setup([]sim.Value, *rand.Rand) ([]sim.Value, error) { return nil, nil }

func (relayProtocol) NewParty(id sim.PartyID, input sim.Value, _ sim.Value, _ bool, _ *rand.Rand) (sim.Party, error) {
	v, _ := input.(uint64)
	return &relayParty{id: id, input: v}, nil
}

type relayParty struct {
	id     sim.PartyID
	input  uint64
	value  uint64
	have   bool
	result uint64
	done   bool
}

func (p *relayParty) Round(round int, inbox []sim.Message) ([]sim.Message, error) {
	recv := func() (uint64, bool) {
		for _, m := range inbox {
			if v, ok := m.Payload.(uint64); ok {
				return v, true
			}
		}
		return 0, false
	}
	switch {
	case round == 1 && p.id == 1:
		return []sim.Message{{From: 1, To: 2, Payload: p.input}}, nil
	case round == 2 && p.id == 2:
		if v, ok := recv(); ok {
			p.value, p.have = v, true
			return []sim.Message{{From: 2, To: 3, Payload: v}}, nil
		}
	case round == 3 && p.id == 3:
		if v, ok := recv(); ok {
			p.value, p.have = v, true
			return []sim.Message{{From: 3, To: sim.Broadcast, Payload: v}}, nil
		}
	case round == 4:
		if v, ok := recv(); ok {
			p.result, p.done = v, true
		}
	}
	return nil, nil
}

func (p *relayParty) Output() (sim.Value, bool) {
	if !p.done {
		return nil, false
	}
	return p.result, true
}

func (p *relayParty) Clone() sim.Party { cp := *p; return &cp }

func inputs() []sim.Value { return []sim.Value{uint64(42), uint64(0), uint64(0)} }

func TestStaticRunsHonestly(t *testing.T) {
	adv := NewStatic(2)
	tr, err := sim.Run(relayProtocol{}, inputs(), adv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.AllHonestDelivered() {
		t.Errorf("static adversary broke the honest run: %+v", tr.HonestOutputs)
	}
	// The corrupted machine eventually outputs, so the strategy learns.
	if !tr.AdvLearned {
		t.Error("honest-corrupt strategy should learn the output")
	}
}

func TestLockAbortOnChainMiddle(t *testing.T) {
	// Party 2 corrupted: after receiving the value in round 2, the
	// coalition "holds" it only if party 2's machine would output in
	// isolation — it would not (output comes from party 3's broadcast),
	// UNLESS the lookahead correctly simulates the coalition: with only
	// p2 corrupted, p2 alone never reaches an output, so no early lock;
	// the rushing lock fires once p3's broadcast is observed.
	adv := NewLockAbort(2)
	tr, err := sim.Run(relayProtocol{}, inputs(), adv, 2)
	if err != nil {
		t.Fatal(err)
	}
	// p2 relayed honestly (no lock before its send), so everyone got it.
	if !tr.AllHonestDelivered() {
		t.Errorf("outputs: %+v", tr.HonestOutputs)
	}
	if !tr.AdvLearned {
		t.Error("lock-abort should have learned via the broadcast")
	}
}

func TestLockAbortCoalitionChain(t *testing.T) {
	// Parties 2 AND 3 corrupted: after p1's round-1 send arrives at p2
	// (round 2), the coalition can finish alone (p2→p3→broadcast among
	// clones) — delivered lock fires and p1 never receives the output.
	adv := NewLockAbort(2, 3)
	tr, err := sim.Run(relayProtocol{}, inputs(), adv, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.AdvLearned {
		t.Fatal("coalition should lock the output")
	}
	if rec := tr.HonestOutputs[0]; rec.OK {
		t.Errorf("party 1 should have been denied the output, got %+v", rec)
	}
}

func TestNewAllBut(t *testing.T) {
	adv := NewAllBut(5, 3)
	got := adv.InitialCorruptions()
	want := []sim.PartyID{1, 2, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("corruptions = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("corruptions = %v, want %v", got, want)
		}
	}
}

func TestMixerPicksUniformly(t *testing.T) {
	m := NewMixer(NewLockAbort(1), NewLockAbort(2), NewLockAbort(3))
	counts := map[sim.PartyID]int{}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m.Reset(&sim.AdvContext{RNG: rng, Protocol: relayProtocol{}})
		ids := m.InitialCorruptions()
		if len(ids) != 1 {
			t.Fatalf("unexpected corruption set %v", ids)
		}
		counts[ids[0]]++
	}
	for id := sim.PartyID(1); id <= 3; id++ {
		if counts[id] < 60 {
			t.Errorf("strategy %d picked only %d/300 times", id, counts[id])
		}
	}
}

func TestAbortAtNeverAborts(t *testing.T) {
	// StopRound 0 = plain honest execution.
	adv := NewAbortAt(0, 2)
	tr, err := sim.Run(relayProtocol{}, inputs(), adv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.AllHonestDelivered() {
		t.Error("non-aborting AbortAt should deliver")
	}
}

func TestAbortAtSilencesFromRound(t *testing.T) {
	// Party 2 silent from round 2: the relay chain is cut.
	adv := NewAbortAt(2, 2)
	tr, err := sim.Run(relayProtocol{}, inputs(), adv, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rec := tr.HonestOutputs[0]; rec.OK {
		t.Errorf("party 1 got %v despite the cut chain", rec.Value)
	}
	if rec := tr.HonestOutputs[2]; rec.OK {
		t.Errorf("party 3 got %v despite the cut chain", rec.Value)
	}
}

func TestSetupAbortStrategy(t *testing.T) {
	adv := NewSetupAbort(1)
	// relayProtocol has no hybrid, so the abort request is recorded but
	// the machines are unaffected except through the flag; the engine
	// still marks the setup aborted.
	tr, err := sim.Run(relayProtocol{}, inputs(), adv, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.SetupAborted {
		t.Error("setup abort not recorded")
	}
}

func TestInputSubstWrapper(t *testing.T) {
	adv := &InputSubst{Adversary: NewStatic(1), Value: uint64(7)}
	tr, err := sim.Run(relayProtocol{}, inputs(), adv, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.ValuesEqual(tr.EffectiveInputs[0], uint64(7)) {
		t.Errorf("effective input = %v, want 7", tr.EffectiveInputs[0])
	}
	if !sim.ValuesEqual(tr.ExpectedOutput, uint64(7)) {
		t.Errorf("expected output = %v, want 7", tr.ExpectedOutput)
	}
}

func TestTSubsets(t *testing.T) {
	sets := TSubsets(5, 2)
	if len(sets) != 3 {
		t.Fatalf("TSubsets(5,2) = %v", sets)
	}
	check := func(set []sim.PartyID, want ...sim.PartyID) {
		t.Helper()
		if len(set) != len(want) {
			t.Fatalf("set %v, want %v", set, want)
		}
		for i := range want {
			if set[i] != want[i] {
				t.Fatalf("set %v, want %v", set, want)
			}
		}
	}
	check(sets[0], 1, 2) // prefix
	check(sets[1], 4, 5) // suffix
	check(sets[2], 1, 5) // straddle
	// Full corruption minus nothing: only the prefix variant.
	if got := TSubsets(3, 3); len(got) != 1 {
		t.Errorf("TSubsets(3,3) = %v, want 1 set", got)
	}
	// Singletons: prefix {1} and suffix {n}.
	if got := TSubsets(4, 1); len(got) != 2 {
		t.Errorf("TSubsets(4,1) = %v, want 2 sets", got)
	}
}

func TestSpacesContainProofAdversaries(t *testing.T) {
	two := TwoPartySpace(2)
	names := map[string]bool{}
	for _, na := range two {
		if na.Adv == nil {
			t.Fatalf("nil adversary for %s", na.Name)
		}
		if names[na.Name] {
			t.Fatalf("duplicate strategy name %s", na.Name)
		}
		names[na.Name] = true
	}
	for _, want := range []string{"passive", "lock-abort-p1", "lock-abort-p2", "agen"} {
		if !names[want] {
			t.Errorf("two-party space missing %s", want)
		}
	}

	multi := MultiPartySpace(4, 1)
	mnames := map[string]bool{}
	for _, na := range multi {
		if mnames[na.Name] {
			t.Fatalf("duplicate strategy name %s", na.Name)
		}
		mnames[na.Name] = true
	}
	if !mnames["allbut-mixer"] {
		t.Error("multi-party space missing allbut-mixer")
	}
	// Per-t spaces present for every t.
	if !mnames["lock-abort-t1-s0"] || !mnames["lock-abort-t3-s0"] {
		t.Errorf("multi-party space missing per-t lock-aborts: %v", mnames)
	}
}

func TestRushedLearnWhileSilent(t *testing.T) {
	// An AbortAt adversary silent from round 1 still learns from the
	// rushed broadcast of round 3 (party 3 is honest and broadcasts).
	// Chain: abort at round 1 for corrupted p1 kills delivery of the
	// input... so use corrupted party 3 instead: silence from round 3
	// cuts the broadcast, but p3's machine HAS the value (received in
	// round 3 inbox) — lookahead learns it.
	adv := NewAbortAt(3, 3)
	tr, err := sim.Run(relayProtocol{}, inputs(), adv, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.AdvLearned {
		t.Error("silent party 3 should still learn from its inbox")
	}
	if rec := tr.HonestOutputs[0]; rec.OK {
		t.Error("party 1 should not receive the withheld broadcast")
	}
}

func TestLockAbortResetsBetweenRuns(t *testing.T) {
	adv := NewLockAbort(2, 3)
	for seed := int64(0); seed < 3; seed++ {
		tr, err := sim.Run(relayProtocol{}, inputs(), adv, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.AdvLearned {
			t.Fatalf("seed %d: stale state broke the strategy", seed)
		}
	}
}
