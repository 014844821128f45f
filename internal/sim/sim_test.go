package sim

import (
	"errors"
	"math/rand"
	"testing"
)

// exchangeProtocol is a minimal two-party test protocol: each party holds
// a uint64; in round 1 both send their input to the other; in round 2
// (finalize) each outputs the sum. No hybrid setup.
type exchangeProtocol struct{}

func (exchangeProtocol) Name() string               { return "test-exchange" }
func (exchangeProtocol) NumParties() int            { return 2 }
func (exchangeProtocol) NumRounds() int             { return 1 }
func (exchangeProtocol) DefaultInput(PartyID) Value { return uint64(0) }

func (exchangeProtocol) Func(inputs []Value) Value {
	return inputs[0].(uint64) + inputs[1].(uint64)
}

func (exchangeProtocol) Setup([]Value, *rand.Rand) ([]Value, error) { return nil, nil }

func (exchangeProtocol) NewParty(id PartyID, input Value, _ Value, _ bool, _ *rand.Rand) (Party, error) {
	return &exchangeParty{id: id, input: input.(uint64)}, nil
}

type exchangeParty struct {
	id     PartyID
	input  uint64
	result uint64
	done   bool
}

func (p *exchangeParty) Round(round int, inbox []Message) ([]Message, error) {
	switch round {
	case 1:
		other := PartyID(3 - int(p.id))
		return []Message{{From: p.id, To: other, Payload: p.input}}, nil
	case 2:
		for _, m := range inbox {
			if v, ok := m.Payload.(uint64); ok {
				p.result = p.input + v
				p.done = true
			}
		}
		return nil, nil
	default:
		return nil, nil
	}
}

func (p *exchangeParty) Output() (Value, bool) {
	if !p.done {
		return nil, false
	}
	return p.result, true
}

func (p *exchangeParty) Clone() Party {
	cp := *p
	return &cp
}

// silencer corrupts one party statically and sends nothing.
type silencer struct {
	target PartyID
}

func (s *silencer) Reset(*AdvContext)                         {}
func (s *silencer) InitialCorruptions() []PartyID             { return []PartyID{s.target} }
func (s *silencer) SubstituteInput(_ PartyID, v Value) Value  { return v }
func (s *silencer) ObserveSetup([]Value) bool                 { return false }
func (s *silencer) CorruptBefore(int) []PartyID               { return nil }
func (s *silencer) OnCorrupt(PartyID, Party, Value)           {}
func (s *silencer) Act(int, [][]Message, []Message) []Message { return nil }
func (s *silencer) Learned() (Value, bool)                    { return nil, false }

func TestHonestRunDelivers(t *testing.T) {
	tr, err := Run(exchangeProtocol{}, []Value{uint64(3), uint64(4)}, Passive{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumCorrupted() != 0 {
		t.Errorf("corrupted = %d, want 0", tr.NumCorrupted())
	}
	if !tr.AllHonestDelivered() {
		t.Errorf("honest run did not deliver: %+v", tr.HonestOutputs)
	}
	if !ValuesEqual(tr.ExpectedOutput, uint64(7)) {
		t.Errorf("expected output %v, want 7", tr.ExpectedOutput)
	}
	if tr.AdvLearned {
		t.Error("passive adversary marked as having learned output")
	}
}

func TestSilencedPartyDeniesOutput(t *testing.T) {
	tr, err := Run(exchangeProtocol{}, []Value{uint64(3), uint64(4)}, &silencer{target: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumCorrupted() != 1 {
		t.Fatalf("corrupted = %d, want 1", tr.NumCorrupted())
	}
	if rec := tr.HonestOutputs[1]; rec.OK {
		t.Errorf("party 2 output %v despite silent counterparty", rec.Value)
	}
	if tr.AllHonestDelivered() {
		t.Error("AllHonestDelivered true despite ⊥ output")
	}
}

func TestWrongInputCount(t *testing.T) {
	if _, err := Run(exchangeProtocol{}, []Value{uint64(1)}, Passive{}, 1); !errors.Is(err, ErrInputCount) {
		t.Errorf("err = %v, want ErrInputCount", err)
	}
}

func TestBadCorruptionTarget(t *testing.T) {
	if _, err := Run(exchangeProtocol{}, []Value{uint64(1), uint64(2)}, &silencer{target: 9}, 1); !errors.Is(err, ErrBadParty) {
		t.Errorf("err = %v, want ErrBadParty", err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	t1, err := Run(exchangeProtocol{}, []Value{uint64(5), uint64(6)}, Passive{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Run(exchangeProtocol{}, []Value{uint64(5), uint64(6)}, Passive{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !ValuesEqual(t1.HonestOutputs, t2.HonestOutputs) {
		t.Error("same seed produced different traces")
	}
}

// learner corrupts party 1, runs it honestly via the engine-provided
// machine, and reports the output it computes.
type learner struct {
	ctx     *AdvContext
	machine Party
	inbox   []Message
	learned Value
	ok      bool
}

func (l *learner) Reset(ctx *AdvContext) {
	l.ctx, l.machine, l.inbox, l.learned, l.ok = ctx, nil, nil, nil, false
}
func (l *learner) InitialCorruptions() []PartyID            { return []PartyID{1} }
func (l *learner) SubstituteInput(_ PartyID, v Value) Value { return v }
func (l *learner) ObserveSetup([]Value) bool                { return false }
func (l *learner) CorruptBefore(int) []PartyID              { return nil }
func (l *learner) OnCorrupt(_ PartyID, m Party, _ Value)    { l.machine = m }

func (l *learner) Act(round int, inboxes [][]Message, _ []Message) []Message {
	// Run the corrupted machine honestly on its delivered inbox.
	out, err := l.machine.Round(round, inboxes[0])
	if err != nil {
		return nil
	}
	if v, ok := l.machine.Output(); ok {
		l.learned, l.ok = v, true
	}
	return out
}

func (l *learner) Learned() (Value, bool) { return l.learned, l.ok }

func TestLearnedClaimVerified(t *testing.T) {
	tr, err := Run(exchangeProtocol{}, []Value{uint64(10), uint64(20)}, &learner{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.AdvLearned {
		t.Error("honestly-running corrupted party should have learned the output")
	}
	if !ValuesEqual(tr.AdvValue, uint64(30)) {
		t.Errorf("AdvValue = %v, want 30", tr.AdvValue)
	}
	// Honest party 2 also delivered (learner relayed honestly).
	if !tr.AllHonestDelivered() {
		t.Error("honest party should have delivered")
	}
}

// liar claims to have learned a bogus output.
type liar struct{ silencer }

func (l *liar) Learned() (Value, bool) { return uint64(999999), true }

func TestFalseLearnedClaimRejected(t *testing.T) {
	tr, err := Run(exchangeProtocol{}, []Value{uint64(1), uint64(2)}, &liar{silencer{target: 1}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.AdvLearned {
		t.Error("engine accepted a false learned-output claim")
	}
}

// fakeExtractor claims to have extracted an input.
type fakeExtractor struct {
	silencer
	victim PartyID
	value  Value
}

func (f *fakeExtractor) ExtractedInput() (PartyID, Value, bool) { return f.victim, f.value, true }

func TestPrivacyBreachVerification(t *testing.T) {
	// Correct claim about honest party 2's input.
	adv := &fakeExtractor{silencer: silencer{target: 1}, victim: 2, value: uint64(22)}
	tr, err := Run(exchangeProtocol{}, []Value{uint64(11), uint64(22)}, adv, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.PrivacyBreach || tr.BreachedParty != 2 {
		t.Errorf("verified extraction not recorded: %+v", tr)
	}
	// Wrong value: rejected.
	adv.value = uint64(99)
	tr, err = Run(exchangeProtocol{}, []Value{uint64(11), uint64(22)}, adv, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PrivacyBreach {
		t.Error("false extraction claim accepted")
	}
	// Claim about a corrupted party: rejected (no breach of corrupted).
	adv.victim, adv.value = 1, uint64(11)
	tr, err = Run(exchangeProtocol{}, []Value{uint64(11), uint64(22)}, adv, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr.PrivacyBreach {
		t.Error("extraction of corrupted party's own input counted as breach")
	}
}

// hybridProtocol exercises the setup phase: setup computes the sum and
// hands it to party 1 only; round 1 party 1 forwards it; finalize: both
// output it. Default input is 0.
type hybridProtocol struct{}

func (hybridProtocol) Name() string               { return "test-hybrid" }
func (hybridProtocol) NumParties() int            { return 2 }
func (hybridProtocol) NumRounds() int             { return 1 }
func (hybridProtocol) DefaultInput(PartyID) Value { return uint64(0) }
func (hybridProtocol) Func(inputs []Value) Value {
	return inputs[0].(uint64) + inputs[1].(uint64)
}

func (hybridProtocol) Setup(inputs []Value, _ *rand.Rand) ([]Value, error) {
	sum := inputs[0].(uint64) + inputs[1].(uint64)
	return []Value{sum, nil}, nil
}

func (hybridProtocol) NewParty(id PartyID, _ Value, setupOut Value, aborted bool, _ *rand.Rand) (Party, error) {
	return &hybridParty{id: id, setupOut: setupOut, aborted: aborted}, nil
}

type hybridParty struct {
	id       PartyID
	setupOut Value
	aborted  bool
	result   Value
	done     bool
}

func (p *hybridParty) Round(round int, inbox []Message) ([]Message, error) {
	if p.aborted {
		return nil, nil
	}
	switch round {
	case 1:
		if p.id == 1 {
			p.result, p.done = p.setupOut, true
			return []Message{{From: 1, To: 2, Payload: p.setupOut}}, nil
		}
	case 2:
		if p.id == 2 {
			for _, m := range inbox {
				p.result, p.done = m.Payload, true
			}
		}
	}
	return nil, nil
}

func (p *hybridParty) Output() (Value, bool) { return p.result, p.done }
func (p *hybridParty) Clone() Party          { cp := *p; return &cp }

// setupAborter corrupts party 1 and aborts the setup, substituting input
// 5; it keeps the setup output it saw for party 1.
type setupAborter struct{ sawSetup Value }

func (s *setupAborter) Reset(*AdvContext)                         { s.sawSetup = nil }
func (s *setupAborter) InitialCorruptions() []PartyID             { return []PartyID{1} }
func (s *setupAborter) SubstituteInput(PartyID, Value) Value      { return uint64(5) }
func (s *setupAborter) ObserveSetup(o []Value) bool               { s.sawSetup = o[0]; return true }
func (s *setupAborter) CorruptBefore(int) []PartyID               { return nil }
func (s *setupAborter) OnCorrupt(PartyID, Party, Value)           {}
func (s *setupAborter) Act(int, [][]Message, []Message) []Message { return nil }
func (s *setupAborter) Learned() (Value, bool)                    { return nil, false }

func TestHybridSetupRuns(t *testing.T) {
	tr, err := Run(hybridProtocol{}, []Value{uint64(3), uint64(4)}, Passive{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.AllHonestDelivered() {
		t.Errorf("hybrid protocol failed honestly: %+v", tr.HonestOutputs)
	}
}

func TestInputSubstitutionAndSetupAbort(t *testing.T) {
	adv := &setupAborter{}
	tr, err := Run(hybridProtocol{}, []Value{uint64(3), uint64(4)}, adv, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.SetupAborted {
		t.Fatal("setup abort not recorded")
	}
	// Adversary saw the corrupted party's setup output for the
	// substituted inputs (5 + 4 = 9).
	if got := adv.sawSetup; !ValuesEqual(got, uint64(9)) {
		t.Errorf("adversary saw setup output %v, want 9", got)
	}
	// After abort the expected output uses the DEFAULT input (0+4).
	if !ValuesEqual(tr.ExpectedOutput, uint64(4)) {
		t.Errorf("expected output after abort = %v, want 4", tr.ExpectedOutput)
	}
	if !ValuesEqual(tr.EffectiveInputs[0], uint64(0)) {
		t.Errorf("effective input 1 = %v, want default 0", tr.EffectiveInputs[0])
	}
}

func TestPassiveNeverAbortsSetup(t *testing.T) {
	// With zero corruptions ObserveSetup cannot abort (engine rule).
	tr, err := Run(hybridProtocol{}, []Value{uint64(1), uint64(1)}, Passive{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SetupAborted {
		t.Error("setup aborted without corruptions")
	}
}

// adaptive corrupts party 2 before round 2 and learns its output.
type adaptive struct {
	machine Party
	learned Value
	ok      bool
}

func (a *adaptive) Reset(*AdvContext)                        { a.machine, a.learned, a.ok = nil, nil, false }
func (a *adaptive) InitialCorruptions() []PartyID            { return nil }
func (a *adaptive) SubstituteInput(_ PartyID, v Value) Value { return v }
func (a *adaptive) ObserveSetup([]Value) bool                { return false }
func (a *adaptive) CorruptBefore(round int) []PartyID {
	if round == 2 {
		return []PartyID{2}
	}
	return nil
}
func (a *adaptive) OnCorrupt(_ PartyID, m Party, _ Value) { a.machine = m }
func (a *adaptive) Act(round int, inboxes [][]Message, _ []Message) []Message {
	if a.machine == nil {
		return nil
	}
	out, err := a.machine.Round(round, inboxes[1])
	if err != nil {
		return nil
	}
	if v, ok := a.machine.Output(); ok {
		a.learned, a.ok = v, true
	}
	return out
}
func (a *adaptive) Learned() (Value, bool) { return a.learned, a.ok }

func TestAdaptiveCorruptionHandsOverMachine(t *testing.T) {
	tr, err := Run(exchangeProtocol{}, []Value{uint64(2), uint64(3)}, &adaptive{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Corrupted[1] {
		t.Fatal("party 2 not corrupted")
	}
	if !tr.AdvLearned {
		t.Error("adaptively corrupted machine run honestly should learn output")
	}
	// Party 1 still delivered: party 2 sent its round-1 message while
	// honest, and the adaptive adversary ran the machine honestly after.
	if rec := tr.HonestOutputs[0]; !rec.OK || !ValuesEqual(rec.Value, uint64(5)) {
		t.Errorf("party 1 output = %+v, want 5", rec)
	}
}

// impersonator tries to send a message as an honest party.
type impersonator struct{ silencer }

func (im *impersonator) Act(int, [][]Message, []Message) []Message {
	return []Message{{From: 2, To: 1, Payload: uint64(666)}}
}

func TestAdversaryCannotImpersonateHonest(t *testing.T) {
	adv := &impersonator{silencer{target: 1}}
	if _, err := Run(exchangeProtocol{}, []Value{uint64(1), uint64(2)}, adv, 12); err == nil {
		t.Error("engine allowed message from honest party's identity")
	}
}

func TestBroadcastReachesEveryone(t *testing.T) {
	// A protocol where party 1 broadcasts its input; everyone outputs it.
	tr, err := Run(broadcastProtocol{n: 4}, []Value{uint64(9), uint64(0), uint64(0), uint64(0)}, Passive{}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.AllHonestDelivered() {
		t.Errorf("broadcast outputs: %+v", tr.HonestOutputs)
	}
}

type broadcastProtocol struct{ n int }

func (p broadcastProtocol) Name() string                               { return "test-broadcast" }
func (p broadcastProtocol) NumParties() int                            { return p.n }
func (p broadcastProtocol) NumRounds() int                             { return 1 }
func (p broadcastProtocol) DefaultInput(PartyID) Value                 { return uint64(0) }
func (p broadcastProtocol) Func(inputs []Value) Value                  { return inputs[0] }
func (p broadcastProtocol) Setup([]Value, *rand.Rand) ([]Value, error) { return nil, nil }
func (p broadcastProtocol) NewParty(id PartyID, input Value, _ Value, _ bool, _ *rand.Rand) (Party, error) {
	return &broadcastParty{id: id, input: input}, nil
}

type broadcastParty struct {
	id     PartyID
	input  Value
	result Value
	done   bool
}

func (p *broadcastParty) Round(round int, inbox []Message) ([]Message, error) {
	switch round {
	case 1:
		if p.id == 1 {
			return []Message{{From: 1, To: Broadcast, Payload: p.input}}, nil
		}
	case 2:
		for _, m := range inbox {
			if m.From == 1 && m.To == Broadcast {
				p.result, p.done = m.Payload, true
			}
		}
	}
	return nil, nil
}

func (p *broadcastParty) Output() (Value, bool) { return p.result, p.done }
func (p *broadcastParty) Clone() Party          { cp := *p; return &cp }

func TestValuesEqual(t *testing.T) {
	if !ValuesEqual(uint64(1), uint64(1)) {
		t.Error("equal uints")
	}
	if ValuesEqual(uint64(1), uint64(2)) {
		t.Error("unequal uints")
	}
	if ValuesEqual(uint64(1), int(1)) {
		t.Error("different types should differ")
	}
	type pair struct{ A, B uint64 }
	if !ValuesEqual(pair{1, 2}, pair{1, 2}) {
		t.Error("equal structs")
	}
}

func TestTraceHelpers(t *testing.T) {
	tr := &Trace{
		ExpectedOutput: uint64(7),
		Corrupted:      []bool{false, false, true},
		HonestOutputs: []OutputRecord{
			{Value: uint64(7), OK: true},
			{Value: uint64(9), OK: true},
			{}, // corrupted: never read
		},
	}
	if tr.AllHonestDelivered() {
		t.Error("AllHonestDelivered with a wrong output")
	}
	if !tr.AnyHonestWrong() {
		t.Error("AnyHonestWrong should detect the wrong output")
	}
	tr.HonestOutputs[1] = OutputRecord{OK: false}
	if tr.AnyHonestWrong() {
		t.Error("⊥ output is not a wrong output")
	}
	if tr.AllHonestDelivered() {
		t.Error("⊥ output is not delivery")
	}
}
