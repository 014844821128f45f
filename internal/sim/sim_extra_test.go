package sim

import (
	"math/rand"
	"testing"
)

// policyProtocol is a hybrid protocol with a robust setup below a
// threshold of 2 corruptions.
type policyProtocol struct{ hybridProtocol }

func (policyProtocol) SetupAbortable(corrupted int) bool { return corrupted >= 2 }

func TestSetupAbortPolicyBlocksSmallCoalitions(t *testing.T) {
	adv := &setupAborter{}
	tr, err := Run(policyProtocol{}, []Value{uint64(3), uint64(4)}, adv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SetupAborted {
		t.Error("single corruption aborted a robust setup")
	}
}

// doubleAborter corrupts both parties and aborts the setup.
type doubleAborter struct{ setupAborter }

func (d *doubleAborter) InitialCorruptions() []PartyID { return []PartyID{1, 2} }

func TestSetupAbortPolicyAllowsThreshold(t *testing.T) {
	adv := &doubleAborter{}
	tr, err := Run(policyProtocol{}, []Value{uint64(3), uint64(4)}, adv, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.SetupAborted {
		t.Error("threshold coalition could not abort")
	}
}

// setupSpy adaptively corrupts party 1 before round 1 and records the
// setup output handed over.
type setupSpy struct {
	gotSetup Value
}

func (s *setupSpy) Reset(*AdvContext)                        { s.gotSetup = nil }
func (s *setupSpy) InitialCorruptions() []PartyID            { return nil }
func (s *setupSpy) SubstituteInput(_ PartyID, v Value) Value { return v }
func (s *setupSpy) ObserveSetup([]Value) bool                { return false }
func (s *setupSpy) CorruptBefore(round int) []PartyID {
	if round == 1 {
		return []PartyID{1}
	}
	return nil
}
func (s *setupSpy) OnCorrupt(_ PartyID, _ Party, setupOut Value) { s.gotSetup = setupOut }
func (s *setupSpy) Act(int, [][]Message, []Message) []Message    { return nil }
func (s *setupSpy) Learned() (Value, bool)                       { return nil, false }

func TestAdaptiveCorruptionDeliversSetupOutput(t *testing.T) {
	adv := &setupSpy{}
	tr, err := Run(hybridProtocol{}, []Value{uint64(3), uint64(4)}, adv, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Corrupted[0] {
		t.Fatal("party 1 not corrupted")
	}
	// hybridProtocol's setup gives party 1 the sum (7).
	if !ValuesEqual(adv.gotSetup, uint64(7)) {
		t.Errorf("setup output on corruption = %v, want 7", adv.gotSetup)
	}
}

// auditingParty is a machine exposing audit info.
type auditingParty struct {
	exchangeParty
	marker int
}

func (p *auditingParty) AuditInfo() Value { return p.marker }
func (p *auditingParty) Clone() Party     { cp := *p; return &cp }

type auditingProtocol struct{ exchangeProtocol }

func (auditingProtocol) NewParty(id PartyID, input Value, _ Value, _ bool, _ *rand.Rand) (Party, error) {
	return &auditingParty{
		exchangeParty: exchangeParty{id: id, input: input.(uint64)},
		marker:        int(id) * 10,
	}, nil
}

func TestHonestAuditsCollected(t *testing.T) {
	tr, err := Run(auditingProtocol{}, []Value{uint64(1), uint64(2)}, Passive{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ValuesEqual(tr.HonestAudits[0], 10) || !ValuesEqual(tr.HonestAudits[1], 20) {
		t.Errorf("audits = %v", tr.HonestAudits)
	}
}

// auditedProtocol overrides the outcome: always learned with value 42,
// never delivered.
type auditedProtocol struct{ exchangeProtocol }

func (auditedProtocol) AuditOutcome(tr *Trace) OutcomeAudit {
	return OutcomeAudit{Learned: true, LearnedValue: uint64(42), Delivered: false, RandomReplaced: true}
}

func TestOutcomeAuditorOverrides(t *testing.T) {
	tr, err := Run(auditedProtocol{}, []Value{uint64(1), uint64(2)}, Passive{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.AdvLearned || !ValuesEqual(tr.AdvValue, uint64(42)) {
		t.Errorf("auditor learned override not applied: %v/%v", tr.AdvLearned, tr.AdvValue)
	}
	if tr.AllHonestDelivered() {
		t.Error("auditor delivered override not applied")
	}
	if !tr.AnyHonestWrong() {
		t.Error("auditor random-replaced override not applied")
	}
}

// hiddenAuditProtocol returns n+1 setup values.
type hiddenAuditProtocol struct{ hybridProtocol }

func (hiddenAuditProtocol) Setup(inputs []Value, rng *rand.Rand) ([]Value, error) {
	sum := inputs[0].(uint64) + inputs[1].(uint64)
	return []Value{sum, nil, "hidden-state"}, nil
}

func TestHiddenSetupAuditState(t *testing.T) {
	spy := &setupSpy{}
	tr, err := Run(hiddenAuditProtocol{}, []Value{uint64(3), uint64(4)}, spy, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !ValuesEqual(tr.SetupAudit, "hidden-state") {
		t.Errorf("SetupAudit = %v", tr.SetupAudit)
	}
	// The hidden value must never be handed to the adversary: party 1's
	// setup output is the sum, not the audit state.
	if !ValuesEqual(spy.gotSetup, uint64(7)) {
		t.Errorf("adversary saw %v", spy.gotSetup)
	}
}

// badSetupProtocol returns a wrong-length setup slice.
type badSetupProtocol struct{ hybridProtocol }

func (badSetupProtocol) Setup([]Value, *rand.Rand) ([]Value, error) {
	return []Value{nil, nil, nil, nil}, nil
}

func TestSetupLengthValidation(t *testing.T) {
	if _, err := Run(badSetupProtocol{}, []Value{uint64(1), uint64(2)}, Passive{}, 7); err == nil {
		t.Error("4 setup outputs for 2 parties accepted")
	}
}

func TestCorruptingSamePartyTwiceIsIdempotent(t *testing.T) {
	adv := &recorrupter{}
	tr, err := Run(exchangeProtocol{}, []Value{uint64(1), uint64(2)}, adv, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumCorrupted() != 1 {
		t.Errorf("corrupted = %d", tr.NumCorrupted())
	}
	if adv.handovers != 1 {
		t.Errorf("OnCorrupt called %d times, want 1", adv.handovers)
	}
}

// recorrupter names party 1 both statically and adaptively.
type recorrupter struct {
	handovers int
}

func (r *recorrupter) Reset(*AdvContext)                         { r.handovers = 0 }
func (r *recorrupter) InitialCorruptions() []PartyID             { return []PartyID{1} }
func (r *recorrupter) SubstituteInput(_ PartyID, v Value) Value  { return v }
func (r *recorrupter) ObserveSetup([]Value) bool                 { return false }
func (r *recorrupter) CorruptBefore(int) []PartyID               { return []PartyID{1} }
func (r *recorrupter) OnCorrupt(PartyID, Party, Value)           { r.handovers++ }
func (r *recorrupter) Act(int, [][]Message, []Message) []Message { return nil }
func (r *recorrupter) Learned() (Value, bool)                    { return nil, false }
