package sim

// Passive is the no-corruption adversary: the baseline strategy under
// which every protocol must deliver correct outputs to everyone. The
// classifier maps its runs to the event E01 (the paper: "this event also
// accounts for cases where the adversary does not corrupt any party").
type Passive struct{}

var (
	_ Adversary       = Passive{}
	_ AdversaryCloner = Passive{}
	_ Quiescent       = Passive{}
)

// CloneAdversary implements AdversaryCloner; Passive is stateless, so the
// value itself is a valid clone.
func (p Passive) CloneAdversary() Adversary { return p }

// Reset implements Adversary.
func (Passive) Reset(*AdvContext) {}

// InitialCorruptions implements Adversary: corrupts nobody.
func (Passive) InitialCorruptions() []PartyID { return nil }

// SubstituteInput implements Adversary: keeps the original input.
func (Passive) SubstituteInput(_ PartyID, orig Value) Value { return orig }

// ObserveSetup implements Adversary: never aborts.
func (Passive) ObserveSetup([]Value) bool { return false }

// CorruptBefore implements Adversary: never corrupts.
func (Passive) CorruptBefore(int) []PartyID { return nil }

// OnCorrupt implements Adversary.
func (Passive) OnCorrupt(PartyID, Party, Value) {}

// Act implements Adversary: sends nothing.
func (Passive) Act(int, [][]Message, []Message) []Message { return nil }

// Learned implements Adversary: learns nothing.
func (Passive) Learned() (Value, bool) { return nil, false }

// Quiet implements Quiescent: Passive never does anything.
func (Passive) Quiet() bool { return true }
