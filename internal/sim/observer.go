package sim

// Observer receives the event stream of one execution as the engine
// steps through its phases. Observers are engine-side instrumentation —
// the experimenter's lens, not part of the adversarial model: they see
// every message (including honest-to-honest traffic a rushing adversary
// never sees), so an Observer must never be handed to an Adversary.
//
// Event ordering contract, per run:
//
//	RunStarted
//	PartyCorrupted(0, id)*          static corruptions, ascending id
//	InputSubstituted(id, …)*        corrupted parties, ascending id
//	SetupFinished(aborted)
//	for each round r = 1..NumRounds()+1:
//	    RoundStarted(r)
//	    PartyCorrupted(r, id)*      adaptive corruptions, in CorruptBefore order
//	    MessageDelivered(r, to, m)* ascending recipient id, inbox order
//	    MessageSent(r, m, false)*   honest senders, ascending id
//	    MessageSent(r, m, true)*    the adversary's messages, in Act order
//	    RoundEnded(r)
//	OutputProduced(id, rec)*        honest parties, ascending id
//	RunFinished(tr)                 trace carries learned/breach verdicts
//
// Messages sent in round r are delivered at the start of round r+1; the
// MessageDelivered events of round r therefore replay the sends of round
// r−1 (routing included: a broadcast delivers to every party, a message
// to a corrupted party is consumed by the adversary).
//
// Callbacks run synchronously on the engine goroutine. Implementations
// must not retain the *Trace or mutate Message payloads; the parallel
// estimator gives every worker its own Observer, so implementations need
// no internal locking unless they share state across runs themselves.
type Observer interface {
	// RunStarted opens the stream: the protocol and the environment's
	// input vector.
	RunStarted(proto Protocol, inputs []Value)
	// PartyCorrupted reports a corruption; round 0 is static corruption
	// before setup, round r ≥ 1 is adaptive corruption before round r.
	PartyCorrupted(round int, id PartyID)
	// InputSubstituted reports the adversary replacing a corrupted
	// party's input before the hybrid setup (orig may equal substituted).
	InputSubstituted(id PartyID, orig, substituted Value)
	// SetupFinished closes the hybrid setup phase.
	SetupFinished(aborted bool)
	// RoundStarted opens message round r (r = NumRounds()+1 is the
	// finalize round).
	RoundStarted(round int)
	// MessageDelivered reports message m entering party to's inbox (or
	// the adversary's view, when to is corrupted) in round round.
	MessageDelivered(round int, to PartyID, m Message)
	// MessageSent reports a message committed in round round; corrupt
	// marks adversarial senders.
	MessageSent(round int, m Message, corrupt bool)
	// RoundEnded closes message round r.
	RoundEnded(round int)
	// OutputProduced reports one honest party's final output.
	OutputProduced(id PartyID, rec OutputRecord)
	// RunFinished closes the stream with the finished trace (learned and
	// privacy-breach verdicts are already verified).
	RunFinished(tr *Trace)
}

// NopObserver implements Observer with no-ops; embed it to implement
// only the events of interest.
type NopObserver struct{}

var _ Observer = NopObserver{}

// RunStarted implements Observer.
func (NopObserver) RunStarted(Protocol, []Value) {}

// PartyCorrupted implements Observer.
func (NopObserver) PartyCorrupted(int, PartyID) {}

// InputSubstituted implements Observer.
func (NopObserver) InputSubstituted(PartyID, Value, Value) {}

// SetupFinished implements Observer.
func (NopObserver) SetupFinished(bool) {}

// RoundStarted implements Observer.
func (NopObserver) RoundStarted(int) {}

// MessageDelivered implements Observer.
func (NopObserver) MessageDelivered(int, PartyID, Message) {}

// MessageSent implements Observer.
func (NopObserver) MessageSent(int, Message, bool) {}

// RoundEnded implements Observer.
func (NopObserver) RoundEnded(int) {}

// OutputProduced implements Observer.
func (NopObserver) OutputProduced(PartyID, OutputRecord) {}

// RunFinished implements Observer.
func (NopObserver) RunFinished(*Trace) {}

// Metrics counts engine events. It is both a plain value (mergeable with
// Add, so per-worker counters aggregate into one total) and an Observer:
// attach a *Metrics to an Execution and read the fields afterwards.
type Metrics struct {
	// Runs counts completed executions (RunFinished events).
	Runs int64
	// Rounds counts executed message rounds, finalize round included.
	Rounds int64
	// Messages counts committed messages (honest and adversarial).
	Messages int64
	// Broadcasts counts the subset of Messages sent to Broadcast.
	Broadcasts int64
	// Deliveries counts inbox deliveries (a broadcast delivers n times).
	Deliveries int64
	// Corruptions counts corruption events (static and adaptive).
	Corruptions int64
	// SetupAborts counts runs whose hybrid setup the adversary aborted.
	SetupAborts int64
}

var _ Observer = (*Metrics)(nil)

// Add accumulates another metrics value into m.
func (m *Metrics) Add(o Metrics) {
	m.Runs += o.Runs
	m.Rounds += o.Rounds
	m.Messages += o.Messages
	m.Broadcasts += o.Broadcasts
	m.Deliveries += o.Deliveries
	m.Corruptions += o.Corruptions
	m.SetupAborts += o.SetupAborts
}

// RunStarted implements Observer.
func (m *Metrics) RunStarted(Protocol, []Value) {}

// PartyCorrupted implements Observer.
func (m *Metrics) PartyCorrupted(int, PartyID) { m.Corruptions++ }

// InputSubstituted implements Observer.
func (m *Metrics) InputSubstituted(PartyID, Value, Value) {}

// SetupFinished implements Observer.
func (m *Metrics) SetupFinished(aborted bool) {
	if aborted {
		m.SetupAborts++
	}
}

// RoundStarted implements Observer.
func (m *Metrics) RoundStarted(int) { m.Rounds++ }

// MessageDelivered implements Observer.
func (m *Metrics) MessageDelivered(int, PartyID, Message) { m.Deliveries++ }

// MessageSent implements Observer.
func (m *Metrics) MessageSent(_ int, msg Message, _ bool) {
	m.Messages++
	if msg.To == Broadcast {
		m.Broadcasts++
	}
}

// RoundEnded implements Observer.
func (m *Metrics) RoundEnded(int) {}

// OutputProduced implements Observer.
func (m *Metrics) OutputProduced(PartyID, OutputRecord) {}

// RunFinished implements Observer.
func (m *Metrics) RunFinished(*Trace) { m.Runs++ }
