package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/rng"
)

// ErrPhase reports an Execution phase method called out of order.
var ErrPhase = errors.New("sim: execution phase out of order")

// execState tracks the phase an Execution is in.
type execState int

const (
	execCreated execState = iota
	execRounds
	execDone
)

// Execution is one protocol run decomposed into individually callable
// phases:
//
//	e, _ := NewExecution(proto, inputs, adv, seed, observers...)
//	e.SetupPhase()                  // corruption, substitution, hybrid setup
//	for r := 1; r <= e.TotalRounds(); r++ {
//	    e.Step(r)                   // one synchronous message round
//	}
//	tr, _ := e.Finalize()           // outputs, audits, verified verdicts
//
// Run wraps the four phases back into the classic single call and
// produces a trace identical to the pre-stepper engine's. The phases
// exist so that callers can hold the execution open between rounds:
// round-level attack strategies can be scheduled between Steps, and
// Observers stream every engine event as it happens instead of reading
// a post-hoc trace.
//
// The execution owns the party machines and steps them by direct method
// calls. Party RNGs are retained and reseeded across runs (machines draw
// all randomness at construction, so a previous run's machine never
// touches a reseeded stream), and machines of protocols implementing
// ReusableParty are re-initialized in place.
//
// Every RNG stream (master, protocol, adversary and party) is an
// rng.SlabSource: it emits exactly the stream of a freshly seeded
// rng.Source, but computes each of its first 273 values only when it
// is drawn, so a stream that is never drawn costs nothing and one that
// draws k ≤ 273 values costs O(k). The protocol stream belongs to the
// setup between setup calls: a ScratchSetupProtocol may draw from it in
// the rounds that read its outputs (Gordon–Katz deals each iteration's
// sharings the first time a machine reads them).
//
// Every per-run allocation (the trace's per-party slices, inbox lanes,
// RNG streams, the adversary context, scratch buffers) lives on the
// Execution and is reinitialized in place by reset, so an Arena can
// replay millions of runs on one Execution without reallocating; a
// one-shot Execution pays each allocation exactly once, as before.
type Execution struct {
	proto Protocol
	adv   Adversary
	obs   []Observer
	// protoName caches proto.Name() (some protocols format it).
	protoName string
	// setupFn replaces proto.Setup when the protocol implements
	// ScratchSetupProtocol (one scratch evaluator per Execution).
	setupFn func(inputs []Value, rng *rand.Rand) ([]Value, error)

	n          int
	inputs     []Value // environment-chosen inputs
	effective  []Value // after adversarial substitution
	setupOuts  []Value
	partySeeds []int64
	machines   []Party      // index id-1
	partyRNGs  []*rand.Rand // index id-1, retained across runs
	master     *rand.Rand
	protoRNG   *rand.Rand
	advRNG     *rand.Rand
	trace      *Trace

	inboxes     [][]Message
	totalRounds int
	state       execState
	nextRound   int
	// silent records that nobody sent a message in the last round
	// stepped, so the next round's inboxes are all empty.
	silent bool

	// isCorrupt flags the corrupted parties (index id-1) and is the
	// trace's Corrupted slice; corrupted lists the same set as
	// ascending ids for the per-run loops. setupCorrupted is
	// len(corrupted) when the setup phase ended. trueOut is f on the
	// environment's inputs, reused for trace outputs on the same inputs.
	corrupted      []PartyID
	isCorrupt      []bool
	setupCorrupted int
	trueOut        Value

	// work counts rounds stepped and honest-machine Round calls over
	// the execution's lifetime (read by tests through export_test.go).
	work struct{ rounds, honestCalls int }

	// Reusable per-run state. traceStore backs trace; the buffers below
	// are truncated/cleared by reset, never freed, so their capacity
	// survives across arena runs.
	traceStore    Trace
	auditStore    OutcomeAudit // backs trace.Audit
	advCtx        AdvContext
	spare         [][]Message // next-round lanes, swapped with inboxes
	honestOut     []Message
	rushed        []Message
	corruptSetup  []Value // the adversary's view of the setup outputs
	effectiveBuf  []Value
	setupDefaults []Value
	finalDefaults []Value
	ctxInputs     []Value
}

// newExecutionShell builds an Execution skeleton bound to a protocol but
// no run; reset readies it for one.
func newExecutionShell(proto Protocol) *Execution {
	n := proto.NumParties()
	e := &Execution{
		proto:        proto,
		protoName:    proto.Name(),
		n:            n,
		totalRounds:  proto.NumRounds() + 1, // +1 finalize call
		machines:     make([]Party, n),
		partyRNGs:    make([]*rand.Rand, n),
		partySeeds:   make([]int64, n),
		master:       rand.New(new(rng.SlabSource)),
		protoRNG:     rand.New(new(rng.SlabSource)),
		advRNG:       rand.New(new(rng.SlabSource)),
		corrupted:    make([]PartyID, 0, n),
		isCorrupt:    make([]bool, n),
		inboxes:      make([][]Message, n),
		spare:        make([][]Message, n),
		corruptSetup: make([]Value, n),
	}
	e.traceStore.Corrupted = e.isCorrupt
	e.traceStore.HonestOutputs = make([]OutputRecord, n)
	e.traceStore.HonestAudits = make([]Value, n)
	if sp, ok := proto.(ScratchSetupProtocol); ok {
		e.setupFn = sp.NewSetupScratch()
	}
	return e
}

// reset (re)initializes the execution for one run, reusing every buffer
// and RNG stream the previous run left behind. The master-stream
// draw order is the engine's determinism contract — protocol stream,
// adversary stream, then one seed per party — and matches the classic
// Run exactly, so a reused execution reproduces a fresh one bit for bit.
func (e *Execution) reset(inputs []Value, adv Adversary, seed int64, obs []Observer) error {
	if len(inputs) != e.n {
		return fmt.Errorf("%w: got %d, want %d", ErrInputCount, len(inputs), e.n)
	}
	e.adv = adv
	e.obs = obs
	e.master.Seed(seed)
	e.protoRNG.Seed(e.master.Int63())
	e.advRNG.Seed(e.master.Int63())
	for i := range e.partySeeds {
		e.partySeeds[i] = e.master.Int63()
	}

	e.inputs = append(e.inputs[:0], inputs...)
	e.effective = nil
	e.setupOuts = nil
	e.state = execCreated
	e.nextRound = 0
	e.corrupted = e.corrupted[:0]
	clear(e.isCorrupt)
	e.setupCorrupted = 0
	for i := range e.inboxes {
		e.inboxes[i] = e.inboxes[i][:0]
		e.spare[i] = e.spare[i][:0]
	}

	tr := &e.traceStore
	e.trace = tr
	tr.ProtocolName = e.protoName
	tr.Inputs = append(tr.Inputs[:0], inputs...)
	tr.EffectiveInputs = nil
	tr.ExpectedOutput = nil
	tr.DefaultedOutput = nil
	tr.HybridOutput = nil
	tr.SetupAudit = nil
	tr.Audit = nil
	clear(tr.HonestOutputs)
	clear(tr.HonestAudits)
	tr.SetupAborted = false
	tr.AdvLearned = false
	tr.AdvValue = nil
	tr.PrivacyBreach = false
	tr.BreachedParty = 0
	tr.RoundsRun = 0

	e.ctxInputs = append(e.ctxInputs[:0], inputs...)
	e.trueOut = e.proto.Func(inputs)
	e.advCtx = AdvContext{
		Protocol:   e.proto,
		Inputs:     e.ctxInputs,
		TrueOutput: e.trueOut,
		RNG:        e.advRNG,
	}
	adv.Reset(&e.advCtx)
	return nil
}

// NewExecution prepares an in-memory execution: it seeds the engine's
// RNG streams (in the same master order as the classic Run) and resets
// the adversary. No protocol code runs until SetupPhase.
func NewExecution(proto Protocol, inputs []Value, adv Adversary, seed int64, obs ...Observer) (*Execution, error) {
	e := newExecutionShell(proto)
	if err := e.reset(inputs, adv, seed, obs); err != nil {
		return nil, err
	}
	return e, nil
}

// TotalRounds returns the number of Step calls an execution takes: the
// protocol's message rounds plus the finalize round.
func (e *Execution) TotalRounds() int { return e.totalRounds }

// markCorrupted records the corruption of party id (already range-
// checked) in the trace and in the engine's ascending list, and reports
// whether id was newly corrupted.
func (e *Execution) markCorrupted(id PartyID) bool {
	if e.isCorrupt[id-1] {
		return false
	}
	e.isCorrupt[id-1] = true
	i, _ := slices.BinarySearch(e.corrupted, id)
	e.corrupted = slices.Insert(e.corrupted, i, id)
	return true
}

// corruptedID reports whether id names a corrupted party (false for
// Broadcast and out-of-range ids).
func (e *Execution) corruptedID(id PartyID) bool {
	return id >= 1 && id <= PartyID(e.n) && e.isCorrupt[id-1]
}

// startParty readies party i+1's machine for the run: it reseeds the
// party's retained RNG (building it on first use) and re-initializes the
// previous run's machine in place when the protocol supports it, or
// builds a fresh one.
func (e *Execution) startParty(i int, input, setupOut Value, setupAborted bool) error {
	r := e.partyRNGs[i]
	if r == nil {
		r = rand.New(new(rng.SlabSource))
		e.partyRNGs[i] = r
	}
	r.Seed(e.partySeeds[i])
	id := PartyID(i + 1)
	if ru, ok := e.machines[i].(ReusableParty); ok && ru.Reinit(id, input, setupOut, setupAborted, r) {
		return nil
	}
	m, err := e.proto.NewParty(id, input, setupOut, setupAborted, r)
	if err != nil {
		return err
	}
	e.machines[i] = m
	return nil
}

func (e *Execution) setupOutOf(id PartyID) Value {
	if e.setupOuts == nil {
		return nil
	}
	return e.setupOuts[id-1]
}

// SetupPhase runs the pre-round phases: static corruption, adversarial
// input substitution, the hybrid setup (with the adversary's abort
// decision), and party-machine construction.
func (e *Execution) SetupPhase() error {
	if e.state != execCreated {
		return fmt.Errorf("%w: SetupPhase called twice", ErrPhase)
	}
	tr, n := e.trace, e.n
	for _, o := range e.obs {
		o.RunStarted(e.proto, tr.Inputs)
	}

	// Static corruptions and input substitution.
	for _, id := range e.adv.InitialCorruptions() {
		if id < 1 || PartyID(n) < id {
			return fmt.Errorf("%w: %d", ErrBadParty, id)
		}
		e.markCorrupted(id)
	}
	for _, o := range e.obs {
		for _, id := range e.corrupted {
			o.PartyCorrupted(0, id)
		}
	}
	effective := append(e.effectiveBuf[:0], e.inputs...)
	e.effectiveBuf = effective
	for _, id := range e.corrupted {
		effective[id-1] = e.adv.SubstituteInput(id, e.inputs[id-1])
		for _, o := range e.obs {
			o.InputSubstituted(id, e.inputs[id-1], effective[id-1])
		}
	}
	tr.EffectiveInputs = effective
	e.effective = effective

	// Hybrid setup.
	setup := e.proto.Setup
	if e.setupFn != nil {
		setup = e.setupFn
	}
	setupOuts, err := setup(effective, e.protoRNG)
	if err != nil {
		return fmt.Errorf("sim: setup: %w", err)
	}
	if setupOuts != nil && len(setupOuts) != n && len(setupOuts) != n+1 {
		return fmt.Errorf("sim: setup returned %d outputs for %d parties", len(setupOuts), n)
	}
	if len(setupOuts) == n+1 {
		tr.SetupAudit = setupOuts[n]
		setupOuts = setupOuts[:n]
	}
	e.setupOuts = setupOuts
	// A setup abort is only meaningful with at least one corruption, and
	// the protocol's hybrid may be robust against small coalitions.
	abortRequested := false
	if t := len(e.corrupted); t > 0 {
		clear(e.corruptSetup)
		for _, id := range e.corrupted {
			e.corruptSetup[id-1] = e.setupOutOf(id)
		}
		abortRequested = e.adv.ObserveSetup(e.corruptSetup)
		if policy, ok := e.proto.(SetupAbortPolicy); ok && abortRequested {
			abortRequested = policy.SetupAbortable(t)
		}
	}
	tr.SetupAborted = abortRequested
	// f on the effective inputs; without a substitution that is the
	// true output computed at reset.
	if slices.EqualFunc(effective, e.inputs, ValuesEqual) {
		tr.HybridOutput = e.trueOut
	} else {
		tr.HybridOutput = e.proto.Func(effective)
	}
	for _, o := range e.obs {
		o.SetupFinished(tr.SetupAborted)
	}

	if tr.SetupAborted {
		// Honest parties proceed on defaults for corrupted parties.
		withDefaults := append(e.setupDefaults[:0], e.inputs...)
		e.setupDefaults = withDefaults
		for _, id := range e.corrupted {
			withDefaults[id-1] = e.proto.DefaultInput(id)
		}
		tr.ExpectedOutput = e.proto.Func(withDefaults)
		tr.EffectiveInputs = withDefaults
	} else {
		tr.ExpectedOutput = tr.HybridOutput // f(effective), as above
	}

	// Build machines. Corrupted machines are handed to the adversary.
	for i := 0; i < n; i++ {
		if err := e.startParty(i, effective[i], e.setupOutOf(PartyID(i+1)), tr.SetupAborted); err != nil {
			return fmt.Errorf("sim: new party %d: %w", i+1, err)
		}
	}
	for _, id := range e.corrupted {
		e.adv.OnCorrupt(id, e.machines[id-1], e.setupOutOf(id))
	}
	e.setupCorrupted = len(e.corrupted)

	e.state = execRounds
	e.nextRound = 1
	return nil
}

// deliverInto routes one round message into the next-round lanes.
// Broadcasts go to everyone (including the sender) in deterministic
// order.
func (e *Execution) deliverInto(next [][]Message, m Message) {
	if m.To == Broadcast {
		for i := range next {
			next[i] = append(next[i], m)
		}
		return
	}
	if m.To >= 1 && m.To <= PartyID(e.n) {
		next[m.To-1] = append(next[m.To-1], m)
	}
}

// Step executes message round `round` (which must be the next round in
// sequence): adaptive corruption, honest party moves, the rushing
// adversary's reply, and message routing into the next round's inboxes.
func (e *Execution) Step(round int) error {
	if e.state != execRounds || round != e.nextRound || round > e.totalRounds {
		return fmt.Errorf("%w: Step(%d) in state %d (next round %d)", ErrPhase, round, e.state, e.nextRound)
	}
	tr, n, r := e.trace, e.n, round
	for _, o := range e.obs {
		o.RoundStarted(r)
	}

	// Adaptive corruption before the round.
	for _, id := range e.adv.CorruptBefore(r) {
		if id < 1 || PartyID(n) < id {
			return fmt.Errorf("%w: %d", ErrBadParty, id)
		}
		if !e.markCorrupted(id) {
			continue
		}
		for _, o := range e.obs {
			o.PartyCorrupted(r, id)
		}
		e.adv.OnCorrupt(id, e.machines[id-1], e.setupOutOf(id))
	}

	// Deliver this round's inboxes: honest parties consume them in their
	// Round call below; corrupted parties' inboxes go to the adversary.
	for _, o := range e.obs {
		for i, inbox := range e.inboxes {
			for _, m := range inbox {
				o.MessageDelivered(r, PartyID(i+1), m)
			}
		}
	}

	// Honest parties move first. Each honest lane is emptied once its
	// machine has read it, so the lanes the adversary sees below hold
	// only the corrupted parties' inboxes.
	honestOut := e.honestOut[:0]
	rushed := e.rushed[:0]
	for i, m := range e.machines {
		if e.isCorrupt[i] {
			continue
		}
		id := PartyID(i + 1)
		out, err := m.Round(r, e.inboxes[i])
		e.inboxes[i] = e.inboxes[i][:0]
		e.work.honestCalls++
		if err != nil {
			return fmt.Errorf("sim: party %d round %d: %w", id, r, err)
		}
		for _, m := range out {
			m.From = id // the channel authenticates the sender
			honestOut = append(honestOut, m)
			if m.To == Broadcast || e.corruptedID(m.To) {
				rushed = append(rushed, m)
			}
			for _, o := range e.obs {
				o.MessageSent(r, m, false)
			}
		}
	}
	e.honestOut, e.rushed = honestOut, rushed

	// Rushing adversary acts, with the corrupted parties' delivered
	// inboxes and the rushed view of this round's honest messages. The
	// slices are engine scratch, read-only and valid only during Act.
	advOut := e.adv.Act(r, e.inboxes, rushed)
	for i := range advOut {
		if !e.corruptedID(advOut[i].From) {
			return fmt.Errorf("sim: adversary sent as honest party %d", advOut[i].From)
		}
	}
	for _, o := range e.obs {
		for _, m := range advOut {
			o.MessageSent(r, m, true)
		}
	}

	// Route all round-r messages into next-round inboxes.
	next := e.spare
	for _, m := range honestOut {
		e.deliverInto(next, m)
	}
	for _, m := range advOut {
		e.deliverInto(next, m)
	}
	// Stable delivery order: by sender then position (already stable
	// since we appended honest in id order, then adversarial).
	for i := range next {
		sortStableBySender(next[i])
	}
	// Swap lanes: the consumed inboxes become next round's (truncated)
	// routing target.
	old := e.inboxes
	e.inboxes = next
	for i := range old {
		old[i] = old[i][:0]
	}
	e.spare = old
	e.silent = len(honestOut) == 0 && len(advOut) == 0
	e.work.rounds++
	tr.RoundsRun = r
	for _, o := range e.obs {
		o.RoundEnded(r)
	}
	e.nextRound++
	return nil
}

// quiet reports whether the run can change no more: nobody sent a
// message in the last round stepped, and the strategy and every honest
// machine are quiet (see Quiescent).
func (e *Execution) quiet() bool {
	if !e.silent || !IsQuiet(e.adv) {
		return false
	}
	for i, m := range e.machines {
		if !e.isCorrupt[i] && !IsQuiet(m) {
			return false
		}
	}
	return true
}

// skipRest ends a quiet run without stepping its remaining rounds: each
// of them would deliver, send and change nothing, so an observer sees
// only their RoundStarted and RoundEnded events, as a stepped run emits
// them. A *Metrics, whose only count of them is Rounds, takes all of
// them in one addition.
func (e *Execution) skipRest() {
	first := e.nextRound
	e.nextRound = e.totalRounds + 1
	e.trace.RoundsRun = e.totalRounds
	others := false
	for _, o := range e.obs {
		if m, ok := o.(*Metrics); ok {
			m.Rounds += int64(e.nextRound - first)
		} else {
			others = true
		}
	}
	for r := first; others && r < e.nextRound; r++ {
		for _, o := range e.obs {
			if _, ok := o.(*Metrics); !ok {
				o.RoundStarted(r)
			}
		}
		for _, o := range e.obs {
			if _, ok := o.(*Metrics); !ok {
				o.RoundEnded(r)
			}
		}
	}
}

// Finalize collects honest outputs and audit data, verifies the
// adversary's learned/privacy-breach claims, and returns the finished
// trace. Every message round must have been stepped first.
//
// The trace (and everything it references) belongs to the execution:
// with a one-shot Execution it stays valid indefinitely, but an Arena
// invalidates it at the next Run.
func (e *Execution) Finalize() (*Trace, error) {
	if e.state != execRounds || e.nextRound <= e.totalRounds {
		return nil, fmt.Errorf("%w: Finalize in state %d after round %d/%d", ErrPhase, e.state, e.nextRound-1, e.totalRounds)
	}
	tr, n := e.trace, e.n

	// Compute the defaulted output w.r.t. the final corrupted set: the
	// parties whose inputs honest parties replace with defaults.
	// Two common cases reuse an output already computed on the same
	// inputs: nobody was corrupted (f on the true inputs), or the
	// corrupted set is the one the setup abort already defaulted.
	switch {
	case len(e.corrupted) == 0:
		tr.DefaultedOutput = e.trueOut
	case tr.SetupAborted && len(e.corrupted) == e.setupCorrupted:
		tr.DefaultedOutput = tr.ExpectedOutput
	default:
		defaulted := append(e.finalDefaults[:0], e.inputs...)
		e.finalDefaults = defaulted
		for _, id := range e.corrupted {
			defaulted[id-1] = e.proto.DefaultInput(id)
		}
		tr.DefaultedOutput = e.proto.Func(defaulted)
	}

	// Collect honest outputs and audit data.
	for i, m := range e.machines {
		if e.isCorrupt[i] {
			continue
		}
		id := PartyID(i + 1)
		v, ok := m.Output()
		rec := OutputRecord{Value: v, OK: ok}
		tr.HonestOutputs[i] = rec
		if ap, ok := m.(AuditedParty); ok {
			tr.HonestAudits[i] = ap.AuditInfo()
		}
		for _, o := range e.obs {
			o.OutputProduced(id, rec)
		}
	}

	// Verify the adversary's learned-output claim: it must match either
	// the ideal-world expected output or the value the hybrid computed
	// before a setup abort. A protocol-level OutcomeAuditor overrides
	// this default rule.
	if auditor, ok := e.proto.(OutcomeAuditor); ok {
		e.auditStore = auditor.AuditOutcome(tr)
		audit := &e.auditStore
		tr.Audit = audit
		if audit.Learned {
			tr.AdvLearned = true
			tr.AdvValue = audit.LearnedValue
		}
	} else if v, ok := e.adv.Learned(); ok &&
		(ValuesEqual(v, tr.ExpectedOutput) || ValuesEqual(v, tr.HybridOutput)) {
		tr.AdvLearned = true
		tr.AdvValue = v
	}
	// Verify a privacy-breach claim if the strategy makes one.
	if ex, ok := e.adv.(InputExtractor); ok {
		if victim, v, claimed := ex.ExtractedInput(); claimed {
			if victim >= 1 && victim <= PartyID(n) && !e.isCorrupt[victim-1] &&
				ValuesEqual(v, e.inputs[victim-1]) {
				tr.PrivacyBreach = true
				tr.BreachedParty = victim
			}
		}
	}
	e.state = execDone
	for _, o := range e.obs {
		o.RunFinished(tr)
	}
	return tr, nil
}
