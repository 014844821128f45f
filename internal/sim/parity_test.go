package sim_test

// Engine-parity test: the stepwise Execution engine must produce traces
// reflect.DeepEqual-identical to the pre-refactor monolithic Run for
// every protocol × adversary pair the experiment harness exercises.
// legacyRun below is a line-for-line copy of the seed's sim.Run (built
// on the exported API only), frozen here as the behavioral contract.
// It keeps the seed's per-party maps and converts them to the
// party-indexed form only where it calls the strategy and where it
// returns the trace.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/adversary"
	"repro/internal/circuit"
	"repro/internal/gmwproto"
	"repro/internal/protocols/contract"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/protocols/multiparty"
	"repro/internal/protocols/twoparty"
	"repro/internal/sim"
)

// legacyRun is the seed engine's Run, verbatim modulo exported-name
// qualification and the conversions legacySlice makes for the strategy
// and the trace. Do not modify it otherwise: it is the parity
// reference.
func legacyRun(proto sim.Protocol, inputs []sim.Value, adv sim.Adversary, seed int64) (*sim.Trace, error) {
	n := proto.NumParties()
	if len(inputs) != n {
		return nil, fmt.Errorf("%w: got %d, want %d", sim.ErrInputCount, len(inputs), n)
	}
	master := rand.New(rand.NewSource(seed))
	protoRNG := rand.New(rand.NewSource(master.Int63()))
	advRNG := rand.New(rand.NewSource(master.Int63()))
	partyRNGs := make([]*rand.Rand, n)
	for i := range partyRNGs {
		partyRNGs[i] = rand.New(rand.NewSource(master.Int63()))
	}

	trace := &sim.Trace{
		ProtocolName: proto.Name(),
		Inputs:       append([]sim.Value(nil), inputs...),
	}
	corrupted := make(map[sim.PartyID]bool)
	honestOutputs := make(map[sim.PartyID]sim.OutputRecord)

	adv.Reset(&sim.AdvContext{
		Protocol:   proto,
		Inputs:     append([]sim.Value(nil), inputs...),
		TrueOutput: proto.Func(inputs),
		RNG:        advRNG,
	})

	for _, id := range adv.InitialCorruptions() {
		if id < 1 || sim.PartyID(n) < id {
			return nil, fmt.Errorf("%w: %d", sim.ErrBadParty, id)
		}
		corrupted[id] = true
	}
	effective := append([]sim.Value(nil), inputs...)
	for id := range corrupted {
		effective[id-1] = adv.SubstituteInput(id, inputs[id-1])
	}
	trace.EffectiveInputs = effective

	setupOuts, err := proto.Setup(effective, protoRNG)
	if err != nil {
		return nil, fmt.Errorf("sim: setup: %w", err)
	}
	if setupOuts != nil && len(setupOuts) != n && len(setupOuts) != n+1 {
		return nil, fmt.Errorf("sim: setup returned %d outputs for %d parties", len(setupOuts), n)
	}
	if len(setupOuts) == n+1 {
		trace.SetupAudit = setupOuts[n]
		setupOuts = setupOuts[:n]
	}
	setupOutOf := func(id sim.PartyID) sim.Value {
		if setupOuts == nil {
			return nil
		}
		return setupOuts[id-1]
	}
	corruptedSetup := make(map[sim.PartyID]sim.Value)
	for id := range corrupted {
		corruptedSetup[id] = setupOutOf(id)
	}
	abortRequested := len(corrupted) > 0 && adv.ObserveSetup(legacySlice(n, corruptedSetup))
	if policy, ok := proto.(sim.SetupAbortPolicy); ok && abortRequested {
		abortRequested = policy.SetupAbortable(len(corrupted))
	}
	trace.SetupAborted = abortRequested
	trace.HybridOutput = proto.Func(effective)

	if trace.SetupAborted {
		withDefaults := append([]sim.Value(nil), inputs...)
		for id := range corrupted {
			withDefaults[id-1] = proto.DefaultInput(id)
		}
		trace.ExpectedOutput = proto.Func(withDefaults)
		trace.EffectiveInputs = withDefaults
	} else {
		trace.ExpectedOutput = proto.Func(effective)
	}

	machines := make([]sim.Party, n)
	for i := 0; i < n; i++ {
		id := sim.PartyID(i + 1)
		m, err := proto.NewParty(id, effective[i], setupOutOf(id), trace.SetupAborted, partyRNGs[i])
		if err != nil {
			return nil, fmt.Errorf("sim: new party %d: %w", id, err)
		}
		machines[i] = m
	}
	for id := range corrupted {
		adv.OnCorrupt(id, machines[id-1], setupOutOf(id))
	}

	inboxes := make([][]sim.Message, n)
	totalRounds := proto.NumRounds() + 1
	for r := 1; r <= totalRounds; r++ {
		for _, id := range adv.CorruptBefore(r) {
			if id < 1 || sim.PartyID(n) < id {
				return nil, fmt.Errorf("%w: %d", sim.ErrBadParty, id)
			}
			if corrupted[id] {
				continue
			}
			corrupted[id] = true
			adv.OnCorrupt(id, machines[id-1], setupOutOf(id))
		}

		var honestOut []sim.Message
		var rushed []sim.Message
		for i := 0; i < n; i++ {
			id := sim.PartyID(i + 1)
			if corrupted[id] {
				continue
			}
			out, err := machines[i].Round(r, inboxes[i])
			if err != nil {
				return nil, fmt.Errorf("sim: party %d round %d: %w", id, r, err)
			}
			for _, m := range out {
				m.From = id
				honestOut = append(honestOut, m)
				if m.To == sim.Broadcast || corrupted[m.To] {
					rushed = append(rushed, m)
				}
			}
		}

		corruptInboxes := make(map[sim.PartyID][]sim.Message, len(corrupted))
		for id := range corrupted {
			corruptInboxes[id] = inboxes[id-1]
		}
		advOut := adv.Act(r, legacySlice(n, corruptInboxes), rushed)
		for i := range advOut {
			if !corrupted[advOut[i].From] {
				return nil, fmt.Errorf("sim: adversary sent as honest party %d", advOut[i].From)
			}
		}

		next := make([][]sim.Message, n)
		deliver := func(m sim.Message) {
			if m.To == sim.Broadcast {
				for i := 0; i < n; i++ {
					next[i] = append(next[i], m)
				}
				return
			}
			if m.To >= 1 && m.To <= sim.PartyID(n) {
				next[m.To-1] = append(next[m.To-1], m)
			}
		}
		for _, m := range honestOut {
			deliver(m)
		}
		for _, m := range advOut {
			deliver(m)
		}
		for i := range next {
			sort.SliceStable(next[i], func(a, b int) bool { return next[i][a].From < next[i][b].From })
		}
		inboxes = next
		trace.RoundsRun = r
	}

	defaulted := append([]sim.Value(nil), inputs...)
	for id := range corrupted {
		defaulted[id-1] = proto.DefaultInput(id)
	}
	trace.DefaultedOutput = proto.Func(defaulted)

	honestAudits := make(map[sim.PartyID]sim.Value)
	for i := 0; i < n; i++ {
		id := sim.PartyID(i + 1)
		if corrupted[id] {
			continue
		}
		v, ok := machines[i].Output()
		honestOutputs[id] = sim.OutputRecord{Value: v, OK: ok}
		if ap, ok := machines[i].(sim.AuditedParty); ok {
			honestAudits[id] = ap.AuditInfo()
		}
	}
	trace.Corrupted = legacySlice(n, corrupted)
	trace.HonestOutputs = legacySlice(n, honestOutputs)
	trace.HonestAudits = legacySlice(n, honestAudits)

	if auditor, ok := proto.(sim.OutcomeAuditor); ok {
		audit := auditor.AuditOutcome(trace)
		trace.Audit = &audit
		if audit.Learned {
			trace.AdvLearned = true
			trace.AdvValue = audit.LearnedValue
		}
	} else if v, ok := adv.Learned(); ok &&
		(sim.ValuesEqual(v, trace.ExpectedOutput) || sim.ValuesEqual(v, trace.HybridOutput)) {
		trace.AdvLearned = true
		trace.AdvValue = v
	}
	if ex, ok := adv.(sim.InputExtractor); ok {
		if victim, v, claimed := ex.ExtractedInput(); claimed {
			if victim >= 1 && victim <= sim.PartyID(n) && !corrupted[victim] &&
				sim.ValuesEqual(v, inputs[victim-1]) {
				trace.PrivacyBreach = true
				trace.BreachedParty = victim
			}
		}
	}
	return trace, nil
}

// legacySlice converts one of legacyRun's per-party maps to the
// party-indexed slice the Adversary interface and the Trace take: entry
// id−1 holds m[id], and parties without an entry get the zero value.
func legacySlice[V any](n int, m map[sim.PartyID]V) []V {
	s := make([]V, n)
	for id, v := range m {
		s[id-1] = v
	}
	return s
}

// parityCase is one protocol × adversary pair from the experiment
// harness's repertoire.
type parityCase struct {
	name   string
	proto  func() (sim.Protocol, []sim.Value, error)
	newAdv func() sim.Adversary
}

func parityCases(t *testing.T) []parityCase {
	t.Helper()
	twoPartyInputs := []sim.Value{uint64(111), uint64(222)}
	concat4 := func() (multiparty.Function, error) { return multiparty.Concat(4, 8) }
	multiInputs := []sim.Value{uint64(1), uint64(2), uint64(3), uint64(4)}

	multiProto := func(build func(multiparty.Function) sim.Protocol) func() (sim.Protocol, []sim.Value, error) {
		return func() (sim.Protocol, []sim.Value, error) {
			fn, err := concat4()
			if err != nil {
				return nil, nil, err
			}
			return build(fn), multiInputs, nil
		}
	}
	gkProto := func(rangeVariant bool) func() (sim.Protocol, []sim.Value, error) {
		return func() (sim.Protocol, []sim.Value, error) {
			var (
				p   gordonkatz.Protocol
				err error
			)
			if rangeVariant {
				p, err = gordonkatz.NewPolyRange(gordonkatz.AND(), 4)
			} else {
				p, err = gordonkatz.NewPolyDomain(gordonkatz.AND(), 4)
			}
			return p, []sim.Value{uint64(1), uint64(1)}, err
		}
	}

	cases := []parityCase{}
	// Contract signing (E01) and the two-party family (E02/E03/E13/E14).
	for _, p := range []struct {
		name  string
		build func() (sim.Protocol, []sim.Value, error)
	}{
		{"pi1", func() (sim.Protocol, []sim.Value, error) { return contract.Pi1{}, twoPartyInputs, nil }},
		{"pi2", func() (sim.Protocol, []sim.Value, error) { return contract.Pi2{}, twoPartyInputs, nil }},
		{"2sfe-opt", func() (sim.Protocol, []sim.Value, error) {
			return twoparty.New(twoparty.Swap()), twoPartyInputs, nil
		}},
		{"2sfe-fixed2", func() (sim.Protocol, []sim.Value, error) {
			return twoparty.NewFixedOrder(twoparty.Swap(), 2), twoPartyInputs, nil
		}},
		{"2sfe-oneround", func() (sim.Protocol, []sim.Value, error) {
			return twoparty.NewOneRound(twoparty.Swap()), twoPartyInputs, nil
		}},
	} {
		for _, a := range []struct {
			name string
			mk   func() sim.Adversary
		}{
			{"passive", func() sim.Adversary { return sim.Passive{} }},
			{"static:1", func() sim.Adversary { return adversary.NewStatic(1) }},
			{"lock-abort:1", func() sim.Adversary { return adversary.NewLockAbort(1) }},
			{"lock-abort:2", func() sim.Adversary { return adversary.NewLockAbort(2) }},
			{"abort:2:1", func() sim.Adversary { return adversary.NewAbortAt(2, 1) }},
			{"setup-abort:1", func() sim.Adversary { return adversary.NewSetupAbort(1) }},
			{"agen", func() sim.Adversary { return adversary.NewAgen() }},
		} {
			cases = append(cases, parityCase{p.name + "/" + a.name, p.build, a.mk})
		}
	}
	// Multi-party family (E05..E09).
	for _, p := range []struct {
		name  string
		build func() (sim.Protocol, []sim.Value, error)
	}{
		{"nsfe-opt", multiProto(func(fn multiparty.Function) sim.Protocol { return multiparty.NewOptN(fn) })},
		{"nsfe-gmw12", multiProto(func(fn multiparty.Function) sim.Protocol { return multiparty.NewGMWHalf(fn) })},
		{"nsfe-lemma18", multiProto(func(fn multiparty.Function) sim.Protocol { return multiparty.NewLemma18(fn) })},
		{"nsfe-hybrid", multiProto(func(fn multiparty.Function) sim.Protocol { return multiparty.NewHybrid(fn) })},
	} {
		for _, a := range []struct {
			name string
			mk   func() sim.Adversary
		}{
			{"passive", func() sim.Adversary { return sim.Passive{} }},
			{"static:1+2", func() sim.Adversary { return adversary.NewStatic(1, 2) }},
			{"lock-abort:1+3", func() sim.Adversary { return adversary.NewLockAbort(1, 3) }},
			{"setup-abort:1+2+3", func() sim.Adversary { return adversary.NewSetupAbort(1, 2, 3) }},
			{"allbut-mixer", func() sim.Adversary { return adversary.NewAllButMixer(4) }},
			{"allbut:4", func() sim.Adversary { return adversary.NewAllBut(4, 4) }},
		} {
			cases = append(cases, parityCase{p.name + "/" + a.name, p.build, a.mk})
		}
	}
	// Gordon–Katz partial fairness (E11/E12).
	for _, p := range []struct {
		name  string
		build func() (sim.Protocol, []sim.Value, error)
	}{
		{"gk-polydomain", gkProto(false)},
		{"gk-polyrange", gkProto(true)},
	} {
		for _, a := range []struct {
			name string
			mk   func() sim.Adversary
		}{
			{"passive", func() sim.Adversary { return sim.Passive{} }},
			{"first-hit:1", func() sim.Adversary { return gordonkatz.NewFirstHit(1) }},
			{"abort:3:2", func() sim.Adversary { return adversary.NewAbortAt(3, 2) }},
		} {
			cases = append(cases, parityCase{p.name + "/" + a.name, p.build, a.mk})
		}
	}
	// The leaky Π̃ with its input-extraction attack (E12).
	cases = append(cases, parityCase{
		"gk-pitilde/leak-extractor",
		func() (sim.Protocol, []sim.Value, error) {
			p, err := gordonkatz.NewPitilde()
			return p, []sim.Value{uint64(1), uint64(0)}, err
		},
		func() sim.Adversary { return gordonkatz.NewLeakExtractor() },
	})
	// The real message-passing substrate (E15).
	cases = append(cases, parityCase{
		"gmw-online/lock-abort:2",
		func() (sim.Protocol, []sim.Value, error) {
			circ, err := circuit.MillionairesCircuit(6)
			if err != nil {
				return nil, nil, err
			}
			p, err := gmwproto.New("m6", circ, 2)
			return p, []sim.Value{uint64(50), uint64(20)}, err
		},
		func() sim.Adversary { return adversary.NewLockAbort(2) },
	})
	return cases
}

func TestExecutionMatchesLegacyRun(t *testing.T) {
	for _, tc := range parityCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				proto, inputs, err := tc.proto()
				if err != nil {
					t.Fatal(err)
				}
				want, wantErr := legacyRun(proto, inputs, tc.newAdv(), seed)
				got, gotErr := sim.Run(proto, inputs, tc.newAdv(), seed)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d: legacy err %v, execution err %v", seed, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d: traces diverge\nlegacy:    %+v\nexecution: %+v", seed, want, got)
				}
			}
		})
	}
}

// TestExecutionPhaseOrder pins the stepper's phase contract: phases must
// run in order and exactly once.
func TestExecutionPhaseOrder(t *testing.T) {
	proto := twoparty.New(twoparty.Swap())
	inputs := []sim.Value{uint64(1), uint64(2)}
	e, err := sim.NewExecution(proto, inputs, sim.Passive{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(1); err == nil {
		t.Error("Step before SetupPhase accepted")
	}
	if _, err := e.Finalize(); err == nil {
		t.Error("Finalize before SetupPhase accepted")
	}
	if err := e.SetupPhase(); err != nil {
		t.Fatal(err)
	}
	if err := e.SetupPhase(); err == nil {
		t.Error("second SetupPhase accepted")
	}
	if err := e.Step(2); err == nil {
		t.Error("out-of-order Step accepted")
	}
	for r := 1; r <= e.TotalRounds(); r++ {
		if err := e.Step(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Step(e.TotalRounds() + 1); err == nil {
		t.Error("Step past TotalRounds accepted")
	}
	tr, err := e.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if tr.RoundsRun != e.TotalRounds() {
		t.Errorf("RoundsRun = %d, want %d", tr.RoundsRun, e.TotalRounds())
	}
	if _, err := e.Finalize(); err == nil {
		t.Error("second Finalize accepted")
	}
}

// TestObserverEventStream sanity-checks the observer ordering contract on
// a small adversarial run: a metrics observer and the trace must agree.
func TestObserverEventStream(t *testing.T) {
	proto := twoparty.New(twoparty.Swap())
	inputs := []sim.Value{uint64(7), uint64(9)}
	var m sim.Metrics
	tr, err := sim.Run(proto, inputs, adversary.NewLockAbort(1), 4, &m)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs != 1 {
		t.Errorf("Runs = %d, want 1", m.Runs)
	}
	if int(m.Rounds) != tr.RoundsRun {
		t.Errorf("Rounds = %d, want %d", m.Rounds, tr.RoundsRun)
	}
	if int(m.Corruptions) != tr.NumCorrupted() {
		t.Errorf("Corruptions = %d, want %d", m.Corruptions, tr.NumCorrupted())
	}
	if m.Messages == 0 {
		t.Error("no messages observed")
	}
}
