package sim_test

// Quiescence tests: Arena.Run ends a run once the strategy and every
// honest machine are quiet after a silent round (see sim.Quiescent). A
// hand-stepped Execution steps every round, so it is the reference: the
// skipped run must leave the same trace, the same Metrics and the same
// observer event stream. TestQuietRunWork pins what the skipping saves
// as exact counts.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/protocols/gordonkatz"
	"repro/internal/service"
	"repro/internal/sim"
)

// eventLog is a recording observer: it keeps every event of a run, with
// message payloads copied out of the sender's payload cell as the event
// fires (machines reuse those cells from round to round). It stands in
// for trace.Recorder, whose fmt rendering of every payload makes this
// test three times slower.
type eventLog struct{ events []event }

type event struct {
	kind     string
	round    int
	id       sim.PartyID
	from, to sim.PartyID
	value    any
	flag     bool
}

func snapshot(v any) any {
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Pointer && !rv.IsNil() {
		return rv.Elem().Interface()
	}
	return v
}

func (l *eventLog) add(e event) { l.events = append(l.events, e) }

func (l *eventLog) RunStarted(p sim.Protocol, in []sim.Value) {
	l.add(event{kind: "run", value: fmt.Sprint(p.Name(), in)})
}
func (l *eventLog) PartyCorrupted(r int, id sim.PartyID) {
	l.add(event{kind: "corrupt", round: r, id: id})
}
func (l *eventLog) InputSubstituted(id sim.PartyID, orig, sub sim.Value) {
	l.add(event{kind: "substitute", id: id, value: [2]any{orig, sub}})
}
func (l *eventLog) SetupFinished(aborted bool) { l.add(event{kind: "setup", flag: aborted}) }
func (l *eventLog) RoundStarted(r int)         { l.add(event{kind: "round", round: r}) }
func (l *eventLog) MessageDelivered(r int, to sim.PartyID, m sim.Message) {
	l.add(event{kind: "deliver", round: r, id: to, from: m.From, to: m.To, value: snapshot(m.Payload)})
}
func (l *eventLog) MessageSent(r int, m sim.Message, corrupt bool) {
	l.add(event{kind: "send", round: r, from: m.From, to: m.To, value: snapshot(m.Payload), flag: corrupt})
}
func (l *eventLog) RoundEnded(r int) { l.add(event{kind: "end", round: r}) }
func (l *eventLog) OutputProduced(id sim.PartyID, rec sim.OutputRecord) {
	l.add(event{kind: "output", id: id, value: rec.Value, flag: rec.OK})
}
func (l *eventLog) RunFinished(tr *sim.Trace) {
	l.add(event{kind: "finish", round: tr.RoundsRun, flag: tr.AdvLearned})
}

// lateSender embeds adversary.Static, as the protocol tests' tampering
// strategies do: it runs party 1 honestly through round 1, withholds
// every message after it, and sends party 2 one message in the last
// message round. Static has no Quiet method, so the engine never takes
// the strategy for quiet, and the late message must still go out.
type lateSender struct {
	adversary.Static
	last int
}

func (l *lateSender) Reset(ctx *sim.AdvContext) {
	l.Static.Targets = []sim.PartyID{1}
	l.Static.Reset(ctx)
	l.last = ctx.Protocol.NumRounds()
}

func (l *lateSender) Act(round int, inboxes [][]sim.Message, rushed []sim.Message) []sim.Message {
	out := l.Static.Act(round, inboxes, rushed)
	switch round {
	case 1:
		return out
	case l.last:
		return []sim.Message{{From: 1, To: 2, Payload: "late"}}
	}
	return nil
}

// namedAdv builds a fresh strategy instance.
type namedAdv struct {
	name string
	mk   func() sim.Adversary
}

// quietStrategies lists every registry strategy valid on a two-party
// Gordon–Katz protocol with the given round count (leak-extractor only
// on Π̃), plus first-hit, an InputSubst-wrapped AbortAt and lateSender.
func quietStrategies(t *testing.T, protoName string, rounds int) []namedAdv {
	t.Helper()
	names := []string{"passive", "agen", "allbut-mixer"}
	for _, id := range []string{"1", "2"} {
		names = append(names, "static:"+id, "lock-abort:"+id, "setup-abort:"+id)
		for _, r := range []int{1, 2, 3, rounds} {
			names = append(names, fmt.Sprintf("abort:%d:%s", r, id))
		}
	}
	if protoName == "gk-pitilde" {
		names = append(names, "leak-extractor")
	}
	var advs []namedAdv
	for _, name := range names {
		if _, err := service.BuildAdversary(name, 2); err != nil {
			t.Fatal(err)
		}
		advs = append(advs, namedAdv{name, func() sim.Adversary {
			adv, _ := service.BuildAdversary(name, 2)
			return adv
		}})
	}
	return append(advs,
		namedAdv{"first-hit:1", func() sim.Adversary { return gordonkatz.NewFirstHit(1) }},
		namedAdv{"first-hit:2", func() sim.Adversary { return gordonkatz.NewFirstHit(2) }},
		namedAdv{"input-subst/abort:3:2", func() sim.Adversary {
			return &adversary.InputSubst{Adversary: adversary.NewAbortAt(3, 2), Value: uint64(0)}
		}},
		namedAdv{"late-sender", func() sim.Adversary { return &lateSender{} }},
	)
}

// steppedRun plays one run on a hand-stepped Execution: every round.
func steppedRun(proto sim.Protocol, inputs []sim.Value, adv sim.Adversary, seed int64, obs ...sim.Observer) (*sim.Trace, error) {
	e, err := sim.NewExecution(proto, inputs, adv, seed, obs...)
	if err != nil {
		return nil, err
	}
	if err := e.SetupPhase(); err != nil {
		return nil, err
	}
	for r := 1; r <= e.TotalRounds(); r++ {
		if err := e.Step(r); err != nil {
			return nil, err
		}
	}
	return e.Finalize()
}

// quietProtocols are the registry's Gordon–Katz and Π̃ protocols.
var quietProtocols = []string{
	"gk-polydomain:2", "gk-polydomain:3", "gk-polydomain:8",
	"gk-polyrange:2", "gk-polyrange:4", "gk-pitilde",
}

func TestArenaSkipMatchesSteppedRun(t *testing.T) {
	const seeds = 200
	for _, protoName := range quietProtocols {
		proto, sampler, err := service.BuildProtocol(protoName)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range quietStrategies(t, protoName, proto.NumRounds()) {
			t.Run(protoName+"/"+st.name, func(t *testing.T) {
				arena := sim.NewArena(proto)
				adv := st.mk() // one instance for every arena run, as the estimator does
				var gotLog, wantLog eventLog
				master := rand.New(rand.NewSource(1))
				for i := 0; i < seeds; i++ {
					inputs, seed := sampler(master), master.Int63()
					gotLog.events, wantLog.events = gotLog.events[:0], wantLog.events[:0]
					var gotM, wantM sim.Metrics
					want, wantErr := steppedRun(proto, inputs, st.mk(), seed, &wantM, &wantLog)
					got, gotErr := arena.Run(inputs, adv, seed, &gotM, &gotLog)
					if wantErr != nil || gotErr != nil {
						t.Fatalf("run %d: stepped err %v, arena err %v", i, wantErr, gotErr)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("run %d: traces diverge\nstepped: %+v\narena:   %+v", i, want, got)
					}
					if wantM != gotM {
						t.Fatalf("run %d: metrics diverge\nstepped: %+v\narena:   %+v", i, wantM, gotM)
					}
					if !reflect.DeepEqual(wantLog.events, gotLog.events) {
						t.Fatalf("run %d: event streams diverge (%d vs %d events)", i, len(wantLog.events), len(gotLog.events))
					}
					if st.name == "late-sender" && !sentLate(gotLog.events, proto.NumRounds()) {
						t.Fatalf("run %d: the late message was not sent", i)
					}
				}
			})
		}
	}
}

// sentLate reports whether the adversary sent a message in round last.
func sentLate(events []event, last int) bool {
	for _, e := range events {
		if e.kind == "send" && e.flag && e.round == last {
			return true
		}
	}
	return false
}

// TestQuietRunWork pins, as exact per-run means over 500 runs at seed 1
// on one arena (parallelism 1), the message rounds the engine steps and
// the Round calls it makes on honest machines. A run that ends early
// still reports every round: Trace.RoundsRun and Metrics.Rounds stay at
// the full count. 2sfe-opt has no quiet machine, so its counts are
// those of a run stepped to the end. The lookahead clones' Round calls
// are pinned beside these, by adversary.TestQuietLookaheadWork.
func TestQuietRunWork(t *testing.T) {
	const runs = 500
	for _, tc := range []struct {
		proto, adv    string
		rounds, calls float64
	}{
		{"gk-polyrange:2", "lock-abort:1", 3.72, 3.72}, // 17 rounds each before skipping
		{"gk-polyrange:2", "abort:2:1", 4, 4},
		{"gk-polyrange:2", "static:1", 17, 17},
		{"gk-pitilde", "lock-abort:1", 5.46, 5.46}, // 19 rounds each before skipping
		{"gk-pitilde", "abort:2:1", 6, 6},
		{"gk-pitilde", "static:1", 19, 19},
		{"2sfe-opt", "lock-abort:1", 3, 3},
	} {
		t.Run(tc.proto+"/"+tc.adv, func(t *testing.T) {
			proto, sampler, err := service.BuildProtocol(tc.proto)
			if err != nil {
				t.Fatal(err)
			}
			adv, err := service.BuildAdversary(tc.adv, proto.NumParties())
			if err != nil {
				t.Fatal(err)
			}
			arena := sim.NewArena(proto)
			master := rand.New(rand.NewSource(1))
			for i := 0; i < runs; i++ {
				var m sim.Metrics
				tr, err := arena.Run(sampler(master), adv, master.Int63(), &m)
				if err != nil {
					t.Fatal(err)
				}
				if full := proto.NumRounds() + 1; tr.RoundsRun != full || m.Rounds != int64(full) {
					t.Fatalf("run %d: RoundsRun %d, Metrics.Rounds %d, want %d", i, tr.RoundsRun, m.Rounds, full)
				}
			}
			rounds, calls := arena.Work()
			gotRounds, gotCalls := float64(rounds)/runs, float64(calls)/runs
			if gotRounds != tc.rounds || gotCalls != tc.calls {
				t.Errorf("per run: %v rounds stepped, %v honest Round calls; want %v, %v",
					gotRounds, gotCalls, tc.rounds, tc.calls)
			}
		})
	}
}
