// Package trace turns the engine's Observer event stream into a
// structured, serializable transcript: a Recorder buffers one run's
// events as typed lines, a Sink multiplexes many concurrent runs into a
// single JSONL stream (one JSON object per line, whole runs written
// atomically), and Fprint pretty-prints a JSONL transcript back into a
// human-readable round-by-round log.
//
// The JSONL schema (one Line per event; zero-valued fields omitted
// except where noted):
//
//	{"run":R,"seq":S,"type":"run_start","proto":"...","parties":N,"inputs":"[...]"}
//	{"run":R,"seq":S,"type":"corrupt","round":r,"party":P}        round 0 = static
//	{"run":R,"seq":S,"type":"substitute","party":P,"orig":"...","value":"..."}
//	{"run":R,"seq":S,"type":"setup","aborted":bool}
//	{"run":R,"seq":S,"type":"round_start","round":r}
//	{"run":R,"seq":S,"type":"deliver","round":r,"party":P,"from":F,"payload":"..."}
//	{"run":R,"seq":S,"type":"send","round":r,"from":F,"to":T,"broadcast":bool,
//	 "corrupt":bool,"payload":"..."}                              to omitted on broadcast
//	{"run":R,"seq":S,"type":"output","party":P,"ok":bool,"value":"..."}
//	{"run":R,"seq":S,"type":"round_end","round":r}
//	{"run":R,"seq":S,"type":"run_end","rounds":N,"learned":bool,"breach":bool,
//	 "corrupted":t}
//
// Lines carry optional "proto" and "strategy" metadata so transcripts
// from sup-searches (many strategies) and experiment sweeps (many
// protocols) stay self-describing after concatenation.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sync"

	"repro/internal/sim"
)

// maxPayload bounds the rendered payload string; transcripts are logs,
// not wire formats, so huge payloads are elided.
const maxPayload = 160

// Line is one transcript event, the unit of the JSONL stream.
type Line struct {
	// Proto and Strategy are optional metadata identifying the workload
	// the run belongs to.
	Proto    string `json:"proto,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	// Run is the run index within its estimation; Seq orders lines
	// within the run.
	Run int `json:"run"`
	Seq int `json:"seq"`
	// Type discriminates the event (see the package comment's schema).
	Type string `json:"type"`
	// Round is the message round, when the event belongs to one.
	Round int `json:"round,omitempty"`
	// Party is the subject party (corruption target, recipient, …).
	Party int `json:"party,omitempty"`
	// Parties is n (run_start only).
	Parties int `json:"parties,omitempty"`
	// From and To address a message; Broadcast marks To == broadcast.
	From      int  `json:"from,omitempty"`
	To        int  `json:"to,omitempty"`
	Broadcast bool `json:"broadcast,omitempty"`
	// Corrupt marks adversarial senders on send lines.
	Corrupt bool `json:"corrupt,omitempty"`
	// Payload / Inputs / Orig / Value render protocol data via %v.
	Payload string `json:"payload,omitempty"`
	Inputs  string `json:"inputs,omitempty"`
	Orig    string `json:"orig,omitempty"`
	Value   string `json:"value,omitempty"`
	// OK is the output's non-⊥ flag (output lines).
	OK bool `json:"ok,omitempty"`
	// Aborted marks a setup abort (setup lines).
	Aborted bool `json:"aborted,omitempty"`
	// Rounds, Learned, Breach, Corrupted summarize the run (run_end).
	Rounds    int  `json:"rounds,omitempty"`
	Learned   bool `json:"learned,omitempty"`
	Breach    bool `json:"breach,omitempty"`
	Corrupted int  `json:"corrupted,omitempty"`
	// Cause is the canonical failure description (failstop lines);
	// FailStops counts fail-stopped parties (run_end lines).
	Cause     string `json:"cause,omitempty"`
	FailStops int    `json:"failstops,omitempty"`
}

// render stringifies a protocol value for the transcript. Machines send
// payloads as pointers into their payload cells or by value; render
// prints the value either way, so a transcript does not depend on the
// form.
func render(v any) string {
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Pointer && !rv.IsNil() {
		v = rv.Elem().Interface()
	}
	s := fmt.Sprintf("%v", v)
	if len(s) > maxPayload {
		s = s[:maxPayload] + "…"
	}
	return s
}

// Meta labels a Recorder's lines.
type Meta struct {
	// Proto is the protocol name (defaulted from RunStarted if empty).
	Proto string
	// Strategy is the adversary/strategy label.
	Strategy string
	// Run is the run index.
	Run int
}

// Recorder is a sim.Observer that buffers one run's transcript. When
// built by a Sink it flushes the whole run to the sink's JSONL stream on
// RunFinished; a standalone Recorder just accumulates (read Lines).
type Recorder struct {
	meta  Meta
	lines []Line
	sink  *Sink
}

var (
	_ sim.Observer         = (*Recorder)(nil)
	_ sim.FailStopObserver = (*Recorder)(nil)
)

// NewRecorder returns a standalone Recorder for one run.
func NewRecorder(meta Meta) *Recorder { return &Recorder{meta: meta} }

// Lines returns the recorded transcript.
func (r *Recorder) Lines() []Line { return r.lines }

func (r *Recorder) add(l Line) {
	l.Proto = r.meta.Proto
	l.Strategy = r.meta.Strategy
	l.Run = r.meta.Run
	l.Seq = len(r.lines)
	r.lines = append(r.lines, l)
}

// RunStarted implements sim.Observer.
func (r *Recorder) RunStarted(proto sim.Protocol, inputs []sim.Value) {
	if r.meta.Proto == "" {
		r.meta.Proto = proto.Name()
	}
	r.add(Line{Type: "run_start", Parties: proto.NumParties(), Inputs: render(inputs)})
}

// PartyCorrupted implements sim.Observer.
func (r *Recorder) PartyCorrupted(round int, id sim.PartyID) {
	r.add(Line{Type: "corrupt", Round: round, Party: int(id)})
}

// InputSubstituted implements sim.Observer.
func (r *Recorder) InputSubstituted(id sim.PartyID, orig, substituted sim.Value) {
	r.add(Line{Type: "substitute", Party: int(id), Orig: render(orig), Value: render(substituted)})
}

// SetupFinished implements sim.Observer.
func (r *Recorder) SetupFinished(aborted bool) {
	r.add(Line{Type: "setup", Aborted: aborted})
}

// RoundStarted implements sim.Observer.
func (r *Recorder) RoundStarted(round int) {
	r.add(Line{Type: "round_start", Round: round})
}

// MessageDelivered implements sim.Observer.
func (r *Recorder) MessageDelivered(round int, to sim.PartyID, m sim.Message) {
	r.add(Line{Type: "deliver", Round: round, Party: int(to), From: int(m.From), Payload: render(m.Payload)})
}

// MessageSent implements sim.Observer.
func (r *Recorder) MessageSent(round int, m sim.Message, corrupt bool) {
	l := Line{Type: "send", Round: round, From: int(m.From), Corrupt: corrupt, Payload: render(m.Payload)}
	if m.To == sim.Broadcast {
		l.Broadcast = true
	} else {
		l.To = int(m.To)
	}
	r.add(l)
}

// RoundEnded implements sim.Observer.
func (r *Recorder) RoundEnded(round int) {
	r.add(Line{Type: "round_end", Round: round})
}

// OutputProduced implements sim.Observer.
func (r *Recorder) OutputProduced(id sim.PartyID, rec sim.OutputRecord) {
	r.add(Line{Type: "output", Party: int(id), OK: rec.OK, Value: render(rec.Value)})
}

// PartyFailStopped implements sim.FailStopObserver: a party removed
// from the run by an unrecoverable infrastructure failure.
func (r *Recorder) PartyFailStopped(round int, id sim.PartyID, cause string) {
	r.add(Line{Type: "failstop", Round: round, Party: int(id), Cause: cause})
}

// RunFinished implements sim.Observer.
func (r *Recorder) RunFinished(tr *sim.Trace) {
	r.add(Line{
		Type:      "run_end",
		Rounds:    tr.RoundsRun,
		Learned:   tr.AdvLearned,
		Breach:    tr.PrivacyBreach,
		Corrupted: tr.NumCorrupted(),
		FailStops: len(tr.FailStops),
	})
	if r.sink != nil {
		r.sink.flush(r.lines)
	}
}

// Stats counts transcript lines by kind, for cross-checking against the
// engine's sim.Metrics.
type Stats struct {
	// Lines is the total JSONL line count.
	Lines int64
	// Runs counts run_end lines.
	Runs int64
	// Rounds counts round_start lines.
	Rounds int64
	// Sends counts send lines; Deliveries counts deliver lines.
	Sends      int64
	Deliveries int64
}

// Sink serializes whole-run transcripts from concurrently executing runs
// into one JSONL stream. Each run's lines are written contiguously (the
// Recorder flushes on RunFinished under the sink's lock), so a parallel
// estimation produces a file whose runs may be reordered but never
// interleaved; the run/seq fields keep it fully reconstructable.
type Sink struct {
	mu    sync.Mutex
	enc   *json.Encoder
	stats Stats
	err   error
}

// NewSink wraps w in a transcript sink.
func NewSink(w io.Writer) *Sink { return &Sink{enc: json.NewEncoder(w)} }

// Recorder returns a per-run Recorder that flushes into the sink when
// its run finishes. Each run needs its own Recorder.
func (s *Sink) Recorder(meta Meta) *Recorder { return &Recorder{meta: meta, sink: s} }

func (s *Sink) flush(lines []Line) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range lines {
		if s.err == nil {
			s.err = s.enc.Encode(l)
		}
		s.stats.Lines++
		switch l.Type {
		case "run_end":
			s.stats.Runs++
		case "round_start":
			s.stats.Rounds++
		case "send":
			s.stats.Sends++
		case "deliver":
			s.stats.Deliveries++
		}
	}
}

// Stats returns the line counts written so far.
func (s *Sink) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Err returns the first write error, if any.
func (s *Sink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
