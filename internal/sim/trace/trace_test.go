package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/protocols/twoparty"
	"repro/internal/sim"
)

func runOnce(t *testing.T, obs ...sim.Observer) *sim.Trace {
	t.Helper()
	proto := twoparty.New(twoparty.Swap())
	tr, err := sim.Run(proto, []sim.Value{uint64(3), uint64(5)}, adversary.NewLockAbort(1), 7, obs...)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRecorderCapturesFullRun(t *testing.T) {
	rec := NewRecorder(Meta{Strategy: "lock-abort:1", Run: 3})
	var m sim.Metrics
	tr := runOnce(t, rec, &m)

	lines := rec.Lines()
	if len(lines) == 0 {
		t.Fatal("no lines recorded")
	}
	if lines[0].Type != "run_start" || lines[len(lines)-1].Type != "run_end" {
		t.Fatalf("stream not bracketed: first=%s last=%s", lines[0].Type, lines[len(lines)-1].Type)
	}
	counts := map[string]int{}
	for i, l := range lines {
		if l.Run != 3 || l.Strategy != "lock-abort:1" {
			t.Fatalf("line %d lost meta: %+v", i, l)
		}
		if l.Seq != i {
			t.Fatalf("line %d has seq %d", i, l.Seq)
		}
		counts[l.Type]++
	}
	if got, want := counts["round_start"], tr.RoundsRun; got != want {
		t.Errorf("round_start lines = %d, want %d", got, want)
	}
	if got, want := int64(counts["send"]), m.Messages; got != want {
		t.Errorf("send lines = %d, metrics say %d", got, want)
	}
	if got, want := int64(counts["deliver"]), m.Deliveries; got != want {
		t.Errorf("deliver lines = %d, metrics say %d", got, want)
	}
	if counts["corrupt"] != tr.NumCorrupted() {
		t.Errorf("corrupt lines = %d, want %d", counts["corrupt"], tr.NumCorrupted())
	}
	end := lines[len(lines)-1]
	if end.Rounds != tr.RoundsRun || end.Learned != tr.AdvLearned || end.Corrupted != tr.NumCorrupted() {
		t.Errorf("run_end %+v disagrees with trace", end)
	}
}

func TestSinkJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSink(&buf)
	var m sim.Metrics
	runOnce(t, sink.Recorder(Meta{Proto: "", Run: 0}), &m)
	runOnce(t, sink.Recorder(Meta{Run: 1}), &m)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	lines, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st := sink.Stats()
	if int64(len(lines)) != st.Lines {
		t.Fatalf("parsed %d lines, sink wrote %d", len(lines), st.Lines)
	}
	if st.Runs != 2 || st.Runs != m.Runs {
		t.Errorf("sink runs = %d, metrics runs = %d, want 2", st.Runs, m.Runs)
	}
	if st.Sends != m.Messages {
		t.Errorf("sink sends = %d, metrics messages = %d", st.Sends, m.Messages)
	}
	if st.Rounds != m.Rounds {
		t.Errorf("sink rounds = %d, metrics rounds = %d", st.Rounds, m.Rounds)
	}
	if lines[0].Proto == "" {
		t.Error("run_start did not default proto name from the protocol")
	}
}

func TestFprintPretty(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSink(&buf)
	runOnce(t, sink.Recorder(Meta{Strategy: "lock-abort:1"}))

	var out bytes.Buffer
	if err := Fprint(&out, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"▶", "round 1", "output", "■ rounds="} {
		if !strings.Contains(text, want) {
			t.Errorf("pretty output missing %q:\n%s", want, text)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage parsed")
	}
}
