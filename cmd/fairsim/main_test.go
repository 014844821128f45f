package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim/trace"
)

func TestRunEndToEnd(t *testing.T) {
	if err := run([]string{"-proto", "pi1", "-adv", "lock-abort:2", "-runs", "50", "-seed", "3"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	err := run([]string{"-proto", "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Errorf("err = %v", err)
	}
}

// TestRunTrace pins -trace: the transcript parses, its line counts equal
// the engine metrics the command prints, and every run 0 … runs−1
// appears exactly once, labelled with the adversary name.
func TestRunTrace(t *testing.T) {
	const runs = 40
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var rerr error
	out := captureStdout(t, func() {
		rerr = run([]string{"-proto", "gk-pitilde", "-adv", "lock-abort:1", "-runs", strconv.Itoa(runs),
			"-seed", "5", "-parallel", "2", "-trace", path})
	})
	if rerr != nil {
		t.Fatalf("run: %v\noutput:\n%s", rerr, out)
	}
	var mRuns, mRounds, mMsgs int64
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "engine   :") {
			if _, err := fmt.Sscanf(line, "engine   : runs=%d rounds=%d msgs=%d", &mRuns, &mRounds, &mMsgs); err != nil {
				t.Fatalf("engine line %q: %v", line, err)
			}
		}
	}
	if mRuns != runs {
		t.Fatalf("printed engine runs = %d, want %d\noutput:\n%s", mRuns, runs, out)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, err := trace.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	var st trace.Stats
	ends := make(map[int]int)
	for _, l := range lines {
		if l.Strategy != "lock-abort:1" {
			t.Fatalf("line %+v not labelled with the adversary name", l)
		}
		switch l.Type {
		case "run_end":
			st.Runs++
			ends[l.Run]++
		case "round_start":
			st.Rounds++
		case "send":
			st.Sends++
		}
	}
	if st.Runs != mRuns || st.Rounds != mRounds || st.Sends != mMsgs {
		t.Errorf("transcript counts %+v disagree with printed engine runs=%d rounds=%d msgs=%d",
			st, mRuns, mRounds, mMsgs)
	}
	for r := 0; r < runs; r++ {
		if ends[r] != 1 {
			t.Errorf("run %d ends %d times in the transcript, want once", r, ends[r])
		}
	}
	if want := fmt.Sprintf("(%d lines, %d runs;", len(lines), runs); !strings.Contains(string(out), want) {
		t.Errorf("summary line does not report %q:\n%s", want, out)
	}
}
