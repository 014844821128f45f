package sweep

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jsonl"
)

// smallSpec is a small grid with both cell and aggregate sum records.
func smallSpec() Spec {
	return Spec{
		Families:   []string{"oneround", "optn"},
		Gammas:     []core.Payoff{core.StandardPayoff()},
		Ns:         []int{2, 3},
		Costs:      []string{"zero", "optimal"},
		AbortSweep: true,
		Runs:       60,
		Seed:       77,
	}
}

// writeCompleted runs a full sweep into path and returns the plan and
// the file bytes.
func writeCompleted(t *testing.T, spec Spec, path string) (*Sweep, []byte) {
	t.Helper()
	if _, err := Run(spec, path, nil); err != nil {
		t.Fatal(err)
	}
	sw, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sw, data
}

func TestLoadCheckpointHeaderMismatch(t *testing.T) {
	spec := smallSpec()
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	writeCompleted(t, spec, path)

	// A different seed replans a different grid fingerprint; its header
	// must be refused before any record is trusted.
	other := spec
	other.Seed++
	sw, err := Plan(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(path, sw); err == nil ||
		!strings.Contains(err.Error(), "header mismatch") {
		t.Errorf("foreign-seed load: err = %v, want header mismatch", err)
	}
}

// TestLoadCheckpointTornTailThenGarbage covers the corruption case next
// to the benign tear: a line cut mid-write is recoverable only when it
// is the LAST line. If writes continued past it — here a valid-looking
// record line lands after the tear — the tear becomes a complete but
// unparsable line, and the load must fail rather than resume over
// corruption.
func TestLoadCheckpointTornTailThenGarbage(t *testing.T) {
	spec := smallSpec()
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	sw, data := writeCompleted(t, spec, path)

	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // drop empty split tail
	if len(lines) < 4 {
		t.Fatalf("need at least 4 lines, have %d", len(lines))
	}

	// Benign tear first: everything through record 2, then half of
	// record 3 with no newline. Loads cleanly, truncateTo points at the
	// end of the intact prefix.
	tornAt := len(lines) - 1
	intact := bytes.Join(lines[:tornAt], nil)
	torn := append(append([]byte{}, intact...), lines[tornAt][:len(lines[tornAt])/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, truncateTo, err := LoadCheckpoint(path, sw)
	if err != nil {
		t.Fatalf("benign torn tail: %v", err)
	}
	if len(recs) != tornAt-1 { // minus the header line
		t.Errorf("benign torn tail: %d records, want %d", len(recs), tornAt-1)
	}
	if truncateTo != int64(len(intact)) {
		t.Errorf("benign torn tail: truncateTo = %d, want %d", truncateTo, len(intact))
	}

	// Now the corruption variant: the same tear, but a complete valid
	// record line follows it. The torn fragment plus the next line is a
	// complete unparsable line — corruption, not a tear.
	garbled := append(append([]byte{}, torn...), []byte("\n")...)
	garbled = append(garbled, lines[tornAt]...)
	if err := os.WriteFile(path, garbled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(path, sw); err == nil ||
		!strings.Contains(err.Error(), "checkpoint record") {
		t.Errorf("torn tail + garbage: err = %v, want corruption error", err)
	}
}

// TestRunEmptyCheckpointFile pins the empty-file resume path: an
// existing zero-byte checkpoint has no header to validate, so resuming
// over it must fail loudly instead of silently restarting — the file's
// provenance is unknown.
func TestRunEmptyCheckpointFile(t *testing.T) {
	spec := smallSpec()
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sw, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(path, sw); err == nil ||
		!strings.Contains(err.Error(), "header mismatch") {
		t.Errorf("empty-file load: err = %v, want header mismatch", err)
	}
	if _, err := Run(spec, path, nil); err == nil ||
		!strings.Contains(err.Error(), "header mismatch") {
		t.Errorf("empty-file resume via Run: err = %v, want header mismatch", err)
	}
}

// TestResumeRejectsTamperedCheckpoint pins re-certification on resume:
// a checkpoint of a breaching sweep whose "ok" flags were all set to
// true must be refused, not resumed as a pass.
func TestResumeRejectsTamperedCheckpoint(t *testing.T) {
	spec := DefaultSpec()
	spec.Families = []string{"2sfe"}
	spec.Ns = []int{2}
	spec.Runs = 200
	spec.Slack = -0.3
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if _, err := Run(spec, path, nil); !errors.Is(err, ErrBreach) {
		t.Fatalf("planted breach not reported: err = %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	forged := bytes.ReplaceAll(data, []byte(`"ok":false`), []byte(`"ok":true`))
	if bytes.Equal(forged, data) {
		t.Fatal("the breaching sweep wrote no failed check")
	}
	if err := os.WriteFile(path, forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, path, nil); err == nil || !strings.Contains(err.Error(), "tampered checkpoint") {
		t.Errorf("forged checkpoint resumed: err = %v", err)
	}
}

// FuzzLoadCheckpoint feeds arbitrary record bytes behind a valid header
// to the checkpoint loader, which re-certifies every record it accepts.
// It must never panic, and a load it accepts must return records whose
// keys follow the plan's order, with a truncation offset inside the
// file.
func FuzzLoadCheckpoint(f *testing.F) {
	sw, err := Plan(smallSpec())
	if err != nil {
		f.Fatal(err)
	}
	hd, err := jsonl.Line(sw.header())
	if err != nil {
		f.Fatal(err)
	}
	want := sw.keys()
	f.Fuzz(func(t *testing.T, records []byte) {
		data := append(append([]byte{}, hd...), records...)
		path := filepath.Join(t.TempDir(), "cp.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, truncateTo, err := LoadCheckpoint(path, sw)
		if err != nil {
			return
		}
		if len(recs) > len(want) {
			t.Fatalf("accepted %d records, plan has %d", len(recs), len(want))
		}
		for i, rec := range recs {
			if rec.Key != want[i] {
				t.Fatalf("accepted record %d with key %q, plan expects %q", i, rec.Key, want[i])
			}
		}
		if truncateTo < int64(len(hd)) || truncateTo > int64(len(data)) {
			t.Fatalf("truncateTo %d outside [%d, %d]", truncateTo, len(hd), len(data))
		}
	})
}
