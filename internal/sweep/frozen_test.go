package sweep

// Frozen-matrix determinism contract: the variance-reduction options
// are off by default, and with them off every sweep record must stay
// byte-identical to the fixture generated before the options existed.
// These tests are the repository's tripwire against the statistical
// machinery leaking into the default path — a single drifted byte here
// means cached results, checkpoints, and cross-version comparisons are
// silently broken.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// frozenSpec is the exact grid the checked-in fixture was generated
// from (testdata/frozen_vr_off.jsonl, produced by the pre-variance
// sweep code). Do not change it — regenerate the fixture only for a
// deliberate, documented format break.
func frozenSpec() Spec {
	return Spec{
		Families: []string{"2sfe", "gk"},
		Gammas:   StandardGammas(),
		Ns:       []int{2},
		Ps:       []int{2, 4},
		Costs:    []string{"zero"},
		Runs:     200,
		Seed:     7,
	}
}

// TestFrozenMatrixByteIdentical replays the fixture grid with every
// variance-reduction option off and demands byte equality, record for
// record, with the pre-variance output.
func TestFrozenMatrixByteIdentical(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "frozen_vr_off.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(frozenSpec(), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, rec := range sum.Records {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		got.WriteByte('\n')
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines := strings.Split(got.String(), "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("record %d drifted from the frozen matrix\n got: %s\nwant: %s", i, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("record count drifted: got %d lines, frozen matrix has %d", len(gotLines), len(wantLines))
	}
}

// pairedSpec is the frozen grid with CRN pairing and control variates
// switched on: the gk/firsthit cells at the Gordon–Katz payoff gain
// certified delta records between consecutive p values.
func pairedSpec() Spec {
	spec := frozenSpec()
	spec.PairedSeeds = true
	spec.ControlVariates = true
	return spec
}

// TestPairedSweepDeltas: with PairedSeeds on, the plan gains delta
// records pairing neighbouring Gordon–Katz cells, each certified
// against both monotonicity and the exact first-hit law, and the
// control-variate cells carry the residual annotation.
func TestPairedSweepDeltas(t *testing.T) {
	sw, err := Plan(pairedSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Deltas) == 0 {
		t.Fatal("paired plan has no delta records; want one per consecutive gk p pair")
	}
	sum, err := Run(pairedSpec(), "", nil)
	if err != nil {
		t.Fatalf("paired sweep breached: %v", err)
	}
	if len(sum.Records) != len(sw.Cells)+len(sw.Sums)+len(sw.Deltas) {
		t.Fatalf("got %d records, want %d cells + %d sums + %d deltas",
			len(sum.Records), len(sw.Cells), len(sw.Sums), len(sw.Deltas))
	}
	var deltas, cvCells int
	for _, rec := range sum.Records {
		switch {
		case rec.Kind == "delta":
			deltas++
			if rec.Pair == "" {
				t.Errorf("delta record %s has no pair key", rec.Key)
			}
			if len(rec.Checks) != 2 {
				t.Errorf("delta record %s has %d checks, want nonneg + exact", rec.Key, len(rec.Checks))
			}
			for _, c := range rec.Checks {
				if !c.OK {
					t.Errorf("delta check %s failed: value %v vs bound %v", c.Name, c.Value, c.Bound)
				}
			}
		case rec.Kind == "cell" && rec.Family == "gk" && rec.Adv == "firsthit":
			if !strings.Contains(rec.Note, "cv=gk-first-hit") {
				t.Errorf("gk cell %s lacks the control-variate note: %q", rec.Key, rec.Note)
			}
			cvCells++
		}
	}
	if deltas != len(sw.Deltas) {
		t.Errorf("emitted %d delta records, planned %d", deltas, len(sw.Deltas))
	}
	if cvCells == 0 {
		t.Error("no gk first-hit cell carried the control variate")
	}
}

// TestPairedSweepResumeByteIdentical: resuming an interrupted paired
// sweep must converge to the uninterrupted checkpoint byte for byte —
// including the delta records, whose event logs are deterministically
// re-measured for checkpoint-restored pair members.
func TestPairedSweepResumeByteIdentical(t *testing.T) {
	spec := pairedSpec()
	dir := t.TempDir()

	full := filepath.Join(dir, "full.jsonl")
	if _, err := Run(spec, full, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(want, []byte("\n"))
	// Cut inside the record stream so restored cells feed later deltas.
	cut := filepath.Join(dir, "resume.jsonl")
	prefix := bytes.Join(lines[:4], nil) // header + 3 records
	if err := os.WriteFile(cut, prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := Run(spec, cut, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != 3 {
		t.Errorf("resumed %d records, want 3", sum.Resumed)
	}
	got, err := os.ReadFile(cut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed paired checkpoint is not byte-identical to the uninterrupted run")
	}
}

// TestPairedSpecChangesKeysOnly: switching the options on must not
// change the number or order of cells — only the record content and the
// added deltas — and the unpaired plan must carry no deltas at all.
func TestPairedSpecChangesKeysOnly(t *testing.T) {
	off, err := Plan(frozenSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(off.Deltas) != 0 {
		t.Fatalf("options-off plan carries %d deltas, want none", len(off.Deltas))
	}
	on, err := Plan(pairedSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(on.Cells) != len(off.Cells) || len(on.Sums) != len(off.Sums) {
		t.Fatalf("options changed the grid: %d/%d cells, %d/%d sums",
			len(on.Cells), len(off.Cells), len(on.Sums), len(off.Sums))
	}
	for i := range on.Cells {
		if on.Cells[i].Key != off.Cells[i].Key {
			t.Errorf("cell %d key drifted: %s vs %s — cell identity must not depend on the options",
				i, on.Cells[i].Key, off.Cells[i].Key)
		}
	}
}
