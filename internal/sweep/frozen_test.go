package sweep

// Frozen-matrix determinism contract: the variance-reduction option is
// off by default, and with it off every sweep record must stay
// byte-identical to the fixture generated before the option existed.
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

// TestFrozenMatrixByteIdentical replays the fixture grid with the
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

// cvSpec is the frozen grid with control variates switched on: the
// gk/firsthit cells estimate only the residual against the exact
// first-hit law.
func cvSpec() Spec {
	spec := frozenSpec()
	spec.ControlVariates = true
	return spec
}

// TestControlVariateSweepCells: with ControlVariates on, every
// gk/firsthit cell carries the residual annotation and certifies, and
// no other cell is touched by the option.
func TestControlVariateSweepCells(t *testing.T) {
	sum, err := Run(cvSpec(), "", nil)
	if err != nil {
		t.Fatalf("control-variate sweep breached: %v", err)
	}
	cvCells := 0
	for _, rec := range sum.Records {
		hasCV := strings.Contains(rec.Note, "cv=gk-first-hit")
		if rec.Kind != "cell" || rec.Family != "gk" || rec.Adv != "firsthit" {
			if hasCV {
				t.Errorf("record %s (%s %s) carries the control-variate note", rec.Key, rec.Family, rec.Adv)
			}
			continue
		}
		cvCells++
		if !hasCV {
			t.Errorf("gk cell %s lacks the control-variate note: %q", rec.Key, rec.Note)
		}
		if !rec.OK {
			t.Errorf("gk cell %s failed certification: %+v", rec.Key, rec.Checks)
		}
	}
	if cvCells == 0 {
		t.Error("no gk first-hit cell carried the control variate")
	}
}

// TestControlVariateSweepResumeByteIdentical: resuming an interrupted
// control-variate sweep must converge to the uninterrupted checkpoint
// byte for byte.
func TestControlVariateSweepResumeByteIdentical(t *testing.T) {
	spec := cvSpec()
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
		t.Fatal("resumed control-variate checkpoint is not byte-identical to the uninterrupted run")
	}
}

// TestControlVariateSpecKeepsKeys: switching the option on must not
// change the number, order or keys of the planned records — only the
// content of the gk cells.
func TestControlVariateSpecKeepsKeys(t *testing.T) {
	off, err := Plan(frozenSpec())
	if err != nil {
		t.Fatal(err)
	}
	on, err := Plan(cvSpec())
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
